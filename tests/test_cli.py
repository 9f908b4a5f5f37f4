"""Command-line surface: golden outputs, exit codes, report shapes.

Everything runs in-process through main(argv) so exit codes and stdout
are observable without subprocesses.
"""

import json
from fractions import Fraction as F

import pytest

from privopt.cli import main
from privopt.serialize import dumps, mechanism_to_jsonable, user_to_jsonable

from goldens import (
    ALPHA_HALF,
    BENCHMARK_ANALYZE_DERIVED_REMAP,
    BENCHMARK_REMAP_STDOUT,
    BENCHMARK_USER,
    BENCHMARK_VERTEX,
)
from privopt import LossFunction, UserModel, truncated_geometric


@pytest.fixture
def user_file(tmp_path):
    p = tmp_path / "user.json"
    p.write_text(dumps(user_to_jsonable(BENCHMARK_USER)))
    return str(p)


@pytest.fixture
def mech_file(tmp_path):
    p = tmp_path / "mech.json"
    g = truncated_geometric(ALPHA_HALF, 5)
    p.write_text(dumps(mechanism_to_jsonable(g, alpha=F(1, 2))))
    return str(p)


class TestMech:
    def test_geometric_to_stdout(self, capsys):
        assert main(["mech", "geometric", "--alpha", "1/2", "--n", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == [["2/3", "1/3"], ["1/3", "2/3"]]
        assert data["alpha"] == "1/2"

    def test_geometric_to_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["mech", "geometric", "--alpha", "1/2", "--n", "5",
                     "--out", str(out)]) == 0
        g = truncated_geometric(ALPHA_HALF, 5)
        assert out.read_text() == dumps(mechanism_to_jsonable(g, alpha=F(1, 2)))

    def test_bad_alpha_is_usage_error(self, capsys):
        assert main(["mech", "geometric", "--alpha", "5/4", "--n", "2"]) == 1
        assert "alpha" in capsys.readouterr().err


class TestOptimal:
    def test_benchmark_byte_exact(self, user_file, tmp_path):
        out = tmp_path / "opt.json"
        report = tmp_path / "report.json"
        rc = main(["optimal", "--user", user_file, "--alpha", "1/2",
                   "--out", str(out), "--report", str(report)])
        assert rc == 0
        from privopt import Mechanism
        golden = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        assert out.read_text() == dumps(mechanism_to_jsonable(golden, alpha=F(1, 2)))
        rep = json.loads(report.read_text())
        assert rep["objective_is_exact"] is False
        assert rep["tight_set"]["total"] >= 36
        assert rep["simplex_pivots"] > 0

    def test_low_precision_writes_report(self, tmp_path):
        user = tmp_path / "uniform.json"
        user.write_text(dumps(user_to_jsonable(UserModel(
            prior=(F(1, 5),) * 5,
            loss=LossFunction(kind="power", exponent=F(3, 2))))))
        out = tmp_path / "opt.json"
        report = tmp_path / "report.json"
        rc = main(["optimal", "--user", str(user), "--alpha", "1/2",
                   "--precision", "2", "--out", str(out),
                   "--report", str(report)])
        assert rc == 0
        assert json.loads(out.read_text())["alpha"] == "1/2"
        assert json.loads(report.read_text())["precision_digits"] == 2

    def test_missing_user_file(self, tmp_path, capsys):
        rc = main(["optimal", "--user", str(tmp_path / "nope.json"),
                   "--alpha", "1/2"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


class TestRemap:
    def test_derived_map(self, user_file, mech_file, capsys):
        from privopt.serialize import remap_from_jsonable
        assert main(["remap", "--mech", mech_file, "--user", user_file]) == 0
        printed = capsys.readouterr().out
        assert printed == BENCHMARK_REMAP_STDOUT
        y = remap_from_jsonable(json.loads(printed))
        # response 1 is folded into 2, everything else stays put
        assert y.as_map() == {0: 0, 1: 2, 2: 2, 3: 3, 4: 4, 5: 5}

    def test_prior_must_cover_mechanism_results(self, tmp_path, capsys):
        mech = tmp_path / "g3.json"
        mech.write_text(dumps(mechanism_to_jsonable(
            truncated_geometric(ALPHA_HALF, 3), alpha=F(1, 2))))
        user = tmp_path / "u2.json"
        user.write_text(dumps({"prior": ["1/3", "1/3", "1/3"],
                               "loss": {"kind": "absolute"}}))
        assert main(["remap", "--mech", str(mech), "--user", str(user)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: prior covers 3 results, mechanism has 4" in captured.err

    def test_non_stochastic_mechanism_is_an_error(self, tmp_path, capsys):
        mech = tmp_path / "bad.json"
        mech.write_text(dumps({"n": 1, "responses": [0, 1],
                               "rows": [["2", "-1"], ["1/2", "1/2"]]}))
        user = tmp_path / "u.json"
        user.write_text(dumps({"prior": ["1/2", "1/2"],
                               "loss": {"kind": "absolute"}}))
        assert main(["remap", "--mech", str(mech), "--user", str(user)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: not row-stochastic: entry (0,0) = 2 outside [0, 1]; ")


class TestAnalyze:
    def test_grid_and_json(self, tmp_path, capsys):
        from privopt import Mechanism
        golden = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        mech = tmp_path / "m.json"
        mech.write_text(dumps(mechanism_to_jsonable(golden, alpha=F(1, 2))))
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--mech", str(mech), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "v Z ^ ^ ^ ^" in printed or "vZ^^^^" in printed.replace(" ", "")
        data = json.loads(out.read_text())
        assert data["structure_ok"] is True
        assert data["grid"] == ["vZ^^^^", "vZS^^^", "vZv^^^", "vZvv^^", "vZvvv^"]
        assert data["accounting"]["total_slack"] == 1
        assert data["derived_remap"] == BENCHMARK_ANALYZE_DERIVED_REMAP

    def test_alpha_flag_overrides_missing_embedded(self, tmp_path):
        g = truncated_geometric(ALPHA_HALF, 2)
        mech = tmp_path / "m.json"
        mech.write_text(dumps(mechanism_to_jsonable(g)))  # no alpha inside
        out = tmp_path / "a.json"
        assert main(["analyze", "--mech", str(mech), "--alpha", "1/2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["structure_ok"] is True

    def test_out_of_range_embedded_alpha_is_an_error(self, tmp_path, capsys):
        data = mechanism_to_jsonable(truncated_geometric(ALPHA_HALF, 2))
        data["alpha"] = "2"
        mech = tmp_path / "m.json"
        mech.write_text(dumps(data))
        assert main(["analyze", "--mech", str(mech)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha=2" in err


class TestVerify:
    def test_small_sweep_passes(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        rc = main(["verify", "theorem1", "--n", "4", "--trials", "20",
                   "--seed", "7", "--report", str(report)])
        assert rc == 0
        assert "20/20 trials passed" in capsys.readouterr().out
        rep = json.loads(report.read_text())
        assert rep["summary"]["passes"] == 20
        assert rep["summary"]["all_passed"] is True
        assert len(rep["trials"]) == 20

    def test_report_deterministic_modulo_wall_clock(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "theorem1", "--n", "3", "--trials", "8",
                "--seed", "5", "--report"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("wall_clock_seconds")
        db.pop("wall_clock_seconds")
        assert da == db

    def test_csv_written(self, tmp_path):
        csv_path = tmp_path / "trials.csv"
        rc = main(["verify", "theorem1", "--n", "3", "--trials", "5",
                   "--seed", "1", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 trials
        assert "loss_remapped_geometric" in lines[0]
        assert "loss_lp_vertex" in lines[0]

    def test_raising_trial_is_recorded(self, tmp_path, capsys, monkeypatch):
        from privopt import analysis

        def run(tag):
            report, csv_path = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            rc = main(["verify", "theorem1", "--n", "3", "--trials", "5",
                       "--seed", "1", "--report", str(report),
                       "--csv", str(csv_path)])
            return (rc, capsys.readouterr().out, json.loads(report.read_text()),
                    csv_path.read_text().splitlines())

        clean = run("clean")[2]
        real, calls = analysis.verify_factorization, []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "verify_factorization", flaky)
        rc, out, rep, csv_lines = run("flaky")
        assert rc == 2
        assert "4/5 trials passed" in out
        assert "trial 2 failed" in out and "RuntimeError: boom" in out
        bad = rep["trials"][2]
        assert bad["verdict"] == "error"
        assert bad["error"] == "RuntimeError: boom"
        assert bad["loss_remapped_geometric"] is None
        assert bad["loss_lp_vertex"] is None
        assert bad["user"] == clean["trials"][2]["user"]
        assert [r for t, r in enumerate(rep["trials"]) if t != 2] == \
            [r for t, r in enumerate(clean["trials"]) if t != 2]
        assert rep["summary"] == {"passes": 4, "failures": 1,
                                  "all_passed": False}
        assert len(csv_lines) == 6 and csv_lines[3].endswith(",error")


class TestCounterexample:
    def test_default_instance_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "cert.json"
        rc = main(["nonoblivious", "counterexample", "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        cert = json.loads(report.read_text())
        assert cert["infeasible"] is True
        assert cert["certificate_verified"] is True
        assert cert["num_variables"] == 32

    def test_weak_privacy_is_feasible_and_exits_two(self):
        # at alpha = 1/100 the ratio band is wide enough to host both
        # users' tables; the solve finds a point, so the claim fails
        rc = main(["nonoblivious", "counterexample", "--alpha", "1/100"])
        assert rc == 2

    def test_alpha_one_is_usage_error(self, capsys):
        rc = main(["nonoblivious", "counterexample", "--alpha", "1"])
        assert rc == 1
        assert "error: bad --alpha '1'" in capsys.readouterr().err

    def test_feasible_point_at_weak_privacy_is_genuine(self):
        from privopt.nonoblivious import build_counterexample_lp
        from privopt.simplex import solve_lp
        nv, cons, _, _ = build_counterexample_lp(F(1, 100))
        res = solve_lp(nv, cons, [F(0)] * nv)
        assert res.status == "optimal"
        for con in cons:
            lhs = sum((c * v for c, v in zip(con.coeffs, res.x)), F(0))
            assert (lhs == con.rhs if con.relation == "==" else
                    lhs <= con.rhs if con.relation == "<=" else lhs >= con.rhs)


class TestObliviate:
    def test_lifted_geometric_round_trips(self, tmp_path, capsys):
        from privopt.nonoblivious import binary_space, lift
        from privopt.serialize import full_mechanism_to_jsonable
        sp = binary_space(2)
        x = lift(truncated_geometric(ALPHA_HALF, 2), sp)
        f = tmp_path / "full.json"
        f.write_text(dumps(full_mechanism_to_jsonable(x)))
        assert main(["nonoblivious", "obliviate", "--mech", str(f)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0] == ["2/3", "1/6", "1/6"]


class TestCompareLaplace:
    def test_quarter_values(self, capsys):
        assert main(["compare-laplace", "--alphas", "1/4"]) == 0
        out = capsys.readouterr().out
        assert "1/5" in out
        assert "0.25" in out

    def test_csv_table(self, tmp_path):
        csv_path = tmp_path / "ratios.csv"
        rc = main(["compare-laplace", "--alphas", "1/100,1/1000",
                   "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["mech", "geometric", "--n", "3"]) == 1

    def test_alphas_required(self, capsys):
        assert main(["compare-laplace"]) == 1
        assert "--alphas" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare-laplace", "--alpha", "1/4"],
        ["verify", "theorem1", "--alpha", "1/2", "--n", "1", "--trials", "1"],
        ["verify", "theorem1", "--n", "1", "--trials", "1", "--prec", "3"],
    ])
    def test_option_prefixes_are_not_accepted(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: privopt")

    def test_bad_alphas_token_names_its_flag(self, capsys):
        assert main(["compare-laplace", "--alphas", "1/4,"]) == 1
        assert "error: bad --alphas ''" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mech", "geometric", "--alpha", "1/2", "--n", "2", "--out"],
        ["verify", "theorem1", "--n", "2", "--trials", "1", "--report"],
        ["verify", "theorem1", "--n", "2", "--trials", "1", "--csv"],
    ])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "x.json"
        assert main(argv + [str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

    def test_zero_precision(self, capsys):
        assert main(["verify", "theorem1", "--n", "2", "--trials", "1",
                     "--precision", "0"]) == 1
        assert "error: --precision" in capsys.readouterr().err

