"""Constraint-pattern analysis: the golden grid, the structural check
battery, remap derivation, factorization, and uniqueness."""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from privopt import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    Remap,
    StructuralError,
    UserModel,
    compose,
    optimal_mechanism_for_user,
    truncated_geometric,
    verify_factorization,
    verify_uniqueness,
)
from privopt import analysis, optlp
from privopt.cli import main
from privopt.optlp import ConstraintMatrix
from privopt.analysis import (
    constraint_matrix,
    derive_remap_from_constraint_matrix,
    random_user,
    render_constraint_matrix,
    slack_accounting,
    validate_vertex_structure,
)

from goldens import (
    ALPHA_HALF,
    BENCHMARK_DERIVED_MAP,
    BENCHMARK_GRID,
    BENCHMARK_USER,
    BENCHMARK_VERTEX,
)
from oracles import enumerate_vertices


def benchmark_mechanism():
    return Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)


class TestConstraintMatrix:
    def test_benchmark_grid_symbol_exact(self):
        t0 = time.perf_counter()
        c = constraint_matrix(benchmark_mechanism(), ALPHA_HALF)
        grid = tuple("".join(row) for row in c.grid)
        assert grid == BENCHMARK_GRID
        assert time.perf_counter() - t0 < 0.1

    def test_geometric_grid_has_no_slack(self):
        for n in (1, 3, 5):
            c = constraint_matrix(truncated_geometric(ALPHA_HALF, n), ALPHA_HALF)
            symbols = set(itertools.chain.from_iterable(c.grid))
            assert "S" not in symbols and "Z" not in symbols

    def test_geometric_row_patterns(self):
        # pair row i: i+1 falling ratios then rising ones
        c = constraint_matrix(truncated_geometric(ALPHA_HALF, 4), ALPHA_HALF)
        for i, row in enumerate(c.grid):
            assert "".join(row) == "v" * (i + 1) + "^" * (4 - i)

    def test_non_private_input_rejected(self):
        rows = ((F(1), F(0)), (F(0), F(1)))
        m = Mechanism(n=1, responses=(0, 1), rows=rows)
        with pytest.raises(StructuralError):
            constraint_matrix(m, ALPHA_HALF)

    def test_render_includes_legend(self):
        text = render_constraint_matrix(
            constraint_matrix(benchmark_mechanism(), ALPHA_HALF))
        assert "vZ^^^^" in text.replace(" ", "")


class TestStructureChecks:
    def test_benchmark_passes_battery(self):
        c = constraint_matrix(benchmark_mechanism(), ALPHA_HALF)
        report = validate_vertex_structure(c)
        assert report.ok, report.failures()
        acc = slack_accounting(c)
        assert acc.total_slack == 1
        assert acc.zero_columns == 1

    def test_geometric_passes_battery(self):
        for n in (1, 2, 4):
            c = constraint_matrix(truncated_geometric(ALPHA_HALF, n), ALPHA_HALF)
            report = validate_vertex_structure(c)
            assert report.ok
            acc = slack_accounting(c)
            assert acc.total_slack == 0 and acc.zero_columns == 0

    def test_every_check_name_present(self):
        c = constraint_matrix(benchmark_mechanism(), ALPHA_HALF)
        report = validate_vertex_structure(c)
        assert set(report.checks) == {
            "no_uniform_row", "row_shape", "down_growth",
            "slack_geq_zero_columns", "slack_eq_zero_columns", "column_shape",
        }

    def test_accounting_is_the_grids_own(self):
        # the accounting of another vertex's grid made the geometric grid
        # fail down_growth and column_shape; it can no longer be passed in
        c = constraint_matrix(truncated_geometric(ALPHA_HALF, 3), ALPHA_HALF)
        u = UserModel(prior=(F(1, 4), F(0), F(1, 4), F(1, 2)),
                      loss=LossFunction.absolute())
        vertex = optimal_mechanism_for_user(u, ALPHA_HALF).mechanism
        other = slack_accounting(constraint_matrix(vertex, ALPHA_HALF))
        report = validate_vertex_structure(c)
        assert report.ok
        assert report.accounting == slack_accounting(c) != other
        with pytest.raises(TypeError):
            validate_vertex_structure(c, other)
        with pytest.raises(TypeError):
            derive_remap_from_constraint_matrix(c, other)

    def test_failing_vertex_reports_witness(self):
        # feasible vertex that is not a geometric remap: its report fails
        bad = None
        for v in enumerate_vertices(ALPHA_HALF, 2):
            c = constraint_matrix(v, ALPHA_HALF)
            if not validate_vertex_structure(c).ok:
                bad = v
                break
        assert bad is not None
        rep = validate_vertex_structure(constraint_matrix(bad, ALPHA_HALF))
        assert rep.failures()


class TestDerivedRemap:
    def test_benchmark_map(self):
        c = constraint_matrix(benchmark_mechanism(), ALPHA_HALF)
        y = derive_remap_from_constraint_matrix(c)
        assert y.as_map() == BENCHMARK_DERIVED_MAP

    def test_reconstructs_benchmark(self):
        c = constraint_matrix(benchmark_mechanism(), ALPHA_HALF)
        y = derive_remap_from_constraint_matrix(c)
        g = truncated_geometric(ALPHA_HALF, 5)
        assert compose(y, g).rows == BENCHMARK_VERTEX

    def test_geometric_derives_identity(self):
        g = truncated_geometric(ALPHA_HALF, 3)
        y = derive_remap_from_constraint_matrix(constraint_matrix(g, ALPHA_HALF))
        assert y.as_map() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_from_report(self):
        report = validate_vertex_structure(
            constraint_matrix(benchmark_mechanism(), ALPHA_HALF))
        y = derive_remap_from_constraint_matrix(report)
        assert y.as_map() == BENCHMARK_DERIVED_MAP


class TestFactorization:
    def test_benchmark_user_full_chain(self):
        chk = verify_factorization(BENCHMARK_USER, ALPHA_HALF)
        assert chk.losses_match
        assert chk.structure.ok
        assert chk.reconstruction_ok
        assert chk.ok

    def test_vertex_checked_once(self, monkeypatch):
        # the grid comes with the solve; it is classified, checked for
        # feasibility and validated once, and the derivation reuses the
        # report
        calls = Counter()
        for module, name in ((optlp, "tight_set"), (analysis, "tight_set"),
                             (analysis, "_require_feasible"),
                             (analysis, "validate_vertex_structure")):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        chk = verify_factorization(BENCHMARK_USER, ALPHA_HALF)
        assert chk.ok
        assert chk.structure.grid is chk.vertex.tight
        assert calls == {"tight_set": 1, "_require_feasible": 1,
                         "validate_vertex_structure": 1}

    def test_degenerate_users_still_factor(self):
        # zero prior mass and flat losses used to admit optimal vertices
        # outside the geometric family; the solver's tiebreak must keep
        # returning factorable ones
        from privopt import LossFunction, UserModel
        u = UserModel(
            prior=(F(100, 337), F(2250, 6403), F(525, 6403), F(1728, 6403), F(0)),
            loss=LossFunction(kind="absolute"))
        chk = verify_factorization(u, PrivacyLevel(F(1, 4)))
        assert chk.ok

    def test_small_seeded_sweep(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 5)
            u = random_user(rng, n)
            alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
            chk = verify_factorization(u, PrivacyLevel(alpha))
            assert chk.ok, (n, alpha, u)


class TestNegativeControls:
    """Each verdict fails on an input made to fail it."""

    @pytest.fixture
    def shifted_remap(self, monkeypatch):
        # response 0 of the geometric mechanism is reachable from every
        # result; send it to the last target, or to the first if it
        # already goes there
        real = analysis.optimal_remap

        def shifted(x, u, digits=None):
            y = real(x, u, digits)
            first, last = y.targets[0], y.targets[-1]
            mapping = (last if y.mapping[0] != last else first,) + y.mapping[1:]
            return Remap(y.sources, y.targets, mapping)

        monkeypatch.setattr(analysis, "optimal_remap", shifted)

    def test_shifted_remap_fails_losses_match(self, shifted_remap):
        u = UserModel(prior=(F(1, 4),) * 4, loss=LossFunction.absolute())
        chk = verify_factorization(u, ALPHA_HALF)
        assert chk.remap.mapping == (3, 1, 2, 3)
        assert not chk.losses_match
        assert chk.structure.ok and chk.reconstruction_ok
        assert not chk.ok

    def test_shifted_remap_fails_the_sweep(self, shifted_remap, tmp_path):
        report = tmp_path / "sweep.json"
        rc = main(["verify", "theorem1", "--n", "4", "--trials", "6",
                   "--seed", "11", "--report", str(report)])
        assert rc == 2
        trials = json.loads(report.read_text())["trials"]
        # every loss kind, fractional powers included
        assert {rec["user"]["loss"]["kind"] for rec in trials} == {
            "absolute", "squared", "binary", "power"}
        for rec in trials:
            assert rec["structure_ok"] and rec["reconstruction_ok"]
            assert not rec["losses_match"] and rec["verdict"] == "fail"

    def test_mixed_zero_column_rejected(self):
        c = ConstraintMatrix(2, (0, 1), (("Z", "v"), ("v", "^")))
        with pytest.raises(StructuralError, match="mixes Z"):
            validate_vertex_structure(c)

    def test_uncovered_response_rejected(self):
        with pytest.raises(StructuralError,
                           match="does not cover every response"):
            derive_remap_from_constraint_matrix(ConstraintMatrix(0, (), ()))


class TestOffFamilyVertices:
    """Feasible vertices outside the geometric family exist, but the
    solver never returns one."""

    def test_exists_non_factorable_vertex(self):
        bad = [v for v in enumerate_vertices(ALPHA_HALF, 2)
               if not validate_vertex_structure(
                   constraint_matrix(v, ALPHA_HALF)).ok]
        assert bad

    def test_never_returned_for_random_users(self):
        from privopt import optimal_mechanism_for_user
        rng = random.Random(4)
        for _ in range(50):
            u = random_user(rng, 2)
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            c = constraint_matrix(sol.mechanism, ALPHA_HALF)
            assert validate_vertex_structure(c).ok


class TestUniqueness:
    def test_accepts_geometric(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        rep = verify_uniqueness(ALPHA_HALF, g)
        assert rep.equivalent
        assert rep.permutation == (0, 1, 2, 3, 4, 5)

    def test_accepts_all_relabelings(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        for perm in itertools.permutations(range(6)):
            relabeled = Mechanism(
                n=5, responses=tuple(range(6)),
                rows=tuple(tuple(row[perm.index(r)] for r in range(6))
                           for row in g.rows))
            rep = verify_uniqueness(ALPHA_HALF, relabeled)
            assert rep.equivalent, perm

    def test_rejects_benchmark_vertex(self):
        rep = verify_uniqueness(ALPHA_HALF, benchmark_mechanism())
        assert not rep.equivalent

    def test_rejects_wrong_shape(self):
        # n = 1 with three response columns: one more than results
        m = Mechanism(n=1, responses=(0, 1, 2),
                      rows=((F(1, 2), F(1, 4), F(1, 4)),
                            (F(1, 4), F(1, 2), F(1, 4))))
        with pytest.raises(StructuralError, match="response column"):
            verify_uniqueness(ALPHA_HALF, m)

    def test_rejects_non_stochastic(self):
        m = Mechanism(n=1, responses=(0, 1),
                      rows=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))))
        with pytest.raises(StructuralError) as err:
            verify_uniqueness(ALPHA_HALF, m)
        assert str(err.value) == ("candidate is not row-stochastic: "
                                  "row 1 sums to 3/4")


class TestRandomUser:
    def test_reproducible(self):
        a = random_user(random.Random(8), 4)
        b = random_user(random.Random(8), 4)
        assert a == b

    def test_prior_normalized_with_zero_entries(self):
        rng = random.Random(15)
        saw_zero = False
        for _ in range(60):
            u = random_user(rng, 4)
            assert sum(u.prior) == 1
            saw_zero = saw_zero or any(p == 0 for p in u.prior)
        assert saw_zero
