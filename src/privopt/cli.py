"""Command-line front door.

Subcommands: mech (construct named mechanisms), optimal (solve the
user-specific LP), remap (Bayes-optimal reinterpretation), analyze
(constraint matrix of a mechanism), verify (verification sweeps),
nonoblivious (database-indexed tools), compare-laplace (closed-form
loss comparison).

Exit codes: 0 success or all checks passed; 2 a verification check
failed (reports are still written); 1 usage error, structurally
invalid input, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from . import analysis, mechanisms, serialize
from .core import (
    DEFAULT_PRECISION,
    PrivacyLevel,
    StructuralError,
    check_row_stochastic,
    format_rational,
    hp_context,
    parse_rational,
    to_decimal,
)
from .nonoblivious import check_counterexample_infeasibility, obliviate
from .optlp import DOWN, UP, optimal_mechanism_for_user
from .remap import optimal_remap


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; here usage errors
    are exit 1 and status 2 is reserved for failed verification.

    Options must be spelled in full (no prefix matching), so that an
    option's old spelling never silently sets another one; subcommand
    parsers share this class and so the default.
    """

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _number_str(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    return str(v)


def _resolve_precision(args) -> int:
    if args.precision < 1:
        raise UsageError("--precision must be a positive integer")
    return args.precision


def _parse_alpha(text: str, flag: str) -> PrivacyLevel:
    """The privacy level in text, read from the option named flag."""
    try:
        return PrivacyLevel(parse_rational(text))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad {flag} {text!r}: {e}") from None


def _load(path: str, parser, what: str):
    try:
        return parser(serialize.read_json(path))
    except serialize.FormatError as e:
        raise UsageError(f"{what} file {path}: {e}") from None
    except OSError as e:
        raise UsageError(f"cannot read {what} file {path}: {e}") from None


def _emit(data, out: str | None) -> None:
    text = serialize.dumps(data)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mech(args) -> int:
    level = _parse_alpha(args.alpha, "--alpha")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    g = mechanisms.truncated_geometric(level, args.n)
    _emit(serialize.mechanism_to_jsonable(g, alpha=level.alpha), args.out)
    return 0


def _cmd_optimal(args) -> int:
    level = _parse_alpha(args.alpha, "--alpha")
    user = _load(args.user, serialize.user_from_jsonable, "user")
    digits = _resolve_precision(args)
    sol = optimal_mechanism_for_user(user, level, digits=digits)
    _emit(serialize.mechanism_to_jsonable(sol.mechanism, alpha=level.alpha),
          args.out)
    if args.report:
        cells = "".join("".join(row) for row in sol.tight.grid)
        counts = {
            "upper_ratio_pairs": cells.count(UP),
            "lower_ratio_pairs": cells.count(DOWN),
            "zero_entries": sum(row.count(0) for row in sol.mechanism.rows),
            "mass_rows": sol.mechanism.n + 1,
        }
        counts["total"] = sum(counts.values())
        report = {
            "objective": _number_str(sol.objective),
            "objective_is_exact": isinstance(sol.objective, Fraction),
            "precision_digits": digits,
            "tight_set": counts,
            "alternate_optima_columns": sol.alternate_optima,
            "simplex_pivots": sol.pivots,
        }
        serialize.write_json(args.report, report)
    return 0


def _cmd_remap(args) -> int:
    mech, alpha = _load(args.mech, serialize.mechanism_from_jsonable,
                        "mechanism")
    user = _load(args.user, serialize.user_from_jsonable, "user")
    digits = _resolve_precision(args)
    sto = check_row_stochastic(mech)
    if not sto.ok:
        raise StructuralError("not row-stochastic: " + "; ".join(sto.problems))
    y = optimal_remap(mech, user, digits)
    _emit(serialize.remap_to_jsonable(y), args.out)
    return 0


def _cmd_analyze(args) -> int:
    mech, stored_alpha = _load(args.mech, serialize.mechanism_from_jsonable,
                               "mechanism")
    if args.alpha is not None:
        level = _parse_alpha(args.alpha, "--alpha")
    elif stored_alpha is not None:
        level = PrivacyLevel(stored_alpha)
    else:
        raise UsageError("no --alpha given and the mechanism file carries none")
    cm = analysis.constraint_matrix(mech, level)
    report = analysis.validate_vertex_structure(cm)
    acc = report.accounting
    print(analysis.render_constraint_matrix(cm))
    data = {
        "alpha": format_rational(level.alpha),
        "n": cm.n,
        "responses": list(cm.responses),
        "grid": ["".join(row) for row in cm.grid],
        "accounting": {
            "zero_columns": acc.zero_columns,
            "nonzero_column_indices": list(acc.nonzero_column_indices),
            "slack_per_column": list(acc.slack_per_column),
            "total_slack": acc.total_slack,
        },
        "checks": {name: {"ok": c.ok,
                          "witness": list(c.witness) if c.witness else None}
                   for name, c in report.checks.items()},
        "structure_ok": report.ok,
    }
    if report.ok:
        derived = analysis.derive_remap_from_constraint_matrix(report)
        data["derived_remap"] = {str(s): t
                                 for s, t in sorted(derived.as_map().items())}
    _emit(data, args.out)
    return 0


def _theorem1_sweep(args) -> dict:
    """Everything the sweep did, replayable from the record alone.

    Deterministic given the seed, except wall_clock_seconds, which is
    informational timing and excluded from the determinism contract.
    """
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    alphas = [_parse_alpha(tok.strip(), "--alphas")
              for tok in args.alphas.split(",")]
    digits = _resolve_precision(args)
    rng = random.Random(args.seed)
    trials = []
    started = time.perf_counter()
    for t in range(args.trials):
        n = rng.randint(1, args.n)
        level = alphas[rng.randrange(len(alphas))]
        user = analysis.random_user(rng, n)
        rec = {
            "trial": t,
            "n": n,
            "alpha": format_rational(level.alpha),
            "user": serialize.user_to_jsonable(user),
        }
        try:
            check = analysis.verify_factorization(user, level, digits=digits)
        except Exception as e:  # recorded as this trial's failure
            rec.update(loss_remapped_geometric=None, loss_lp_vertex=None,
                       losses_match=None, structure_ok=None,
                       reconstruction_ok=None, verdict="error",
                       error=f"{type(e).__name__}: {e}")
        else:
            rec.update(loss_remapped_geometric=_number_str(check.remap_loss),
                       loss_lp_vertex=_number_str(check.vertex.objective),
                       losses_match=check.losses_match,
                       structure_ok=check.structure.ok,
                       reconstruction_ok=check.reconstruction_ok,
                       verdict="pass" if check.ok else "fail")
        trials.append(rec)
    passes = sum(1 for rec in trials if rec["verdict"] == "pass")
    return {
        "command": "verify theorem1",
        "seed": args.seed,
        "parameters": {
            "max_n": args.n,
            "alphas": [format_rational(l.alpha) for l in alphas],
            "trials": args.trials,
            "precision_digits": digits,
        },
        "trials": trials,
        "summary": {
            "passes": passes,
            "failures": args.trials - passes,
            "all_passed": passes == args.trials,
        },
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
    }


def _cmd_verify(args) -> int:
    report = _theorem1_sweep(args)
    trials = report["trials"]
    if args.report:
        serialize.write_json(args.report, report)
    if args.csv:
        _write_csv(args.csv,
                   ["trial", "n", "alpha", "loss_remapped_geometric",
                    "loss_lp_vertex", "verdict"],
                   [[rec["trial"], rec["n"], rec["alpha"],
                     rec["loss_remapped_geometric"], rec["loss_lp_vertex"],
                     rec["verdict"]] for rec in trials])
    print(f"theorem1: {report['summary']['passes']}/{len(trials)} trials "
          f"passed ({report['wall_clock_seconds']}s)")
    if not report["summary"]["all_passed"]:
        for rec in trials:
            if rec["verdict"] != "pass":
                print(f"  trial {rec['trial']} failed: n={rec['n']} "
                      f"alpha={rec['alpha']}"
                      + (f" ({rec['error']})" if "error" in rec else ""))
        return 2
    return 0


def _cmd_counterexample(args) -> int:
    level = _parse_alpha(args.alpha, "--alpha")
    cert = check_counterexample_infeasibility(level.alpha)
    print(f"alpha = {format_rational(cert.alpha)}")
    print(f"LP: {cert.num_variables} variables, "
          f"{cert.num_constraints} constraints")
    if cert.infeasible:
        print("infeasible: no single mechanism serves both users")
        print(f"certificate re-verified exactly: {cert.verified}")
        nz = cert.nonzero_multipliers()
        print(f"dual witness uses {len(nz)} constraints:")
        for label, lam in nz:
            print(f"  {format_rational(lam):>10}  {label}")
    else:
        print("feasible: a mechanism satisfying every constraint exists")
    if args.report:
        data = {
            "alpha": format_rational(cert.alpha),
            "num_variables": cert.num_variables,
            "num_constraints": cert.num_constraints,
            "infeasible": cert.infeasible,
            "certificate_verified": cert.verified,
            "multipliers": {label: format_rational(lam)
                            for label, lam in cert.nonzero_multipliers()},
            "detail": cert.detail,
        }
        serialize.write_json(args.report, data)
    return 0 if cert.infeasible and cert.verified else 2


def _cmd_obliviate(args) -> int:
    space = None
    if args.space:
        space = _load(args.space, serialize.space_from_jsonable, "space")

    def parse_full(data):
        return serialize.full_mechanism_from_jsonable(data, space=space)

    x = _load(args.mech, parse_full, "full mechanism")
    m = obliviate(x)
    _emit(serialize.mechanism_to_jsonable(m), args.out)
    return 0


def _cmd_compare_laplace(args) -> int:
    digits = _resolve_precision(args)
    rows = []
    ctx = hp_context(digits)
    for tok in args.alphas.split(","):
        level = _parse_alpha(tok.strip(), "--alphas")
        geo = mechanisms.geometric_two_point_loss(level)
        lap = mechanisms.laplace_two_point_loss(level, digits)
        ratio = mechanisms.two_point_loss_ratio(level, digits)
        rows.append([format_rational(level.alpha), format_rational(geo),
                     str(lap), str(ratio)])
        print(f"alpha = {format_rational(level.alpha)}")
        print(f"  geometric two-point loss: {format_rational(geo)}"
              f" = {to_decimal(geo, ctx)}")
        print(f"  laplace two-point loss:   {lap}")
        print(f"  ratio laplace/geometric:  {ratio}")
    if args.csv:
        _write_csv(args.csv,
                   ["alpha", "geometric_loss", "laplace_loss", "ratio"], rows)
    return 0


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privopt",
                     description="Optimal differentially private mechanisms "
                                 "for count queries, exactly.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_precision(p):
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                       help=f"decimal digits for irrational losses "
                            f"(default {DEFAULT_PRECISION})")

    p = sub.add_parser("mech", help="construct a named mechanism")
    p.add_argument("kind", choices=["geometric"],
                   help="mechanism family (geometric = truncated geometric)")
    p.add_argument("--alpha", required=True, help="privacy level, e.g. 1/2")
    p.add_argument("--n", type=int, required=True, help="largest query result")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_mech)

    p = sub.add_parser("optimal",
                       help="solve the user-specific LP for an optimal "
                            "mechanism")
    p.add_argument("--user", required=True, help="user JSON file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--out", help="write the mechanism JSON here")
    p.add_argument("--report",
                   help="write objective and tight-set summary JSON here")
    add_precision(p)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("remap",
                       help="Bayes-optimal reinterpretation of a mechanism "
                            "for a user")
    p.add_argument("--mech", required=True, help="mechanism JSON file")
    p.add_argument("--user", required=True, help="user JSON file")
    p.add_argument("--out", help="write remap JSON here instead of stdout")
    add_precision(p)
    p.set_defaults(func=_cmd_remap)

    p = sub.add_parser("analyze",
                       help="constraint matrix and structural checks of a "
                            "mechanism")
    p.add_argument("--mech", required=True, help="mechanism JSON file")
    p.add_argument("--alpha", default=None,
                   help="privacy level (default: the file's alpha field)")
    p.add_argument("--out", help="write the JSON analysis here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("claim", choices=["theorem1"],
                   help="theorem1: remapped geometric mechanism matches the "
                        "per-user LP optimum on random users")
    p.add_argument("--n", type=int, default=8, help="largest n to sample")
    p.add_argument("--alphas", default="1/4,1/2,3/4",
                   help="comma-separated privacy levels")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the full run report JSON here")
    p.add_argument("--csv", help="write per-trial losses as CSV here")
    add_precision(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("nonoblivious",
                       help="database-indexed mechanisms and the two-user "
                            "impossibility")
    nsub = p.add_subparsers(dest="subcommand", required=True,
                            parser_class=_Parser)

    q = nsub.add_parser("counterexample",
                        help="certify that no one mechanism is optimal for "
                             "both database-prior users (exit 0 when the "
                             "infeasibility certificate verifies)")
    q.add_argument("--alpha", default="1/2",
                   help="privacy level of the instance (default 1/2)")
    q.add_argument("--report", help="write the certificate JSON here")
    q.set_defaults(func=_cmd_counterexample)

    q = nsub.add_parser("obliviate",
                        help="average a database-indexed mechanism over "
                             "result classes")
    q.add_argument("--mech", required=True, help="full-mechanism JSON file")
    q.add_argument("--space", default=None,
                   help="database space JSON (optional when embedded)")
    q.add_argument("--out", help="write mechanism JSON here instead of stdout")
    q.set_defaults(func=_cmd_obliviate)

    p = sub.add_parser("compare-laplace",
                       help="closed-form two-point loss of geometric vs "
                            "Laplace noise")
    p.add_argument("--alphas", required=True,
                   help="comma-separated privacy levels, one table row each")
    p.add_argument("--csv", help="write the loss table as CSV here")
    add_precision(p)
    p.set_defaults(func=_cmd_compare_laplace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, StructuralError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
