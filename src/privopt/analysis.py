"""Structure of optimal vertices and the machine checks built on it.

Every mechanism that is simultaneously a vertex of the user LP and
optimal for some user has a rigid shape: classify each adjacent-result
pair in each response column as Z (both entries zero), v (lower entry
alpha-times the upper), ^ (upper entry alpha-times the lower) or S
(strictly between), as optlp.tight_set does, and the grid decomposes
into a block structure that is exactly a deterministic remap of the
truncated geometric mechanism.
validate_vertex_structure checks the combinatorial claims one by one;
derive_remap_from_constraint_matrix inverts the structure back into the
remap; verify_factorization and verify_uniqueness turn the two optimality
statements into executable checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    Remap,
    StructuralError,
    UserModel,
    check_differential_privacy,
    check_row_stochastic,
    compose,
    expected_loss,
)
from .mechanisms import truncated_geometric
from .optlp import (
    DOWN,
    SLACK,
    UP,
    ZERO,
    ConstraintMatrix,
    VertexSolution,
    build_lp,
    solve_vertex,
    tight_set,
)
from .remap import optimal_remap

LEGEND = ("v: alpha*x[i] = x[i+1]   ^: x[i] = alpha*x[i+1]   "
          "S: strictly between   Z: both zero")


@dataclass(frozen=True)
class SlackAccounting:
    """Bookkeeping over a constraint matrix: z zero columns, per-column
    slack counts s_i for the non-Z columns in order, and their running
    totals S_i."""

    zero_columns: int
    nonzero_column_indices: tuple[int, ...]
    slack_per_column: tuple[int, ...]
    slack_prefix: tuple[int, ...]

    @property
    def total_slack(self) -> int:
        return self.slack_prefix[-1] if self.slack_prefix else 0


@dataclass(frozen=True)
class CheckOutcome:
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class StructureReport:
    """The structural checks of one grid, with the grid they ran on."""

    grid: ConstraintMatrix
    checks: dict[str, CheckOutcome]
    accounting: SlackAccounting

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, c in self.checks.items() if not c.ok)


def _require_feasible(m: Mechanism, a: PrivacyLevel, what: str = "") -> None:
    """Raise StructuralError unless m is row-stochastic and alpha-private;
    what prefixes the message ("candidate is ")."""
    check_row_stochastic(m).require(what)
    dp = check_differential_privacy(m, a)
    if not dp.ok:
        raise StructuralError(f"{what}not private at alpha={a.alpha}: "
                              f"witness {dp.witness}")


def constraint_matrix(m: Mechanism, a: PrivacyLevel) -> ConstraintMatrix:
    """Classify m's adjacent-result pairs. m must be a feasible mechanism;
    infeasible input has pairs that fit no class and is rejected."""
    _require_feasible(m, a)
    return tight_set(m, a)


def render_constraint_matrix(c: ConstraintMatrix) -> str:
    """Text grid with response labels and the symbol legend."""
    header = "      " + " ".join(f"r={r}" for r in c.responses)
    lines = [header]
    for i, row in enumerate(c.grid):
        cells = " ".join(f"  {s} " for s in row)
        lines.append(f"i={i}  {cells}".rstrip())
    lines.append(LEGEND)
    return "\n".join(lines)


def slack_accounting(c: ConstraintMatrix) -> SlackAccounting:
    """Count zero columns and slack cells; mixed columns (Z together with
    anything else) are impossible for feasible input and rejected."""
    zero_cols = []
    nonzero = []
    for k in range(len(c.responses)):
        col = c.column(k)
        kinds = set(col)
        if ZERO in kinds:
            if kinds != {ZERO} and c.n > 0:
                raise StructuralError(f"column {c.responses[k]} mixes Z with "
                                      "nonzero entries; input is not feasible")
            zero_cols.append(k)
        else:
            nonzero.append(k)
    per = tuple(sum(1 for s in c.column(k) if s == SLACK) for k in nonzero)
    prefix = []
    run = 0
    for s in per:
        run += s
        prefix.append(run)
    return SlackAccounting(zero_columns=len(zero_cols),
                           nonzero_column_indices=tuple(nonzero),
                           slack_per_column=per,
                           slack_prefix=tuple(prefix))


def validate_vertex_structure(c: ConstraintMatrix) -> StructureReport:
    """Run the structural checks an optimal vertex must pass.

    Checks, with witnesses on failure:
      no_uniform_row          no row is all-v or all-^ over non-Z columns
      row_shape               each row reads v* S? ^* over non-Z columns
      down_growth             row i+1 has one more v than row i, or at
                              least as many if row i+1 contains an S
      slack_geq_zero_columns  total S count >= number of Z columns
      slack_eq_zero_columns   they are equal
      column_shape            the j-th non-Z column is ^ in the first
                              j + S_{j-1} rows, then its s_j S cells,
                              then v to the bottom

    The report carries the grid and its slack accounting.
    """
    acc = slack_accounting(c)
    checks: dict[str, CheckOutcome] = {}
    nz = acc.nonzero_column_indices

    bad = None
    for i, row in enumerate(c.grid):
        seen = [row[k] for k in nz]
        if seen and (all(s == DOWN for s in seen) or all(s == UP for s in seen)):
            bad = (i,)
            break
    checks["no_uniform_row"] = CheckOutcome(bad is None, bad)

    bad = None
    for i, row in enumerate(c.grid):
        state = 0  # 0: in v prefix, 1: saw the S, 2: in ^ suffix
        for k in nz:
            s = row[k]
            if s == DOWN:
                if state != 0:
                    bad = (i, c.responses[k])
                    break
            elif s == SLACK:
                if state != 0:
                    bad = (i, c.responses[k])
                    break
                state = 1
            else:
                state = 2
        if bad:
            break
    checks["row_shape"] = CheckOutcome(bad is None, bad)

    bad = None
    downs = [sum(1 for k in nz if row[k] == DOWN) for row in c.grid]
    slacks = [any(row[k] == SLACK for k in nz) for row in c.grid]
    for i in range(len(c.grid) - 1):
        need = downs[i] if slacks[i + 1] else downs[i] + 1
        if downs[i + 1] < need:
            bad = (i + 1,)
            break
    checks["down_growth"] = CheckOutcome(bad is None, bad)

    s_total = acc.total_slack
    z = acc.zero_columns
    checks["slack_geq_zero_columns"] = CheckOutcome(
        s_total >= z, None if s_total >= z else (s_total, z))
    checks["slack_eq_zero_columns"] = CheckOutcome(
        s_total == z, None if s_total == z else (s_total, z))

    bad = None
    for j, k in enumerate(nz):
        col = c.column(k)
        before = acc.slack_prefix[j - 1] if j > 0 else 0
        ups = j + before
        slack_here = acc.slack_per_column[j]
        expected = [UP] * ups + [SLACK] * slack_here
        expected += [DOWN] * (c.n - len(expected))
        if len(expected) != c.n or list(col) != expected:
            bad = (c.responses[k],)
            break
    checks["column_shape"] = CheckOutcome(bad is None, bad)

    return StructureReport(grid=c, checks=checks, accounting=acc)


def derive_remap_from_constraint_matrix(
        c: ConstraintMatrix | StructureReport) -> Remap:
    """Invert a validated constraint matrix into the deterministic remap
    whose action on the truncated geometric mechanism reproduces the
    vertex: the j-th non-Z column absorbs geometric responses
    j + S_{j-1} .. j + S_j. Takes a grid, which it validates, or the
    StructureReport of one already validated."""
    report = (c if isinstance(c, StructureReport)
              else validate_vertex_structure(c))
    if not report.ok:
        raise StructuralError(
            "constraint matrix fails structural validation: "
            + ", ".join(report.failures()))
    c = report.grid
    acc = report.accounting
    n = c.n
    mapping = [None] * (n + 1)
    for j, k in enumerate(acc.nonzero_column_indices):
        before = acc.slack_prefix[j - 1] if j > 0 else 0
        after = acc.slack_prefix[j]
        for src in range(j + before, j + after + 1):
            mapping[src] = c.responses[k]
    if any(t is None for t in mapping):
        raise StructuralError("derived remap does not cover every response")
    return Remap(tuple(range(n + 1)), c.responses, mapping)


@dataclass(frozen=True)
class FactorizationCheck:
    """One user's two routes to the optimum: the Bayes remap of the
    truncated geometric mechanism versus the exact LP vertex."""

    user: UserModel
    remap: Remap
    vertex: VertexSolution
    remap_loss: object
    losses_match: bool
    structure: StructureReport
    derived_remap: Remap | None
    reconstruction_ok: bool

    @property
    def ok(self) -> bool:
        return self.losses_match and self.structure.ok and self.reconstruction_ok


# No verdict here reads this; it stays for the benchmark's user_lp check.
LOSS_TOLERANCE = Fraction(1, 10 ** 30)


def verify_factorization(u: UserModel, a: PrivacyLevel,
                         digits: int | None = None) -> FactorizationCheck:
    """Check that remapping the truncated geometric mechanism is exactly
    optimal for u, and that the LP vertex is that remap in disguise.

    Both routes optimize one loss table, rationalized at digits when
    irrational, so the LP objective must take exactly the same value at
    the remapped geometric mechanism as at the vertex. The vertex must be
    feasible, the constraint matrix the solve returned with it must pass
    all structural checks, and the remap derived from that grid must
    reproduce the vertex bit for bit.
    """
    g = truncated_geometric(a, u.n)
    y = optimal_remap(g, u, digits)
    remapped = compose(y, g)
    loss = expected_loss(remapped, u, digits)
    lp = build_lp(u, a, digits)
    sol = solve_vertex(lp)
    losses_match = lp.value(remapped) == sol.lp_objective
    _require_feasible(sol.mechanism, a)
    structure = validate_vertex_structure(sol.tight)
    derived = None
    reconstruction_ok = False
    if structure.ok:
        derived = derive_remap_from_constraint_matrix(structure)
        reconstruction_ok = compose(derived, g).rows == sol.mechanism.rows
    return FactorizationCheck(user=u, remap=y, vertex=sol, remap_loss=loss,
                              losses_match=losses_match, structure=structure,
                              derived_remap=derived,
                              reconstruction_ok=reconstruction_ok)


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the relabeling test against the designated user
    (uniform prior, hit-or-miss loss)."""

    remap: Remap
    remap_is_permutation: bool
    induces_geometric: bool
    permutation: tuple[int, ...] | None

    @property
    def equivalent(self) -> bool:
        return self.remap_is_permutation and self.induces_geometric


def verify_uniqueness(a: PrivacyLevel, candidate: Mechanism) -> UniquenessReport:
    """Is candidate just the truncated geometric mechanism relabeled?

    The designated user (uniform prior, hit-or-miss loss) Bayes-remaps the
    candidate; the candidate passes only if that remap is a permutation of
    0..n and composing it with the candidate lands exactly on the
    truncated geometric mechanism over the candidate's own n. Candidates
    must be feasible with n+1 response columns.
    """
    n = candidate.n
    if len(candidate.responses) != n + 1:
        raise StructuralError("candidate must have a response column per result")
    _require_feasible(candidate, a, "candidate is ")
    designated = UserModel(
        prior=tuple(Fraction(1, n + 1) for _ in range(n + 1)),
        loss=LossFunction.binary())
    y = optimal_remap(candidate, designated)
    mapping = y.as_map()
    targets = [mapping[r] for r in candidate.responses]
    is_perm = sorted(targets) == list(range(n + 1))
    induced = compose(y, candidate)
    g = truncated_geometric(a, n)
    induces = induced.rows == g.rows
    return UniquenessReport(
        remap=y,
        remap_is_permutation=is_perm,
        induces_geometric=induces,
        permutation=tuple(targets) if is_perm else None)


_PRIOR_DENOMINATOR_BOUND = 64
_ZERO_PRIOR_RATE = 0.25
_POWER_EXPONENTS = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
_LOSS_KINDS = ("absolute", "squared", "binary", "power")


def random_user(rng: random.Random, n: int) -> UserModel:
    """Seeded random user: prior entries are rationals with denominator at
    most 64 before normalization, a quarter of them forced to zero so
    partial-support priors get exercised; the loss kind is uniform over
    the four families (power exponents from a small irrational-heavy set).
    """
    prior = []
    for _ in range(n + 1):
        if rng.random() < _ZERO_PRIOR_RATE:
            prior.append(Fraction(0))
        else:
            den = rng.randint(1, _PRIOR_DENOMINATOR_BOUND)
            num = rng.randint(1, _PRIOR_DENOMINATOR_BOUND)
            prior.append(Fraction(num, den))
    if not any(prior):
        prior[rng.randrange(n + 1)] = Fraction(1)
    total = sum(prior)
    prior = tuple(p / total for p in prior)
    kind = rng.choice(_LOSS_KINDS)
    if kind == "power":
        loss = LossFunction.power(rng.choice(_POWER_EXPONENTS))
    else:
        loss = LossFunction(kind)
    return UserModel(prior=prior, loss=loss)
