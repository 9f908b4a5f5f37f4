"""The per-user optimal mechanism as an exact linear program.

Variables are the (n+1)^2 mechanism entries x[i][r]. Constraints: the
2n(n+1) two-sided privacy ratio inequalities between adjacent results,
n+1 unit row sums, and nonnegativity. The solver works in a reduced space
with response column n substituted away: there every right-hand side is
nonnegative, the all-mass-on-column-n mechanism is the slack-basis
vertex, and the simplex needs no feasibility phase.

Irrational objectives (fractional-exponent power losses) are rationalized
at the requested precision; the feasible region, and with it the vertex
set, stays exact. The exact simplex proves the returned vertex optimal
for the LP it solved, which for such losses is the rationalized
objective; nothing checks the vertex against the true irrational loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LossTable,
    Mechanism,
    Number,
    PrivacyLevel,
    StructuralError,
    UserModel,
    _expected_loss,
)
from .simplex import LE, Constraint, solve_lp


@dataclass(frozen=True)
class UserLP:
    """min sum_i p_i sum_r x[i][r] l(i,r) over alpha-private row-stochastic
    x, as data. Objective coefficients are exact for rational losses and
    high-precision rationalizations otherwise."""

    user: UserModel
    level: PrivacyLevel
    objective: tuple[tuple[Fraction, ...], ...]  # [i][r], rationalized
    table: LossTable  # the loss values behind objective, reused by the solve

    def value(self, m: Mechanism) -> Fraction:
        """The LP objective at m, a mechanism over responses 0..n:
        sum objective[i][r] * x[i][r], exact."""
        return sum((self.objective[i][r] * v
                    for i, row in enumerate(m.rows)
                    for r, v in zip(m.responses, row) if v), Fraction(0))


DOWN = "v"   # alpha * x[i][r] = x[i+1][r]
UP = "^"     # x[i][r] = alpha * x[i+1][r]
SLACK = "S"  # strictly between the privacy bounds
ZERO = "Z"   # both entries zero


@dataclass(frozen=True)
class ConstraintMatrix:
    """n x (n+1) grid classifying each vertical pair of each column by the
    privacy constraint it holds with equality: the mechanism's tight
    constraints. The n+1 row sums are always tight and are not listed; a
    zero entry of a private mechanism zeroes its whole column, which then
    reads Z throughout."""

    n: int
    responses: tuple[int, ...]
    grid: tuple[tuple[str, ...], ...]

    def column(self, k: int) -> tuple[str, ...]:
        return tuple(row[k] for row in self.grid)


@dataclass(frozen=True)
class VertexSolution:
    """An optimal vertex of a UserLP, with its certificate trail."""

    mechanism: Mechanism
    objective: Number          # true expected loss of the vertex
    lp_objective: Fraction     # value under the (possibly rationalized) LP
    tight: ConstraintMatrix
    alternate_optima: int      # optimal-face directions leaving the vertex
    pivots: int
    # the exact simplex ended optimal on the LP objective (for irrational
    # losses, the rationalized one); True for every returned vertex
    certified: bool


def build_lp(u: UserModel, a: PrivacyLevel,
             digits: int | None = None) -> UserLP:
    """Assemble the user's LP over results 0..u.n; rationalizes irrational
    loss values at the requested precision."""
    n = u.n
    if n < 1:
        raise StructuralError("need at least two results (n >= 1)")
    table = LossTable(u.loss, digits)
    objective = tuple(tuple(u.prior[i] * table.rational(i, r)
                            for r in range(n + 1))
                      for i in range(n + 1))
    return UserLP(user=u, level=a, objective=objective, table=table)


def _reduced_constraints(n: int, alpha: Fraction):
    """Constraints over y[i][r] = x[i][r] for r < n, var index i*n + r.

    Substituting x[i][n] = 1 - sum_r y[i][r] turns every row into <= with
    nonnegative right-hand side, so y = 0 (all mass on response n) is a
    feasible slack basis.
    """
    nv = n * (n + 1)
    cons = []

    def add(terms, rhs):
        """One <= row from (i, r, coefficient) terms."""
        row = [Fraction(0)] * nv
        for i, r, c in terms:
            row[i * n + r] = c
        cons.append(Constraint(tuple(row), LE, rhs))

    for r in range(n):
        for i in range(n):
            add([(i, r, -1), (i + 1, r, alpha)], 0)
            add([(i, r, alpha), (i + 1, r, -1)], 0)
    gap = 1 - alpha
    for i in range(n):
        add([(i, r, 1) for r in range(n)]
            + [(i + 1, r, -alpha) for r in range(n)], gap)
        add([(i, r, -alpha) for r in range(n)]
            + [(i + 1, r, 1) for r in range(n)], gap)
    for i in range(n + 1):
        add([(i, r, 1) for r in range(n)], 1)
    return nv, cons


def tight_set(m: Mechanism, a: PrivacyLevel) -> ConstraintMatrix:
    """Active privacy constraints of m, classified exactly from the matrix.
    Feasibility is not checked; an infeasible pair that fits no class
    reads S."""
    alpha = a.alpha
    grid = []
    for i in range(m.n):
        row = []
        for k in range(len(m.responses)):
            hi = m.rows[i][k]
            lo = m.rows[i + 1][k]
            if hi == 0 and lo == 0:
                row.append(ZERO)
            elif alpha * hi == lo:
                row.append(DOWN)
            elif hi == alpha * lo:
                row.append(UP)
            else:
                row.append(SLACK)
        grid.append(tuple(row))
    return ConstraintMatrix(n=m.n, responses=m.responses, grid=tuple(grid))


def solve_vertex(lp: UserLP) -> VertexSolution:
    """Solve the LP exactly; returns an optimal vertex.

    Ties between optimal vertices are broken lexicographically: among the
    vertices minimizing the user's loss, the solver returns one that also
    minimizes the loss of a uniform-prior absolute-loss user. Users with
    zero prior entries or non-strictly-monotone losses (binary loss, say)
    leave whole faces of the polytope optimal, and some vertices on those
    faces are structural dead ends: they cannot be written as a remap of
    the canonical geometric mechanism. The secondary objective has full
    support and strictly increasing per-row losses, so the vertex it picks
    is the limit of the optima of nearby non-degenerate users, and those
    are always remaps.

    Every loss kind takes the same exact path. The vertex is optimal for
    the LP objective: its final reduced costs are all >= 0, and the
    nonbasic columns whose reduced cost is exactly zero are its alternate
    optima. For irrational losses that objective is the rationalized
    loss table, so a low precision can move the vertex off the true
    optimum unnoticed.
    """
    n = lp.user.n
    alpha = lp.level.alpha
    nv, cons = _reduced_constraints(n, alpha)

    # objective over y picks up -c[i][n] from the substitution
    obj = [Fraction(0)] * nv
    for i in range(n + 1):
        for r in range(n):
            obj[i * n + r] = lp.objective[i][r] - lp.objective[i][n]
    # secondary objective: uniform-prior absolute loss, same substitution
    # (the 1/(n+1) prior factor and the constant sum_i |i-n| drop out)
    tb = [Fraction(0)] * nv
    for i in range(n + 1):
        for r in range(n):
            tb[i * n + r] = Fraction(abs(i - r) - abs(i - n))
    res = solve_lp(nv, cons, obj, tiebreak=tb)
    if res.status != "optimal":
        raise RuntimeError(f"user LP came back {res.status}; it is always "
                           "feasible and bounded, so this is a solver bug")

    rows = []
    for i in range(n + 1):
        row = list(res.x[i * n: (i + 1) * n])
        row.append(1 - sum(row))
        rows.append(tuple(row))
    mech = Mechanism(n=n, responses=tuple(range(n + 1)), rows=tuple(rows))

    value = _expected_loss(mech, lp.user, lp.table)
    ts = tight_set(mech, lp.level)
    alternates = len(res.alternate_optimum_columns())
    return VertexSolution(mechanism=mech, objective=value,
                          lp_objective=lp.value(mech), tight=ts,
                          alternate_optima=alternates, pivots=res.pivots,
                          certified=True)


def optimal_mechanism_for_user(u: UserModel, a: PrivacyLevel,
                               digits: int | None = None) -> VertexSolution:
    """Convenience: build and solve the user's LP in one step."""
    return solve_vertex(build_lp(u, a, digits=digits))
