"""Exact rational simplex over integer tableaus.

Solves min c.x subject to rational linear constraints and x >= 0 entirely
in exact arithmetic. The tableau is kept as integers with one shared
positive denominator and updated by fraction-free (Edmonds-style)
pivoting: pivoting on element p sends entry a to (p*a - f*b) / den, every
division exact, and p becomes the new shared denominator. This avoids
per-entry gcd work and keeps entries the size of minors of the input.

Pivot selection is Dantzig's rule for speed, switching permanently to
Bland's rule after a long run of degenerate pivots, which guarantees
termination. Infeasibility comes with a rational Farkas certificate that
is re-verified against the original constraints before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

LE = "<="
GE = ">="
EQ = "=="

_DEGENERATE_STREAK_LIMIT = 40
_PIVOT_LIMIT = 200_000


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", _frac(self.rhs))


class _Core:
    __slots__ = ("rows", "rhs", "den", "basis", "width", "total",
                 "cost_rows", "cost_rhs", "art_cols")

    def __init__(self, rows, rhs, basis, width, total):
        self.rows = rows
        self.rhs = rhs
        self.den = 1
        self.basis = basis
        self.width = width      # structural + slack columns
        self.total = total      # plus artificials
        self.cost_rows = []
        self.cost_rhs = []
        self.art_cols = set(range(width, total))


def _pivot(core: _Core, pr: int, pc: int):
    """Fraction-free pivot; requires core.rows[pr][pc] > 0."""
    rows, rhs, den = core.rows, core.rhs, core.den
    prow, prhs = rows[pr], rhs[pr]
    piv = prow[pc]
    for i in range(len(rows)):
        if i == pr:
            continue
        row = rows[i]
        f = row[pc]
        if f:
            rows[i] = [(piv * a - f * b) // den for a, b in zip(row, prow)]
            rhs[i] = (piv * rhs[i] - f * prhs) // den
        elif piv != den:
            rows[i] = [piv * a // den for a in row]
            rhs[i] = piv * rhs[i] // den
    for k in range(len(core.cost_rows)):
        cost = core.cost_rows[k]
        f = cost[pc]
        if f:
            core.cost_rows[k] = [(piv * a - f * b) // den
                                 for a, b in zip(cost, prow)]
            core.cost_rhs[k] = (piv * core.cost_rhs[k] - f * prhs) // den
        elif piv != den:
            core.cost_rows[k] = [piv * a // den for a in cost]
            core.cost_rhs[k] = piv * core.cost_rhs[k] // den
    core.den = piv
    core.basis[pr] = pc


def _run(core: _Core, cost_index: int,
         restrict: frozenset[int] | None = None) -> tuple[str, int]:
    """Pivot until the chosen cost row is optimal. Artificial columns never
    enter: once driven out they are not needed again, and when the phase-1
    optimum is positive the restricted dual still certifies infeasibility.
    With restrict, only those columns may enter: pivoting on a column whose
    reduced cost is zero in another cost row leaves that row unchanged up
    to positive scale, so restricting to such columns walks a face on
    which the other objective stays optimal.
    """
    cost_row = core.cost_rows[cost_index]
    bland = False
    streak = 0
    pivots = 0
    while True:
        pc = None
        if bland:
            for j in range(core.width):
                if restrict is not None and j not in restrict:
                    continue
                if cost_row[j] < 0:
                    pc = j
                    break
        else:
            best = 0
            for j in range(core.width):
                if restrict is not None and j not in restrict:
                    continue
                cj = cost_row[j]
                if cj < best:
                    best, pc = cj, j
        if pc is None:
            return "optimal", pivots
        pr = None
        best_num = best_den = None
        for i, row in enumerate(core.rows):
            a = row[pc]
            if a > 0:
                b = core.rhs[i]
                if pr is None or b * best_den < best_num * a or (
                        b * best_den == best_num * a
                        and core.basis[i] < core.basis[pr]):
                    best_num, best_den, pr = b, a, i
        if pr is None:
            return "unbounded", pivots
        degenerate = core.rhs[pr] == 0
        _pivot(core, pr, pc)
        cost_row = core.cost_rows[cost_index]
        pivots += 1
        if pivots > _PIVOT_LIMIT:
            raise RuntimeError("pivot limit exceeded")
        if degenerate:
            streak += 1
            if streak > _DEGENERATE_STREAK_LIMIT:
                bland = True
        else:
            streak = 0


class SimplexResult:
    """Solve outcome plus read-only access to the final tableau.

    For optimal results x is a basic feasible solution, i.e. a vertex of
    the feasible region. For infeasible ones farkas holds one multiplier
    per original constraint certifying emptiness (see verify_farkas).
    """

    def __init__(self, status: str, num_vars: int, *, x=None, objective=None,
                 farkas=None, pivots=0, core=None):
        self.status = status
        self.num_vars = num_vars
        self.x = x
        self.objective = objective
        self.farkas = farkas
        self.pivots = pivots
        self._core = core

    @property
    def basis(self) -> tuple[int, ...]:
        return tuple(self._core.basis)

    @property
    def width(self) -> int:
        """Structural plus slack columns of the tableau."""
        return self._core.width

    def tableau_column(self, j: int) -> tuple[Fraction, ...]:
        """Column j of B^-1 A over the constraint rows, exact."""
        core = self._core
        return tuple(Fraction(row[j], core.den) for row in core.rows)

    def basic_values(self) -> tuple[Fraction, ...]:
        core = self._core
        return tuple(Fraction(b, core.den) for b in core.rhs)

    def alternate_optimum_columns(self) -> tuple[int, ...]:
        """Nonbasic non-artificial columns with zero reduced cost: the
        optimal face extends beyond the returned vertex along these."""
        core = self._core
        basic = set(core.basis)
        cost = core.cost_rows[0]
        return tuple(j for j in range(core.width)
                     if j not in basic and cost[j] == 0)


def solve_lp(num_vars: int, constraints: Sequence[Constraint],
             objective: Sequence[Fraction], *,
             tiebreak: Sequence[Fraction] | None = None) -> SimplexResult:
    """Solve min objective.x subject to constraints and x >= 0.

    With tiebreak, after the objective is optimal the solve continues
    inside the optimal face, minimizing tiebreak.x there (lexicographic
    optimization), and returns a vertex optimal for the objective and,
    among those, for the tiebreak. If the face is unbounded along the
    tiebreak the last vertex reached is returned.
    """
    obj = [_frac(c) for c in objective]
    if len(obj) != num_vars:
        raise ValueError("objective width does not match num_vars")

    # normalize every row to integers a.x (+ slack) = b with b >= 0;
    # scales[i] is the signed rational multiplier from original to
    # normalized row, used to translate phase-1 duals back
    m = len(constraints)
    int_rows, int_rhs, scales, slack_signs = [], [], [], []
    for con in constraints:
        if len(con.coeffs) != num_vars:
            raise ValueError("constraint width does not match num_vars")
        coeffs, b, rel = list(con.coeffs), con.rhs, con.relation
        scale = Fraction(1)
        if rel == GE:
            coeffs = [-c for c in coeffs]
            b = -b
            scale = -scale
            rel = LE
        mult = lcm(*(c.denominator for c in coeffs), b.denominator)
        ints = [c.numerator * (mult // c.denominator) for c in coeffs]
        bi = int(b * mult)
        scale *= mult
        slack = 1 if rel == LE else 0
        if bi < 0:
            ints = [-v for v in ints]
            bi = -bi
            scale = -scale
            slack = -slack
        int_rows.append(ints)
        int_rhs.append(bi)
        scales.append(scale)
        slack_signs.append(slack)

    slack_col = {}
    j = num_vars
    for i, s in enumerate(slack_signs):
        if s:
            slack_col[i] = j
            j += 1
    width = j
    art_col = {}
    for i in range(m):
        if slack_signs[i] != 1:
            art_col[i] = j
            j += 1
    total = j

    rows = []
    basis = []
    for i in range(m):
        row = int_rows[i] + [0] * (total - num_vars)
        if i in slack_col:
            row[slack_col[i]] = slack_signs[i]
        if i in art_col:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        rows.append(row)
    core = _Core(rows, list(int_rhs), basis, width, total)

    obj_scale = lcm(*(c.denominator for c in obj)) if obj else 1
    cost2 = [c.numerator * (obj_scale // c.denominator) for c in obj]
    cost2 += [0] * (total - num_vars)

    extra_costs = []
    if tiebreak is not None:
        tb = [_frac(c) for c in tiebreak]
        if len(tb) != num_vars:
            raise ValueError("tiebreak width does not match num_vars")
        tb_scale = lcm(*(c.denominator for c in tb)) if tb else 1
        cost3 = [c.numerator * (tb_scale // c.denominator) for c in tb]
        cost3 += [0] * (total - num_vars)
        extra_costs.append(cost3)

    core.cost_rows = [cost2] + extra_costs
    core.cost_rhs = [0] * (1 + len(extra_costs))

    pivots = 0
    if art_col:
        # phase 1: minimize the artificial total; its cost row starts
        # reduced against the artificial part of the initial basis
        cost1 = [0] * total
        cost1_rhs = 0
        for i in art_col:
            cost1 = [a - b for a, b in zip(cost1, rows[i])]
            cost1_rhs -= int_rhs[i]
        for i, c in art_col.items():
            cost1[c] = 0
        core.cost_rows.insert(0, cost1)
        core.cost_rhs.insert(0, cost1_rhs)
        status, p = _run(core, 0)
        pivots += p
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        infeasibility = sum(
            (Fraction(core.rhs[i], core.den)
             for i in range(m) if core.basis[i] in core.art_cols),
            Fraction(0))
        if infeasibility > 0:
            lam = []
            for i in range(m):
                if i in art_col:
                    col, c1 = art_col[i], Fraction(1)
                    coeff = Fraction(1)
                else:
                    col, c1 = slack_col[i], Fraction(0)
                    coeff = Fraction(slack_signs[i])
                reduced = Fraction(core.cost_rows[0][col], core.den)
                y_i = (c1 - reduced) / coeff
                lam.append(y_i * scales[i])
            lam = tuple(lam)
            ok, why = verify_farkas(num_vars, constraints, lam)
            if not ok:
                raise RuntimeError(f"internal error: bad Farkas certificate: {why}")
            return SimplexResult("infeasible", num_vars, farkas=lam,
                                 pivots=pivots, core=core)
        _drive_out_artificials(core)
        core.cost_rows = core.cost_rows[1:]
        core.cost_rhs = core.cost_rhs[1:]

    status, p = _run(core, 0)
    pivots += p
    if status == "unbounded":
        return SimplexResult("unbounded", num_vars, pivots=pivots, core=core)

    if extra_costs:
        # walk the optimal face: columns with nonzero primary reduced cost
        # stay out of the basis, so the primary value cannot move
        face = frozenset(j for j in range(core.width)
                         if core.cost_rows[0][j] == 0)
        status, p = _run(core, 1, restrict=face)
        pivots += p

    x = [Fraction(0)] * num_vars
    for i, b in enumerate(core.basis):
        if b < num_vars:
            x[b] = Fraction(core.rhs[i], core.den)
    value = sum((c * v for c, v in zip(obj, x)), Fraction(0))
    return SimplexResult("optimal", num_vars, x=tuple(x), objective=value,
                         pivots=pivots, core=core)


def _drive_out_artificials(core: _Core):
    """After a zero-cost phase 1, pivot basic artificials onto structural
    or slack columns. A row with no eligible pivot is redundant; it stays
    behind as an all-zero row that no later step can select."""
    for i in range(len(core.rows)):
        if core.basis[i] not in core.art_cols:
            continue
        target = None
        for j in range(core.width):
            if core.rows[i][j] != 0:
                target = j
                break
        if target is None:
            continue
        if core.rows[i][target] < 0:
            # the row's value is zero, so flipping its sign is sound and
            # makes the pivot element positive as _pivot requires
            core.rows[i] = [-v for v in core.rows[i]]
            core.rhs[i] = -core.rhs[i]
        _pivot(core, i, target)
    # artificials are dead from here on; blank them so no later phase can
    # see them and so redundant rows become fully zero
    for row in core.rows:
        for j in core.art_cols:
            row[j] = 0
    for cost in core.cost_rows:
        for j in core.art_cols:
            cost[j] = 0


def verify_farkas(num_vars: int, constraints: Sequence[Constraint],
                  lam: Sequence[Fraction]) -> tuple[bool, str]:
    """Exact re-verification of an infeasibility certificate.

    Requires lam_i <= 0 on <= rows, lam_i >= 0 on >= rows (free on
    equalities), every component of sum_i lam_i * coeffs_i nonpositive,
    and sum_i lam_i * rhs_i > 0. Any feasible x >= 0 would then give
    0 < sum lam_i rhs_i <= (sum lam_i coeffs_i).x <= 0, a contradiction.
    """
    if len(lam) != len(constraints):
        return False, "multiplier count mismatch"
    for i, (con, l) in enumerate(zip(constraints, lam)):
        if con.relation == LE and l > 0:
            return False, f"multiplier {i} must be <= 0 on a <= row"
        if con.relation == GE and l < 0:
            return False, f"multiplier {i} must be >= 0 on a >= row"
    combined = [Fraction(0)] * num_vars
    for con, l in zip(constraints, lam):
        if l == 0:
            continue
        for j, c in enumerate(con.coeffs):
            if c:
                combined[j] += l * c
    for j, g in enumerate(combined):
        if g > 0:
            return False, f"combined coefficient {j} is positive"
    total = sum((l * con.rhs for con, l in zip(constraints, lam)), Fraction(0))
    if total <= 0:
        return False, "combined right-hand side is not positive"
    return True, "certificate verified"
