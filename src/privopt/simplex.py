"""Exact rational simplex over integer tableaus.

Solves min c.x subject to rational linear constraints and x >= 0 entirely
in exact arithmetic. The tableau is one list of integer rows, the
constraint rows and then the cost rows, each with its own positive
denominator. A row is sparse: a dict from column to its nonzero entry,
the right-hand side under the key -1, and no zero ever stored, so a
missing key reads 0. The privacy LPs this package solves tie two entries
per constraint, and their tableaus stay almost all zeros. Pivots are
fraction-free (Edmonds-style): pivoting on element p sends entry a of a
row with f in the pivot column to (p*a - f*b) / d, d that row's
denominator, every division exact, and p becomes its new denominator.
Only the columns where the pivot row b is nonzero need that formula;
every other entry becomes p*a / d. Rows with a zero in the pivot column
are not touched. This avoids per-entry gcd work and keeps entries the
size of minors of the input.

Each constraint becomes its row in one pass over its nonzero
coefficients. The columns are the structurals, then one slack per
inequality in row order, then one artificial per row that has no +1
slack, also in row order; every artificial sits at or beyond the
tableau's width.

Pivot selection is Dantzig's rule for speed, switching permanently to
Bland's rule after a long run of degenerate pivots, which guarantees
termination. Infeasibility comes with a rational Farkas certificate,
read off the starting basis: each row's starting basic column is a unit
column, so its phase-1 dual is that column's cost minus its reduced
cost. The certificate is returned unchecked; verify_farkas checks it
against the original constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

LE = "<="
GE = ">="
EQ = "=="

_RHS = -1   # key of a row's right-hand side, read as tableau column -1
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


def _integer_cost_row(cost: list[Fraction]) -> dict[int, int]:
    """cost scaled by the lcm of its denominators, as a tableau row: zero
    on the slack and artificial columns and on the right-hand side."""
    scale = lcm(*(c.denominator for c in cost))
    return {j: c.numerator * (scale // c.denominator)
            for j, c in enumerate(cost) if c}


class _Core:
    """One list of sparse integer rows: the constraint rows, then the cost
    rows, each mapping column to nonzero entry, with the right-hand side
    under _RHS. Row i stands for rows[i] / dens[i]; den is the last pivot
    element. Columns from width on are artificials."""

    __slots__ = ("rows", "dens", "den", "basis", "width")

    def __init__(self, rows, basis, width):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.den = 1
        self.basis = basis
        self.width = width      # structural + slack columns


def _pivot(core: _Core, pr: int, pc: int):
    """Fraction-free pivot; requires core.rows[pr][pc] > 0.

    The pivot row is first brought to the scale of the last pivot, den:
    every entry of the tableau at that scale is an integer minor of the
    input (Bareiss), so the division is exact. A row with f != 0 in the
    pivot column then becomes (piv*a - f*b) / dens[i], exact for the same
    reason, at the new denominator piv. Off the pivot row's nonzeros b is
    0, so that is piv*a / dens[i], nonzero wherever a is; on them the
    entry is stored only when it does not cancel. Every other row keeps
    its entries and its own denominator; pivoting on a row at a stale
    denominator would not be exact.
    """
    rows, dens, den = core.rows, core.dens, core.den
    prow = rows[pr]
    if dens[pr] != den:
        d = dens[pr]
        prow = {j: b * den // d for j, b in prow.items()}
        rows[pr] = prow
    piv = prow[pc]
    for i, row in enumerate(rows):
        f = row.get(pc)
        if f and i != pr:
            d = dens[i]
            new = {j: piv * a // d for j, a in row.items() if j not in prow}
            for j, b in prow.items():
                v = (piv * row.get(j, 0) - f * b) // d
                if v:
                    new[j] = v
            rows[i] = new
            dens[i] = piv
    dens[pr] = piv
    core.den = piv
    core.basis[pr] = pc


def _run(core: _Core, cost_index: int,
         restrict: set[int] | None = None) -> tuple[str, int]:
    """Pivot until the cost row at cost_index is optimal. Artificial
    columns never enter: once driven out they are not needed again, and
    when the phase-1 optimum is positive the restricted dual still
    certifies infeasibility. With restrict, a set of columns, only those
    columns may enter: pivoting on a column whose reduced cost is zero in
    another cost row leaves that row unchanged up to positive scale, so
    restricting to such columns walks a face on which the other objective
    stays optimal. Pricing compares entries of one row and the ratio test
    ratios within rows, so neither depends on a row's denominator.
    """
    cols = range(core.width) if restrict is None else restrict
    m = len(core.basis)
    bland = False
    streak = 0
    pivots = 0
    while True:
        # Dantzig's most negative reduced cost, or Bland's first negative,
        # ties to the lowest column as in an ascending scan
        negative = [(v, j) for j, v in core.rows[cost_index].items()
                    if v < 0 and j in cols]
        if not negative:
            return "optimal", pivots
        if bland:
            pc = min(j for _, j in negative)
        else:
            pc = min(negative)[1]
        pr = None
        best_num = best_den = None
        for i in range(m):
            row = core.rows[i]
            a = row.get(pc, 0)
            if a > 0:
                b = row.get(_RHS, 0)
                if pr is None or b * best_den < best_num * a or (
                        b * best_den == best_num * a
                        and core.basis[i] < core.basis[pr]):
                    best_num, best_den, pr = b, a, i
        if pr is None:
            return "unbounded", pivots
        degenerate = best_num == 0
        _pivot(core, pr, pc)
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
    the feasible region. For infeasible ones farkas holds one unchecked
    multiplier per original constraint; verify_farkas checks them.
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
        """Column j of B^-1 A over the constraint rows, exact; column -1
        is B^-1 b."""
        core = self._core
        return tuple(Fraction(core.rows[i].get(j, 0), core.dens[i])
                     for i in range(len(core.basis)))

    def basic_values(self) -> tuple[Fraction, ...]:
        return self.tableau_column(_RHS)

    def alternate_optimum_columns(self) -> tuple[int, ...]:
        """Nonbasic non-artificial columns with zero reduced cost: the
        optimal face extends beyond the returned vertex along these."""
        core = self._core
        basic = set(core.basis)
        cost = core.rows[len(core.basis)]
        return tuple(j for j in range(core.width)
                     if j not in basic and j not in cost)


def solve_lp(num_vars: int, constraints: Sequence[Constraint],
             objective: Sequence[Fraction], *,
             tiebreak: Sequence[Fraction] | None = None) -> SimplexResult:
    """Solve min objective.x subject to constraints and x >= 0.

    With tiebreak, after the objective is optimal the solve continues
    inside the optimal face, minimizing tiebreak.x there (lexicographic
    optimization), and returns a vertex optimal for the objective and,
    among those, for the tiebreak. If the face is unbounded along the
    tiebreak the last vertex reached is returned. An infeasible result's
    farkas multipliers are unchecked: check them with verify_farkas.
    """
    obj = [_frac(c) for c in objective]
    costs = [obj]
    if tiebreak is not None:
        costs.append([_frac(c) for c in tiebreak])
    for name, cost in zip(("objective", "tiebreak"), costs):
        if len(cost) != num_vars:
            raise ValueError(f"{name} width does not match num_vars")

    # each constraint becomes one sparse integer row a.x (+ slack) = b
    # with b >= 0, scaled by the lcm of its denominators and negated for
    # >= rows and negative right-hand sides; scales[i] is that signed
    # multiplier, used to translate phase-1 duals back. Columns: the
    # structurals, one slack per inequality in row order, then one
    # artificial per row without a +1 slack, also in row order
    m = len(constraints)
    rows, scales, basis = [], [], []
    width = num_vars
    for con in constraints:
        if len(con.coeffs) != num_vars:
            raise ValueError("constraint width does not match num_vars")
        nonzero = [(j, c) for j, c in enumerate(con.coeffs) if c]
        sign = -1 if con.relation == GE else 1
        slack = 0 if con.relation == EQ else 1
        if con.rhs * sign < 0:
            sign, slack = -sign, -slack
        scale = sign * lcm(*(c.denominator for _, c in nonzero),
                           con.rhs.denominator)
        row = {j: c.numerator * (scale // c.denominator) for j, c in nonzero}
        if con.rhs:
            row[_RHS] = con.rhs.numerator * (scale // con.rhs.denominator)
        if slack:
            row[width] = slack
            width += 1
        rows.append(row)
        scales.append(scale)
        basis.append(width - 1 if slack == 1 else None)
    artificials = [i for i, b in enumerate(basis) if b is None]
    for j, i in enumerate(artificials, width):
        rows[i][j] = 1
        basis[i] = j
    start = tuple(basis)
    rows += [_integer_cost_row(cost) for cost in costs]
    core = _Core(rows, basis, width)

    pivots = 0
    if artificials:
        # phase 1: minimize the artificial total in a cost row at index m;
        # it starts reduced against the artificial part of the basis
        cost1 = {}
        for i in artificials:
            for j, v in rows[i].items():
                cost1[j] = cost1.get(j, 0) - v
        rows.insert(m, {j: v for j, v in cost1.items() if v and j < width})
        core.dens.insert(m, 1)
        status, p = _run(core, m)
        pivots += p
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        infeasibility = sum(
            (Fraction(rows[i].get(_RHS, 0), core.dens[i])
             for i in range(m) if core.basis[i] >= width),
            Fraction(0))
        if infeasibility > 0:
            # row i's starting basic column is a unit column with +1 in
            # row i, so the normalized row's dual is that column's phase-1
            # cost minus its phase-1 reduced cost; the row's scale takes
            # it back to the original row
            lam = tuple(
                (int(b >= width) - Fraction(rows[m].get(b, 0), core.dens[m]))
                * scale for b, scale in zip(start, scales))
            return SimplexResult("infeasible", num_vars, farkas=lam,
                                 pivots=pivots, core=core)
        del rows[m], core.dens[m]
        _drive_out_artificials(core)

    status, p = _run(core, m)
    pivots += p
    if status == "unbounded":
        return SimplexResult("unbounded", num_vars, pivots=pivots, core=core)

    if tiebreak is not None:
        # walk the optimal face: columns with nonzero primary reduced cost
        # stay out of the basis, so the primary value cannot move
        face = {j for j in range(width) if j not in rows[m]}
        status, p = _run(core, m + 1, restrict=face)
        pivots += p

    x = [Fraction(0)] * num_vars
    for i, b in enumerate(core.basis):
        if b < num_vars:
            x[b] = Fraction(rows[i].get(_RHS, 0), core.dens[i])
    value = sum((c * v for c, v in zip(obj, x)), Fraction(0))
    return SimplexResult("optimal", num_vars, x=tuple(x), objective=value,
                         pivots=pivots, core=core)


def _drive_out_artificials(core: _Core):
    """After a zero-cost phase 1, pivot basic artificials onto structural
    or slack columns. A row with no eligible pivot is redundant; it stays
    behind as an empty row that no later step can select."""
    rows, width = core.rows, core.width
    for i in range(len(core.basis)):
        if core.basis[i] < width:
            continue
        target = min((j for j in rows[i] if 0 <= j < width), default=None)
        if target is None:
            continue
        if rows[i][target] < 0:
            # the row's value is zero, so flipping its sign is sound and
            # makes the pivot element positive as _pivot requires
            rows[i] = {j: -v for j, v in rows[i].items()}
        _pivot(core, i, target)
    # artificials are dead from here on; drop them so no later phase can
    # see them and so redundant rows become empty
    for k, row in enumerate(rows):
        rows[k] = {j: v for j, v in row.items() if j < width}


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
