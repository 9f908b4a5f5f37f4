"""Independent oracles the tests check library results against.

Everything here recomputes values from definitions by a different route
than the library takes: symbolic infinite sums instead of closed forms,
exhaustive enumeration instead of simplex pivoting, product-space search
instead of per-class maxima. Slower and dumber on purpose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import sympy

from privopt.core import (
    Mechanism,
    Number,
    PrivacyLevel,
    Remap,
    StochasticityReport,
    StructuralError,
    UserModel,
    compose,
    expected_loss,
    format_rational,
    hp_context,
)
from privopt.mechanisms import truncated_geometric
from privopt.nonoblivious import FullMechanism
from privopt.simplex import GE, LE


class CapacityError(RuntimeError):
    """An exhaustive search was asked to enumerate too large a space."""


def sym_noise_pmf(alpha, z):
    return (1 - alpha) / (1 + alpha) * alpha ** sympy.Abs(z)


def sym_tail(alpha: Fraction, k: int) -> Fraction:
    """Pr[Z >= k] by symbolic summation of the noise pmf."""
    a = sympy.Rational(alpha.numerator, alpha.denominator)
    z = sympy.symbols("z", integer=True, nonnegative=True)
    s = sympy.summation(sym_noise_pmf(a, z + k), (z, 0, sympy.oo))
    return Fraction(int(sympy.numer(s)), int(sympy.denom(s)))


def clamped_geometric_rows(alpha: Fraction, n: int):
    """Rows of the clamp-to-[0,n] geometric mechanism, entry by entry:
    interior responses take the pmf directly, the ends absorb a tail."""
    rows = []
    pmf = lambda z: (1 - alpha) / (1 + alpha) * alpha ** abs(z)
    for i in range(n + 1):
        row = []
        for r in range(n + 1):
            if r == 0:
                # P(i + Z <= 0) = P(Z >= i) by symmetry of the pmf
                v = pmf(0) + sym_tail(alpha, 1) if i == 0 else sym_tail(alpha, i)
            elif r == n:
                v = pmf(0) + sym_tail(alpha, 1) if i == n else sym_tail(alpha, n - i)
            else:
                v = pmf(r - i)
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def _solve_unique(a_rows, rhs):
    """Exact Gaussian elimination; returns the solution vector when the
    system has exactly one, else None."""
    m = [list(row) + [b] for row, b in zip(a_rows, rhs)]
    rows, cols = len(m), len(a_rows[0])
    rank = 0
    where = [-1] * cols
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        where[c] = rank
        rank += 1
    if any(w == -1 for w in where):
        return None  # underdetermined
    for r in range(rank, rows):
        if m[r][cols] != 0:
            return None  # inconsistent
    return [m[where[c]][cols] for c in range(cols)]


def lp_vertices(num_vars: int, constraints) -> set[tuple[Fraction, ...]]:
    """Every vertex of {x >= 0 : constraints}: each choice of num_vars
    hyperplanes among the constraint rows and the bounds x_j = 0 that
    meets in one point, kept when that point satisfies every constraint.
    Empty exactly when the region is empty, since x >= 0 has no lines."""
    planes = [(con.coeffs, con.rhs) for con in constraints]
    for j in range(num_vars):
        unit = [Fraction(0)] * num_vars
        unit[j] = Fraction(1)
        planes.append((unit, Fraction(0)))

    def holds(con, x):
        lhs = sum((c * v for c, v in zip(con.coeffs, x)), Fraction(0))
        return (lhs <= con.rhs if con.relation == LE else
                lhs >= con.rhs if con.relation == GE else lhs == con.rhs)

    found = set()
    for pick in itertools.combinations(planes, num_vars):
        x = _solve_unique([p[0] for p in pick], [p[1] for p in pick])
        if x is not None and min(x) >= 0 and all(holds(con, x)
                                                 for con in constraints):
            found.add(tuple(x))
    return found


def enumerate_vertices(a: PrivacyLevel, n: int) -> list[Mechanism]:
    """Every vertex of the feasible polytope, by exhausting per-column
    tightness patterns.

    At a feasible point a response column is either identically zero or
    strictly positive (a zero next to a positive entry breaks the ratio
    bound), so a vertex is pinned by choosing, per column, either Z or a
    word over {D, U, S} recording which adjacent pairs sit on which side
    of the ratio band. Runs between S letters share one free scalar; the
    unit row sums must then determine every scalar uniquely.
    """
    alpha = a.alpha
    words = list(itertools.product("DUS", repeat=n))
    options = [None] + words  # None is the all-zero column
    found = {}
    for combo in itertools.product(options, repeat=n + 1):
        total_runs = sum(w.count("S") + 1 for w in combo if w is not None)
        if total_runs == 0 or total_runs > n + 1:
            continue
        # weight of entry i within its run, and which scalar owns it
        owner = [[-1] * (n + 1) for _ in range(n + 1)]  # [col][row]
        weight = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        scalars = 0
        for c, w in enumerate(combo):
            if w is None:
                continue
            owner[c][0] = scalars
            weight[c][0] = Fraction(1)
            for i in range(n):
                if w[i] == "S":
                    scalars += 1
                    owner[c][i + 1] = scalars
                    weight[c][i + 1] = Fraction(1)
                else:
                    owner[c][i + 1] = owner[c][i]
                    weight[c][i + 1] = (weight[c][i] * alpha if w[i] == "D"
                                        else weight[c][i] / alpha)
            scalars += 1
        a_rows = []
        for i in range(n + 1):
            row = [Fraction(0)] * scalars
            for c in range(n + 1):
                if owner[c][i] >= 0:
                    row[owner[c][i]] += weight[c][i]
            a_rows.append(row)
        sol = _solve_unique(a_rows, [Fraction(1)] * (n + 1))
        if sol is None or any(s <= 0 for s in sol):
            continue
        rows = tuple(
            tuple(weight[c][i] * sol[owner[c][i]] if owner[c][i] >= 0
                  else Fraction(0) for c in range(n + 1))
            for i in range(n + 1))
        # S pairs must actually respect the ratio band
        ok = True
        for c, w in enumerate(combo):
            if w is None:
                continue
            for i in range(n):
                if w[i] == "S":
                    hi, lo = rows[i][c], rows[i + 1][c]
                    if alpha * lo > hi or alpha * hi > lo:
                        ok = False
        if ok and rows not in found:
            found[rows] = Mechanism(n=n, responses=tuple(range(n + 1)),
                                    rows=rows)
    return list(found.values())


def definitional_loss(m: Mechanism, u: UserModel, digits: int = 64):
    """Plain double sum of p_i x[i][r] l(i, r), evaluated with sympy for
    power losses so the arithmetic route differs from the library's."""
    if u.loss.is_exact:
        total = Fraction(0)
        for i, row in enumerate(m.rows):
            for k, r in enumerate(m.responses):
                total += u.prior[i] * row[k] * u.loss.exact_value(i, r)
        return total
    e = u.loss.exponent
    exp = sympy.Rational(e.numerator, e.denominator)
    total = sympy.Integer(0)
    for i, row in enumerate(m.rows):
        p = sympy.Rational(u.prior[i].numerator, u.prior[i].denominator)
        if p == 0:
            continue
        for k, r in enumerate(m.responses):
            if row[k]:
                x = sympy.Rational(row[k].numerator, row[k].denominator)
                total += p * x * sympy.Integer(abs(i - r)) ** exp
    return Decimal(str(total.evalf(digits + 10)))


def agree(a, b, tol=Fraction(1, 10 ** 30)) -> bool:
    """Exact equality for two Fractions, |a - b| <= tol otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(Fraction(str(a)) - Fraction(str(b))) <= tol


def exhaustive_remap_loss(x: Mechanism, u: UserModel, digits: int = 64):
    """Minimum loss over every deterministic reinterpretation of x's
    responses, each candidate scored by the definitional double sum."""
    n = x.n
    best = None
    for mapping in itertools.product(range(n + 1), repeat=len(x.responses)):
        if u.loss.is_exact:
            total = Fraction(0)
            for i, row in enumerate(x.rows):
                for k in range(len(x.responses)):
                    total += u.prior[i] * row[k] * u.loss.exact_value(i, mapping[k])
        else:
            ctx = hp_context(digits)
            total = Decimal(0)
            for i, row in enumerate(x.rows):
                if u.prior[i] == 0:
                    continue
                for k in range(len(x.responses)):
                    if row[k]:
                        w = Fraction(u.prior[i] * row[k])
                        term = ctx.multiply(
                            ctx.divide(Decimal(w.numerator), Decimal(w.denominator)),
                            u.loss.hp_value(i, mapping[k], ctx))
                        total = ctx.add(total, term)
        if best is None or total < best:
            best = total
    return best


def neighbor_pairs(space) -> tuple[tuple[int, int], ...]:
    """Index pairs j1 < j2 of databases differing in exactly one row,
    found by comparing every pair of databases row by row."""
    dbs = space.databases
    return tuple((j1, j2)
                 for j1 in range(len(dbs)) for j2 in range(j1 + 1, len(dbs))
                 if sum(a != b for a, b in zip(dbs[j1], dbs[j2])) == 1)


def adversarial_worst_loss(x, u: UserModel, space, digits: int = 64):
    """Worst-case loss by searching every way of loading each result's
    prior mass onto a single database of that class."""
    classes = space.classes()
    ctx = None if u.loss.is_exact else hp_context(digits)

    def row_loss(j, ctx):
        i = space.result(space.databases[j])
        row = x.rows[j]
        if ctx is None:
            return sum((row[k] * u.loss.exact_value(i, r)
                        for k, r in enumerate(x.responses)), Fraction(0))
        acc = Decimal(0)
        for k, r in enumerate(x.responses):
            if row[k]:
                q = Fraction(row[k])
                acc = ctx.add(acc, ctx.multiply(
                    ctx.divide(Decimal(q.numerator), Decimal(q.denominator)),
                    u.loss.hp_value(i, r, ctx)))
        return acc

    best = None
    for picks in itertools.product(*classes):
        if ctx is None:
            total = sum((u.prior[i] * row_loss(j, None)
                         for i, j in enumerate(picks)), Fraction(0))
        else:
            total = Decimal(0)
            for i, j in enumerate(picks):
                p = u.prior[i]
                if p == 0:
                    continue
                total = ctx.add(total, ctx.multiply(
                    ctx.divide(Decimal(p.numerator), Decimal(p.denominator)),
                    row_loss(j, ctx)))
        if best is None or total > best:
            best = total
    return best


def fraction_row_stochastic(m: Mechanism) -> StochasticityReport:
    """check_row_stochastic by Fraction comparisons and Fraction row sums."""
    problems = []
    for i, row in enumerate(m.rows):
        for k, v in enumerate(row):
            if v < 0 or v > 1:
                problems.append(f"entry ({i},{m.responses[k]}) = "
                                f"{format_rational(v)} outside [0, 1]")
        total = sum(row)
        if total != 1:
            problems.append(f"row {i} sums to {format_rational(total)}")
    return StochasticityReport(ok=not problems, problems=tuple(problems))


def fraction_dp_witness(m: Mechanism, alpha: Fraction):
    """check_differential_privacy's witness by Fraction comparisons."""
    for k, r in enumerate(m.responses):
        col = m.column(k)
        for i in range(m.n):
            hi, lo = col[i], col[i + 1]
            if alpha * lo > hi or alpha * hi > lo:
                return (i, r)
    return None


def fraction_full_dp_witness(x: FullMechanism, alpha: Fraction):
    """check_full_differential_privacy's witness by Fraction comparisons."""
    for j1, j2 in x.space.neighbor_pairs():
        for k, r in enumerate(x.responses):
            p, q = x.rows[j1][k], x.rows[j2][k]
            if alpha * p > q or alpha * q > p:
                return (x.space.label(j1), x.space.label(j2), r)
    return None


def fraction_dp_full_mechanism(rng, space, a: PrivacyLevel,
                               max_tries: int = 200) -> FullMechanism:
    """random_dp_full_mechanism computed cell by cell in Fractions: each
    base cell times its jiggle factor, each row divided by its sum."""
    n = space.rows
    g = truncated_geometric(a, n)
    uniform = Fraction(1, n + 1)
    base = [tuple(Fraction(3, 4) * v + Fraction(1, 4) * uniform for v in row)
            for row in g.rows]
    eps = Fraction(1, 64)
    for _ in range(max_tries):
        rows = []
        for d in space.databases:
            src = base[space.result(d)]
            jig = [v * (1 + eps * Fraction(rng.randint(-8, 8), 8))
                   for v in src]
            total = sum(jig)
            rows.append(tuple(v / total for v in jig))
        cand = FullMechanism(space=space, responses=g.responses,
                             rows=tuple(rows))
        if fraction_full_dp_witness(cand, a.alpha) is None:
            return cand
        eps /= 2
    raise RuntimeError("could not sample a private mechanism")


@dataclass(frozen=True)
class Posterior:
    """Per-response posteriors p(i | r); None marks unreachable responses
    (zero marginal probability under the user's prior)."""

    responses: tuple[int, ...]
    marginals: tuple[Fraction, ...]
    by_response: tuple[tuple[Fraction, ...] | None, ...]


def posterior(x: Mechanism, u: UserModel) -> Posterior:
    """Exact posterior over results for each response of x under u."""
    if len(u.prior) != x.n + 1:
        raise StructuralError(
            f"prior covers {len(u.prior)} results, mechanism has {x.n + 1}"
        )
    marginals = []
    dists = []
    for k in range(len(x.responses)):
        col = x.column(k)
        weights = tuple(p * c for p, c in zip(u.prior, col))
        total = sum(weights)
        marginals.append(total)
        if total == 0:
            dists.append(None)
        else:
            dists.append(tuple(w / total for w in weights))
    return Posterior(responses=x.responses, marginals=tuple(marginals),
                     by_response=tuple(dists))


def brute_force_optimal_remap(x: Mechanism, u: UserModel,
                              digits: int | None = None,
                              limit: int = 10 ** 7) -> tuple[Remap, Number]:
    """Exhaustive search over all deterministic remaps into 0..n.

    Returns a loss-minimizing remap and its loss. Guarded: (n+1)^|R|
    candidates beyond `limit` raise CapacityError instead of burning the
    machine. Intended as an oracle for small instances.
    """
    n = x.n
    k = len(x.responses)
    count = (n + 1) ** k
    if count > limit:
        raise CapacityError(
            f"{count} candidate remaps exceed the enumeration limit {limit}"
        )
    ctx = None if u.loss.is_exact else hp_context(digits)
    # cost[j][t] = sum_i p_i x[i][j] l(i, t): what answering t on
    # response j adds to the loss
    cost = []
    for j in range(k):
        weights = [(i, p * row[j])
                   for i, (p, row) in enumerate(zip(u.prior, x.rows))]
        if ctx is None:
            cost.append([sum((w * u.loss.exact_value(i, t)
                              for i, w in weights), Fraction(0))
                         for t in range(n + 1)])
            continue
        col = []
        for t in range(n + 1):
            total = Decimal(0)
            for i, w in weights:
                if w:
                    total = ctx.add(total, ctx.multiply(
                        ctx.divide(Decimal(w.numerator), Decimal(w.denominator)),
                        u.loss.hp_value(i, t, ctx)))
            col.append(total)
        cost.append(col)
    best_map = None
    best_total = None
    for candidate in itertools.product(range(n + 1), repeat=k):
        if ctx is None:
            total = sum((cost[j][t] for j, t in enumerate(candidate)),
                        Fraction(0))
        else:
            total = Decimal(0)
            for j, t in enumerate(candidate):
                total = ctx.add(total, cost[j][t])
        if best_total is None or total < best_total:
            best_total = total
            best_map = candidate
    remap = Remap(x.responses, tuple(range(n + 1)), best_map)
    # recompute through the composition so the reported loss is the
    # plain definition, not the table shortcut
    return remap, expected_loss(compose(remap, x), u, digits)


def tight_rank(m: Mechanism, a: PrivacyLevel) -> int:
    """Rank of the LP constraint rows m holds with equality at a concrete
    privacy level, read off the matrix: zero entries, row sums, and each
    adjacent pair (not both zero) on either privacy ratio bound."""
    n = m.n
    alpha = a.alpha
    width = (n + 1) ** 2

    def row(*entries):
        v = [Fraction(0)] * width
        for i, r, c in entries:
            v[i * (n + 1) + r] = c
        return v

    rows = [row((i, r, Fraction(1)))
            for i in range(n + 1) for r in range(n + 1) if m.rows[i][r] == 0]
    rows += [row(*((i, r, Fraction(1)) for r in range(n + 1)))
             for i in range(n + 1)]
    for r in range(n + 1):
        col = m.column(r)
        for i in range(n):
            if col[i] == 0 and col[i + 1] == 0:
                continue
            if col[i] == alpha * col[i + 1]:
                rows.append(row((i, r, Fraction(1)), (i + 1, r, -alpha)))
            if alpha * col[i] == col[i + 1]:
                rows.append(row((i, r, alpha), (i + 1, r, Fraction(-1))))
    return _rank(rows)


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    col = 0
    while col < width and rank < len(rows):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank
