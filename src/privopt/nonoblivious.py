"""Mechanisms indexed by the database itself rather than the query result.

Two results live here. First, the averaging argument: replacing each
row of a database-indexed mechanism by the average over its equivalence
class (same query result) preserves privacy and cannot increase the
worst-case expected loss, so obliviousness costs nothing for users with
priors over results. Second, the negative result for users with priors
over databases: two concrete such users whose individually optimal
mechanisms cannot be implemented simultaneously by any single private
mechanism, certified by an exact LP infeasibility witness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DPReport,
    LossTable,
    Mechanism,
    Number,
    PrivacyLevel,
    StochasticityReport,
    StructuralError,
    UserModel,
    _as_fraction,
    _first_ratio_violation,
)
from .mechanisms import truncated_geometric
from .simplex import EQ, LE, Constraint, SimplexResult, solve_lp, verify_farkas


@dataclass(frozen=True)
class DatabaseSpace:
    """All |domain|^rows databases for a count query.

    The query counts rows whose value satisfies the predicate given by
    `positive`. The predicate must be non-trivial: some domain value
    satisfies it and some does not, which keeps every result class
    non-empty.
    """

    domain: tuple
    rows: int
    positive: frozenset
    databases: tuple[tuple, ...]

    def __init__(self, domain, rows: int, positive):
        domain = tuple(domain)
        positive = frozenset(positive)
        if rows < 1:
            raise StructuralError("need at least one database row")
        if len(set(domain)) != len(domain) or not domain:
            raise StructuralError("domain must be a non-empty set of values")
        if not positive or not positive.issubset(set(domain)):
            raise StructuralError("predicate must hold for some domain value")
        if positive == set(domain):
            raise StructuralError("predicate must fail for some domain value")
        dbs = tuple(itertools.product(domain, repeat=rows))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "databases", dbs)

    def result(self, d: tuple) -> int:
        return sum(1 for v in d if v in self.positive)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Database indices grouped by query result, results 0..n."""
        groups = [[] for _ in range(self.rows + 1)]
        for j, d in enumerate(self.databases):
            groups[self.result(d)].append(j)
        return tuple(tuple(g) for g in groups)

    def neighbor_pairs(self) -> tuple[tuple[int, int], ...]:
        """Index pairs j1 < j2 of databases differing in exactly one row,
        in ascending order. Databases are enumerated in product order, so
        row p is digit rows-1-p of the index in base |domain|; raising
        that digit by k moves the index up by k * |domain|^(rows-1-p)."""
        size = len(self.domain)
        out = []
        for j in range(len(self.databases)):
            stride = 1
            for _ in range(self.rows):
                digit = j // stride % size
                out.extend((j, j + k * stride) for k in range(1, size - digit))
                stride *= size
        return tuple(out)

    def label(self, j: int) -> str:
        """Set notation over 1-indexed rows holding a positive value."""
        d = self.databases[j]
        members = [str(i + 1) for i, v in enumerate(d) if v in self.positive]
        return "{" + ",".join(members) + "}"


def binary_space(rows: int) -> DatabaseSpace:
    """Databases over {0,1} with the query counting ones."""
    return DatabaseSpace(domain=(0, 1), rows=rows, positive=(1,))


@dataclass(frozen=True)
class FullMechanism:
    """Row per database. Shape is validated here; stochasticity and
    privacy have their own checkers so ill-formed inputs can be
    diagnosed rather than rejected on sight."""

    space: DatabaseSpace
    responses: tuple
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, space: DatabaseSpace, responses, rows):
        responses = tuple(responses)
        if not responses:
            raise StructuralError("need at least one response")
        if len(rows) != len(space.databases):
            raise StructuralError(
                f"expected {len(space.databases)} rows, got {len(rows)}")
        conv = []
        for row in rows:
            if len(row) != len(responses):
                raise StructuralError("row width does not match responses")
            conv.append(tuple(_as_fraction(v) for v in row))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "rows", tuple(conv))


def check_full_row_stochastic(x: FullMechanism) -> StochasticityReport:
    problems = []
    for j, row in enumerate(x.rows):
        lbl = x.space.label(j)
        neg = [k for k, v in enumerate(row) if v < 0]
        if neg:
            problems.append(f"row {lbl} has negative entries at {neg}")
        if sum(row) != 1:
            problems.append(f"row {lbl} sums to {sum(row)}")
    return StochasticityReport(ok=not problems, problems=tuple(problems))


def _first_private_violation(space: DatabaseSpace, alpha: Fraction,
                             ints) -> tuple[int, int, int] | None:
    """First (j1, j2, k) at which neighbours j1 < j2 break the ratio
    bound in response column k, scanning neighbour pairs in order and
    responses within each; ints[j] is row j as (numerator, positive
    denominator) pairs."""
    for j1, j2 in space.neighbor_pairs():
        k = _first_ratio_violation(alpha, ints[j1], ints[j2])
        if k is not None:
            return j1, j2, k
    return None


def check_full_differential_privacy(x: FullMechanism,
                                    a: PrivacyLevel) -> DPReport:
    ints = [[(v.numerator, v.denominator) for v in row] for row in x.rows]
    hit = _first_private_violation(x.space, a.alpha, ints)
    if hit is None:
        return DPReport(ok=True, witness=None)
    j1, j2, k = hit
    return DPReport(ok=False, witness=(x.space.label(j1), x.space.label(j2),
                                       x.responses[k]))


def lift(m: Mechanism, space: DatabaseSpace) -> FullMechanism:
    """Re-index a result-indexed mechanism by database."""
    if m.n != space.rows:
        raise StructuralError(f"mechanism has n={m.n}, space has "
                              f"n={space.rows}")
    rows = tuple(m.rows[space.result(d)] for d in space.databases)
    return FullMechanism(space=space, responses=m.responses, rows=rows)


def obliviate(x: FullMechanism) -> Mechanism:
    """Average each row over its equivalence class of databases.

    The result depends on the database only through the query result, so
    it is an ordinary result-indexed mechanism. Privacy at any alpha the
    input satisfies is preserved (each class pair's cross constraints sum
    with equal multiplicity), and the worst-case expected loss cannot
    increase; both facts are checked property-style in the test suite
    rather than asserted here.
    """
    space = x.space
    check_full_row_stochastic(x).require()
    rows = []
    for members in space.classes():
        width = len(x.responses)
        avg = tuple(
            sum(x.rows[j][k] for j in members) / len(members)
            for k in range(width))
        rows.append(avg)
    return Mechanism(n=space.rows, responses=x.responses, rows=tuple(rows))


def worst_case_expected_loss(x: FullMechanism, u: UserModel,
                             digits: int | None = None) -> Number:
    """Maximum expected loss over database priors that induce u's prior
    on results: within each result class, all of that result's weight
    goes to the database with the largest conditional loss."""
    space = x.space
    if u.n != space.rows:
        raise StructuralError(f"user has n={u.n}, space has n={space.rows}")
    table = LossTable(u.loss, digits)

    def row_loss(j, i):
        row = x.rows[j]
        return table.weighted_sum((row[k], table(i, r))
                                  for k, r in enumerate(x.responses) if row[k])

    return table.weighted_sum(
        (u.prior[i], max(row_loss(j, i) for j in members))
        for i, members in enumerate(space.classes()) if u.prior[i])


_TRACKED = ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))

_X1 = {
    (1, 0, 0): (Fraction(11, 12), Fraction(1, 12)),
    (0, 1, 0): (Fraction(2, 3), Fraction(1, 3)),
    (1, 0, 1): (Fraction(5, 6), Fraction(1, 6)),
    (0, 1, 1): (Fraction(1, 3), Fraction(2, 3)),
}

# Second user's target: first user's with database rows 1 and 2 swapped.
_X2 = {
    (1, 0, 0): _X1[(0, 1, 0)],
    (0, 1, 0): _X1[(1, 0, 0)],
    (1, 0, 1): _X1[(0, 1, 1)],
    (0, 1, 1): _X1[(1, 0, 1)],
}

COUNTEREXAMPLE_RESPONSES = ("l", "m", "n", "o")

# Deterministic reinterpretations: which of the four joint responses
# each user reads as their response 1 (the rest they read as 2).
_Y1_TO_ONE = ("l", "n")
_Y2_TO_ONE = ("l", "o")


def build_counterexample_lp(alpha: Fraction = Fraction(1, 2)):
    """Feasibility LP for a single mechanism serving both database-prior
    users at once.

    Variables: one per (database, response) over the 8 databases of
    {0,1}^3 and responses l, m, n, o. Constraints: row-stochasticity
    everywhere, the privacy ratio across every neighbor pair, and
    equalities forcing each user's deterministic reinterpretation of the
    joint mechanism to equal that user's own optimal mechanism on the
    four databases those mechanisms pin down. The four unpinned
    databases stay free.

    Returns (num_vars, constraints, labels, space).
    """
    space = binary_space(3)
    dbs = space.databases
    width = len(COUNTEREXAMPLE_RESPONSES)
    nv = len(dbs) * width
    dindex = {d: j for j, d in enumerate(dbs)}
    rindex = {r: k for k, r in enumerate(COUNTEREXAMPLE_RESPONSES)}

    def var(d: tuple, r: str) -> int:
        return dindex[d] * width + rindex[r]

    constraints: list[Constraint] = []
    labels: list[str] = []

    def add(terms, relation, rhs, label):
        """One row from (variable, coefficient) terms."""
        coeffs = [Fraction(0)] * nv
        for v, c in terms:
            coeffs[v] = c
        constraints.append(Constraint(coeffs, relation, rhs))
        labels.append(label)

    for j, d in enumerate(dbs):
        add([(var(d, r), 1) for r in COUNTEREXAMPLE_RESPONSES], EQ, 1,
            f"stochastic {space.label(j)}")

    for j1, j2 in space.neighbor_pairs():
        for r in COUNTEREXAMPLE_RESPONSES:
            for lo, hi in ((j1, j2), (j2, j1)):
                add([(var(dbs[lo], r), alpha), (var(dbs[hi], r), -1)], LE, 0,
                    f"privacy {space.label(lo)}~{space.label(hi)} "
                    f"response {r}")

    for name, to_one, target in (("user1", _Y1_TO_ONE, _X1),
                                 ("user2", _Y2_TO_ONE, _X2)):
        to_two = tuple(r for r in COUNTEREXAMPLE_RESPONSES if r not in to_one)
        for d in _TRACKED:
            for group, col in ((to_one, 0), (to_two, 1)):
                add([(var(d, r), 1) for r in group], EQ, target[d][col],
                    f"remap {name} {space.label(dindex[d])} -> {col + 1}")

    return nv, constraints, labels, space


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Outcome of the simultaneous-implementation feasibility check."""

    alpha: Fraction
    infeasible: bool
    verified: bool
    labels: tuple[str, ...]
    detail: str
    result: SimplexResult

    @property
    def multipliers(self) -> tuple[Fraction, ...] | None:
        return self.result.farkas

    @property
    def num_variables(self) -> int:
        return self.result.num_vars

    @property
    def num_constraints(self) -> int:
        return len(self.labels)

    def nonzero_multipliers(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((label, lam) for label, lam
                     in zip(self.labels, self.multipliers or ()) if lam)


def check_counterexample_infeasibility(
        alpha: Fraction = Fraction(1, 2)) -> InfeasibilityCertificate:
    """Decide feasibility of the two-user instance and, when infeasible,
    verify the solver's dual witness with exact rational arithmetic: the
    witness combination of the constraints has no positive coefficient
    yet a strictly positive right-hand side, so no mechanism exists.
    """
    nv, constraints, labels, _ = build_counterexample_lp(alpha)
    res = solve_lp(nv, constraints, [Fraction(0)] * nv)
    infeasible = res.status == "infeasible"
    if infeasible:
        verified, why = verify_farkas(nv, constraints, res.farkas)
        detail = ("no mechanism satisfies both users' requirements: "
                  if verified else
                  "solver reported infeasible but the witness failed: ") + why
    else:
        verified = False
        detail = "a mechanism satisfying every constraint exists"
    return InfeasibilityCertificate(
        alpha=alpha, infeasible=infeasible, verified=verified,
        labels=tuple(labels), detail=detail, result=res)


_JIGGLE_DENOMINATOR = 64


def random_dp_full_mechanism(rng: random.Random, space: DatabaseSpace,
                             a: PrivacyLevel,
                             max_tries: int = 200) -> FullMechanism:
    """Seeded random database-indexed mechanism that is exactly alpha-DP.

    Start from the truncated geometric mechanism lifted to databases,
    mix a quarter of the uniform row in so every privacy ratio is
    strictly interior, jiggle each cell by a small random factor,
    renormalize, and keep the result only if the exact privacy check
    passes. The jiggle makes rows within a class differ, so the samples
    are non-oblivious with overwhelming probability. The jiggle size
    halves after each failed attempt, so termination is guaranteed.
    """
    n = space.rows
    g = truncated_geometric(a, n)
    uniform = Fraction(1, n + 1)
    # base row i as integers over one denominator
    base = []
    for row in g.rows:
        mixed = [Fraction(3, 4) * v + Fraction(1, 4) * uniform for v in row]
        lcm = math.lcm(*(v.denominator for v in mixed))
        base.append([v.numerator * (lcm // v.denominator) for v in mixed])
    # with jiggle size 1/scale, cell k of a row is multiplied by
    # 1 + r_k / (8 scale), so the row is proportional to b_k (8 scale + r_k)
    scale = _JIGGLE_DENOMINATOR
    for _ in range(max_tries):
        ints = []
        for d in space.databases:
            weights = [b * (8 * scale + rng.randint(-8, 8))
                       for b in base[space.result(d)]]
            total = sum(weights)
            ints.append([(w, total) for w in weights])
        if _first_private_violation(space, a.alpha, ints) is None:
            return FullMechanism(
                space=space, responses=g.responses,
                rows=tuple(tuple(Fraction(w, total) for w, total in row)
                           for row in ints))
        scale *= 2
    raise RuntimeError("could not sample a private mechanism; "
                       "alpha may be too extreme")
