"""Core types for oblivious count-query mechanisms.

A mechanism over results 0..n is a row-stochastic matrix: row i is the
response distribution published when the true count is i. Everything here
is exact rational arithmetic (fractions.Fraction); loss values that are
irrational (fractional-exponent power losses) are realized as Decimals at
a configurable precision instead. LossTable is the one place that picks
between the two: every loss value in the package comes from it, and the
optimizers (the LP and the Bayes remap) read the same rationalized table.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

Number = Union[Fraction, Decimal]

DEFAULT_PRECISION = 64


class StructuralError(ValueError):
    """Shape or labeling of the inputs does not line up."""


def hp_context(digits: int | None = None) -> decimal.Context:
    """Decimal context used for all high-precision (non-rational) evaluation."""
    return decimal.Context(prec=digits if digits is not None else DEFAULT_PRECISION)


def to_decimal(q: Fraction, ctx: decimal.Context) -> Decimal:
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a plain integer/decimal string into an exact Fraction."""
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    """Lowest-terms 'p/q' string; plain 'p' when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return parse_rational(v)
    raise StructuralError(f"expected a rational value, got {type(v).__name__}")


@dataclass(frozen=True)
class PrivacyLevel:
    """Privacy parameter alpha, 0 < alpha < 1; larger alpha is more private.

    alpha = 0 (no privacy) and alpha = 1 (output independent of the data)
    are rejected: both collapse the optimization problems this package
    exists to solve.
    """

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        if not (0 < self.alpha < 1):
            raise StructuralError(
                f"degenerate privacy level alpha={self.alpha}; need 0 < alpha < 1"
            )


@dataclass(frozen=True)
class Mechanism:
    """Row-stochastic response matrix over results 0..n.

    rows[i][k] is the probability of emitting responses[k] on true result i.
    The constructor only enforces shape; use check_row_stochastic for the
    probabilistic validity of untrusted data.
    """

    n: int
    responses: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise StructuralError("n must be nonnegative")
        object.__setattr__(self, "responses", tuple(self.responses))
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n + 1:
            raise StructuralError(
                f"expected {self.n + 1} rows for n={self.n}, got {len(rows)}"
            )
        if len(set(self.responses)) != len(self.responses):
            raise StructuralError("duplicate response labels")
        for i, row in enumerate(rows):
            if len(row) != len(self.responses):
                raise StructuralError(
                    f"row {i} has {len(row)} entries for {len(self.responses)} responses"
                )

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(row[k] for row in self.rows)


@dataclass(frozen=True)
class Remap:
    """Deterministic post-processing map from source responses to targets.

    Source response sources[j] is republished as mapping[j], one of the
    targets. The Bayes-optimal remap is always of this form, and so is
    every remap that factors an optimal vertex through the geometric
    mechanism.
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.sources):
            raise StructuralError("one target per source response required")
        allowed = set(self.targets)
        for tgt in self.mapping:
            if tgt not in allowed:
                raise StructuralError(f"target {tgt} outside the target set")

    def as_map(self) -> dict[int, int]:
        return dict(zip(self.sources, self.mapping))


_LOSS_KINDS = ("absolute", "squared", "binary", "power", "tabulated")


@dataclass(frozen=True)
class LossFunction:
    """Loss l(i, r) >= 0, nondecreasing in |i - r| for each fixed i.

    Built-in kinds: absolute |i-r|, squared (i-r)^2, binary [i != r], and
    power |i-r|^p. Tabulated losses carry an explicit grid and are checked
    for monotonicity at construction. Power losses with a non-integer
    exponent are irrational; they evaluate through hp_value.
    """

    kind: str
    exponent: Fraction | None = None
    table: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in _LOSS_KINDS:
            raise StructuralError(f"unknown loss kind {self.kind!r}")
        if self.kind == "power":
            if self.exponent is None:
                raise StructuralError("power loss requires an exponent")
            object.__setattr__(self, "exponent", _as_fraction(self.exponent))
            if self.exponent <= 0:
                raise StructuralError("power loss exponent must be positive")
        elif self.kind == "tabulated":
            if self.table is None:
                raise StructuralError("tabulated loss requires a table")
            table = tuple(tuple(_as_fraction(v) for v in row) for row in self.table)
            object.__setattr__(self, "table", table)
            width = len(table[0]) if table else 0
            for i, row in enumerate(table):
                if len(row) != width:
                    raise StructuralError("loss table must be rectangular")
                by_dist: dict[int, Fraction] = {}
                for r, v in enumerate(row):
                    if v < 0:
                        raise StructuralError(f"loss table negative at ({i},{r})")
                    d = abs(i - r)
                    if d in by_dist and by_dist[d] != v:
                        raise StructuralError(
                            f"loss row {i} differs at equal distance {d}; "
                            "loss must be a function of |i-r|"
                        )
                    by_dist[d] = v
                dists = sorted(by_dist)
                for a, b in zip(dists, dists[1:]):
                    if by_dist[a] > by_dist[b]:
                        raise StructuralError(
                            f"loss row {i} decreases between distances {a} and {b}"
                        )
        elif self.exponent is not None or self.table is not None:
            raise StructuralError(f"{self.kind} loss takes no parameters")

    @staticmethod
    def absolute() -> "LossFunction":
        return LossFunction("absolute")

    @staticmethod
    def squared() -> "LossFunction":
        return LossFunction("squared")

    @staticmethod
    def binary() -> "LossFunction":
        return LossFunction("binary")

    @staticmethod
    def power(exponent) -> "LossFunction":
        return LossFunction("power", exponent=_as_fraction(exponent))

    @staticmethod
    def tabulated(table) -> "LossFunction":
        return LossFunction("tabulated", table=tuple(tuple(row) for row in table))

    @property
    def is_exact(self) -> bool:
        """True when every value l(i, r) is rational."""
        if self.kind == "power":
            return self.exponent.denominator == 1
        return True

    def exact_value(self, i: int, r: int) -> Fraction:
        if self.kind == "absolute":
            return Fraction(abs(i - r))
        if self.kind == "squared":
            return Fraction((i - r) ** 2)
        if self.kind == "binary":
            return Fraction(0 if i == r else 1)
        if self.kind == "tabulated":
            try:
                return self.table[i][r]
            except IndexError:
                raise StructuralError(f"loss table has no entry ({i},{r})") from None
        if self.kind == "power" and self.exponent.denominator == 1:
            return Fraction(abs(i - r) ** self.exponent.numerator)
        raise StructuralError(f"{self.kind} loss with exponent {self.exponent} "
                              "is irrational; use hp_value")

    def hp_value(self, i: int, r: int, ctx: decimal.Context) -> Decimal:
        """l(i, r) of an irrational power loss as a Decimal under ctx."""
        base = abs(i - r)
        p = self.exponent
        if base == 0:
            return Decimal(0)
        if base == 1:
            return Decimal(1)
        powered = Decimal(base ** p.numerator)
        if p.denominator == 2:
            # square roots are correctly rounded, unlike general powers
            return ctx.sqrt(powered)
        return ctx.power(powered, ctx.divide(Decimal(1), Decimal(p.denominator)))


class LossTable:
    """The values l(i, r) of one loss function, each evaluated once.

    Built-in kinds depend on |i - r| only and are cached per distance,
    tabulated losses per cell. Values are Fractions for rational losses
    and Decimals at `digits` (DEFAULT_PRECISION when None) otherwise.
    This class is the only code that picks between the two arithmetics.
    """

    def __init__(self, loss: LossFunction, digits: int | None = None):
        self.loss = loss
        self.exact = loss.is_exact
        self.ctx = hp_context(digits)
        self._per_cell = loss.kind == "tabulated"
        self._values: dict = {}
        self._rationals: dict = {}

    def __call__(self, i: int, r: int) -> Number:
        key = (i, r) if self._per_cell else abs(i - r)
        v = self._values.get(key)
        if v is None:
            v = (self.loss.exact_value(i, r) if self.exact
                 else self.loss.hp_value(i, r, self.ctx))
            self._values[key] = v
        return v

    def rational(self, i: int, r: int) -> Fraction:
        """l(i, r) as a Fraction: the value itself for rational losses, the
        exact value of its Decimal otherwise. This rationalized table is
        what the LP and the Bayes remap optimize."""
        if self.exact:
            return self(i, r)
        key = (i, r) if self._per_cell else abs(i - r)
        v = self._rationals.get(key)
        if v is None:
            v = self._rationals[key] = Fraction(self(i, r))
        return v

    def weighted_sum(self, pairs) -> Number:
        """Sum of w * v over (exact weight, value) pairs, in order.

        Exact for rational losses. Otherwise each weight is converted to
        a Decimal and every product and partial sum is rounded under ctx.
        Callers leave out zero weights, so that they look up no value for
        them and the Decimal rounding sequence stays the same.
        """
        if self.exact:
            return sum((w * v for w, v in pairs), Fraction(0))
        ctx = self.ctx
        total = Decimal(0)
        for w, v in pairs:
            total = ctx.add(total, ctx.multiply(to_decimal(w, ctx), v))
        return total


@dataclass(frozen=True)
class UserModel:
    """A user: exact rational prior over results plus a loss function."""

    prior: tuple[Fraction, ...]
    loss: LossFunction

    def __post_init__(self):
        prior = tuple(_as_fraction(v) for v in self.prior)
        object.__setattr__(self, "prior", prior)
        if not prior:
            raise StructuralError("prior must cover at least result 0")
        if any(p < 0 for p in prior):
            raise StructuralError("prior entries must be nonnegative")
        if sum(prior) != 1:
            raise StructuralError(f"prior sums to {sum(prior)}, not 1")

    @property
    def n(self) -> int:
        return len(self.prior) - 1


@dataclass(frozen=True)
class StochasticityReport:
    ok: bool
    problems: tuple[str, ...] = ()

    def require(self, what: str = "") -> None:
        """Raise StructuralError unless ok; what prefixes the message."""
        if not self.ok:
            raise StructuralError(f"{what}not row-stochastic: "
                                  + "; ".join(self.problems))


@dataclass(frozen=True)
class DPReport:
    ok: bool
    witness: tuple[int, int] | None = None  # (result i, response label)


def check_row_stochastic(m: Mechanism) -> StochasticityReport:
    """Exact check: entries in [0, 1] and every row sums to exactly 1.

    Decided on integers: an entry num/den lies in [0, 1] when
    0 <= num <= den, and a row sums to 1 when the numerators brought to
    the lcm L of its denominators sum to L.
    """
    problems = []
    for i, row in enumerate(m.rows):
        ints = [(v.numerator, v.denominator) for v in row]
        for k, (num, den) in enumerate(ints):
            if num < 0 or num > den:
                problems.append(f"entry ({i},{m.responses[k]}) = "
                                f"{format_rational(row[k])} outside [0, 1]")
        lcm = math.lcm(*(den for _, den in ints))
        if sum(num * (lcm // den) for num, den in ints) != lcm:
            problems.append(f"row {i} sums to {format_rational(sum(row))}")
    return StochasticityReport(ok=not problems, problems=tuple(problems))


def _first_ratio_violation(alpha: Fraction, xs, ys) -> int | None:
    """First index k at which alpha*x > y or alpha*y > x, for x = xs[k]
    and y = ys[k] given as (numerator, positive denominator) pairs; None
    when every pair is within ratio alpha. A shared zero passes.

    Decided by integer cross-multiplication, with no Fraction built.
    """
    a, b = alpha.numerator, alpha.denominator
    for k, ((xn, xd), (yn, yd)) in enumerate(zip(xs, ys)):
        xy, yx = xn * yd, yn * xd
        if a * xy > b * yx or a * yx > b * xy:
            return k
    return None


def check_differential_privacy(m: Mechanism, a: PrivacyLevel) -> DPReport:
    """Adjacent-result ratio test, exact.

    For every response column and every i < n the pair (x[i], x[i+1]) must
    satisfy alpha*x[i+1] <= x[i] and alpha*x[i] <= x[i+1]; a shared zero
    passes (the 0/0 ratio counts as 1). Returns the first violating
    (i, response) pair scanned column by column.
    """
    ints = [[(v.numerator, v.denominator) for v in row] for row in m.rows]
    for r, col in zip(m.responses, zip(*ints)):
        i = _first_ratio_violation(a.alpha, col, col[1:])
        if i is not None:
            return DPReport(ok=False, witness=(i, r))
    return DPReport(ok=True)


def compose(y: Remap, x: Mechanism) -> Mechanism:
    """Post-process x by y: (y o x)[i][t] sums x[i][r] over the responses
    r that y sends to t.

    y's source responses must be exactly x's responses, in order.
    """
    if y.sources != x.responses:
        raise StructuralError(
            f"remap sources {y.sources} do not match mechanism responses {x.responses}"
        )
    column = {t: k for k, t in enumerate(y.targets)}
    cols = [column[t] for t in y.mapping]
    rows = []
    for xrow in x.rows:
        row = [Fraction(0)] * len(y.targets)
        for v, k in zip(xrow, cols):
            row[k] += v
        rows.append(tuple(row))
    return Mechanism(n=x.n, responses=y.targets, rows=tuple(rows))


def expected_loss(m: Mechanism, u: UserModel,
                  digits: int | None = None) -> Number:
    """Expected loss sum_i p_i sum_r x[i][r] l(i, r) against response labels.

    Exact Fraction whenever the loss is rational-valued; otherwise a
    Decimal at the requested precision (the prior/mechanism part of each
    term stays exact and is converted once).
    """
    return _expected_loss(m, u, LossTable(u.loss, digits))


def _check_prior_covers(m: Mechanism, u: UserModel) -> None:
    if len(u.prior) != m.n + 1:
        raise StructuralError(
            f"prior covers {len(u.prior)} results, mechanism has {m.n + 1}"
        )


def _expected_loss(m: Mechanism, u: UserModel, table: LossTable) -> Number:
    """expected_loss with the loss values taken from (and cached in) table."""
    _check_prior_covers(m, u)
    return table.weighted_sum(
        (p * row[k], table(i, r))
        for i, (p, row) in enumerate(zip(u.prior, m.rows)) if p
        for k, r in enumerate(m.responses) if row[k])
