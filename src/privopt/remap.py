"""Bayesian post-processing of oblivious mechanisms.

A user remaps published responses to results she finds more useful. For a
known mechanism and prior the best remap is deterministic: send each
response to a result minimizing the posterior expected loss. One
LossTable per call supplies every loss value, so each is evaluated once;
irrational values are rationalized exactly as build_lp does, so the remap
and the LP optimize the same costs.

Mechanisms shaped like the truncated geometric mechanism take an O(n^2)
route; every other mechanism takes the generic O(n^3) loop.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    LossTable,
    Mechanism,
    Remap,
    UserModel,
    _check_prior_covers,
)


def optimal_remap(x: Mechanism, u: UserModel,
                  digits: int | None = None) -> Remap:
    """Deterministic Bayes-optimal remap of x's responses into 0..n.

    Ties go to the smallest result index; unreachable responses go to 0.
    The prior must cover exactly x's results 0..n.
    """
    _check_prior_covers(x, u)
    size = x.n + 1
    table = LossTable(u.loss, digits)
    # w[t][i] = p_i * l(i, t), exact; zero-prior rows contribute nothing
    w = [[p * table.rational(i, t) if p else 0
          for i, p in enumerate(u.prior)] for t in range(size)]
    alpha = _geometric_ratio(x)
    mapping = (_generic_targets(x, w) if alpha is None
               else _geometric_targets(alpha, w))
    return Remap(x.responses, tuple(range(size)), mapping)


def _generic_targets(x: Mechanism, w) -> list[int]:
    """argmin_t sum_i x[i][k] w[t][i] for each response column k.

    These are the unnormalized posterior expected losses: the same argmin
    as the normalized ones, without the division. An unreachable column
    costs 0 everywhere and so goes to 0.
    """
    mapping = []
    for k in range(len(x.responses)):
        col = [(i, row[k]) for i, row in enumerate(x.rows) if row[k]]
        costs = [sum((v * wt[i] for i, v in col), Fraction(0)) for wt in w]
        mapping.append(costs.index(min(costs)))
    return mapping


def _geometric_ratio(x: Mechanism) -> Fraction | None:
    """The alpha with every column k of x a positive multiple of
    (alpha^|i-k|)_i, or None when x has no such shape.

    alpha is read off column 0; every adjacent pair of every column must
    then shrink by exactly alpha away from the column's own index. With
    alpha > 0 a column is positive when its own entry is.
    """
    n, rows = x.n, x.rows
    if (n < 1 or len(x.responses) != n + 1
            or rows[0][0] <= 0 or rows[1][0] <= 0):
        return None
    alpha = rows[1][0] / rows[0][0]
    a, b = alpha.numerator, alpha.denominator
    for k in range(n + 1):
        if rows[k][k] <= 0:
            return None
        for i in range(n):
            near, far = ((rows[i + 1][k], rows[i][k]) if i < k
                         else (rows[i][k], rows[i + 1][k]))
            nf = near.numerator * far.denominator
            fn = far.numerator * near.denominator
            if a * nf != b * fn:  # far != alpha * near
                return None
    return alpha


def _geometric_targets(alpha: Fraction, w) -> list[int]:
    """argmin_t E_k(t) for each k, where E_k(t) = sum_i alpha^|i-k| w[t][i].

    Column k's positive scale moves no argmin, so E_k stands in for the
    posterior cost. E_k = L_k + R_k with L_k = alpha L_{k-1} + w_k and
    R_k = alpha (R_{k+1} + w_{k+1}): one forward and one backward pass
    per target, O(n^2) in all. Targets are scanned in increasing order
    and only a strictly smaller cost replaces the best, so ties go to
    the smallest index.
    """
    size = len(w)
    best = [None] * size
    mapping = [0] * size
    for t, wt in enumerate(w):
        left = []
        acc = Fraction(0)
        for v in wt:
            acc = alpha * acc + v
            left.append(acc)
        acc = Fraction(0)
        for k in range(size - 1, -1, -1):
            cost = left[k] + acc
            if best[k] is None or cost < best[k]:
                best[k], mapping[k] = cost, t
            acc = alpha * (acc + wt[k])
    return mapping
