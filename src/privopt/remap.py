"""Bayesian post-processing of oblivious mechanisms.

A user remaps published responses to results she finds more useful. For a
known mechanism and prior the best remap is deterministic: send each
response to a result minimizing the posterior expected loss. One
LossTable per call supplies every loss value, so each is evaluated once.
"""

from __future__ import annotations

from .core import LossTable, Mechanism, Remap, UserModel, _check_prior_covers


def _target_costs(x: Mechanism, u: UserModel, k: int, table: LossTable):
    """Unnormalized posterior expected losses of answering t on response
    column k: sum_i p_i x[i][k] l(i, t). Shares the argmin with the
    normalized version and avoids a needless division."""
    weights = [p * row[k] for p, row in zip(u.prior, x.rows)]
    return [table.weighted_sum((w, table(i, t))
                               for i, w in enumerate(weights) if w)
            for t in range(x.n + 1)]


def optimal_remap(x: Mechanism, u: UserModel,
                  digits: int | None = None) -> Remap:
    """Deterministic Bayes-optimal remap of x's responses into 0..n.

    Ties go to the smallest result index; unreachable responses go to 0.
    The prior must cover exactly x's results 0..n.
    """
    _check_prior_covers(x, u)
    n = x.n
    table = LossTable(u.loss, digits)
    mapping = []
    for k in range(len(x.responses)):
        if all(p * row[k] == 0 for p, row in zip(u.prior, x.rows)):
            mapping.append(0)
            continue
        costs = _target_costs(x, u, k, table)
        best = min(range(n + 1), key=lambda t: (costs[t], t))
        mapping.append(best)
    return Remap(x.responses, tuple(range(n + 1)), mapping)
