"""Bayesian post-processing of oblivious mechanisms.

A user remaps published responses to results she finds more useful. For a
known mechanism and prior the best remap is deterministic: send each
response to a result minimizing the posterior expected loss. One
LossTable per call supplies every loss value, so each is evaluated once.
"""

from __future__ import annotations

from .core import LossTable, Mechanism, Remap, UserModel, _check_prior_covers


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
        weights = [p * row[k] for p, row in zip(u.prior, x.rows)]
        if not any(weights):
            mapping.append(0)
            continue
        # unnormalized posterior expected losses sum_i p_i x[i][k] l(i, t):
        # the same argmin as the normalized ones, without the division
        costs = [table.weighted_sum((w, table(i, t))
                                    for i, w in enumerate(weights) if w)
                 for t in range(n + 1)]
        mapping.append(min(range(n + 1), key=lambda t: (costs[t], t)))
    return Remap(x.responses, tuple(range(n + 1)), mapping)
