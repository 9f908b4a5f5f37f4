"""Bayes post-processing against brute-force and LP oracles."""

import random
from fractions import Fraction as F

import pytest

from privopt import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    StructuralError,
    UserModel,
    compose,
    expected_loss,
    truncated_geometric,
)
from privopt import remap as remap_module
from privopt.analysis import random_user
from privopt.core import LossTable
from privopt.optlp import optimal_mechanism_for_user
from privopt.remap import optimal_remap
from privopt.simplex import EQ, Constraint, solve_lp

from goldens import (
    ALPHA_HALF,
    BENCHMARK_DERIVED_MAP,
    BENCHMARK_USER,
    BENCHMARK_VERTEX,
    RAMP_USER_12,
    RAMP_USER_12_REMAPPED_LOSS,
    endpoint_user,
)
from oracles import (
    CapacityError,
    agree,
    brute_force_optimal_remap,
    exhaustive_remap_loss,
    posterior,
)

TOL = F(1, 10 ** 30)


def identity_mechanism(n):
    rows = tuple(tuple(F(1) if r == i else F(0) for r in range(n + 1))
                 for i in range(n + 1))
    return Mechanism(n=n, responses=tuple(range(n + 1)), rows=rows)


class TestPosterior:
    def test_identity_gives_point_masses(self):
        u = UserModel(prior=(F(1, 2), F(1, 3), F(1, 6)),
                      loss=LossFunction(kind="binary"))
        post = posterior(identity_mechanism(2), u)
        for r in range(3):
            assert post.by_response[r][r] == 1

    def test_n1_uniform_hand_value(self):
        g = truncated_geometric(ALPHA_HALF, 1)
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        assert post_sum_one(posterior(g, u))
        assert posterior(g, u).by_response[0] == (F(2, 3), F(1, 3))

    def test_point_mass_prior(self):
        g = truncated_geometric(ALPHA_HALF, 2)
        u = UserModel(prior=(F(0), F(1), F(0)), loss=LossFunction(kind="binary"))
        post = posterior(g, u)
        for dist in post.by_response:
            assert dist == (F(0), F(1), F(0))

    def test_unreachable_response_marked(self):
        rows = ((F(1), F(0)), (F(1), F(0)))
        m = Mechanism(n=1, responses=(0, 1), rows=rows)
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        post = posterior(m, u)
        assert post.by_response[1] is None
        assert post.marginals[1] == 0

    def test_reachable_posteriors_normalize(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            u = random_user(rng, n)
            g = truncated_geometric(ALPHA_HALF, n)
            assert post_sum_one(posterior(g, u))


def post_sum_one(post):
    return all(d is None or sum(d) == 1 for d in post.by_response)


class TestOptimalRemap:
    def test_endpoint_user_gets_threshold_map(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        y = optimal_remap(g, endpoint_user(5))
        assert y.as_map() == {0: 0, 1: 0, 2: 0, 3: 5, 4: 5, 5: 5}

    def test_threshold_loss_value(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        y = optimal_remap(g, endpoint_user(5))
        assert expected_loss(compose(y, g), endpoint_user(5)) == F(1, 12)

    def test_identity_kept_when_diagonal_optimal(self):
        u = UserModel(prior=(F(1, 3), F(1, 3), F(1, 3)),
                      loss=LossFunction(kind="squared"))
        y = optimal_remap(identity_mechanism(2), u)
        assert y.as_map() == {0: 0, 1: 1, 2: 2}

    def test_benchmark_user_derived_map(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        y = optimal_remap(g, BENCHMARK_USER)
        assert y.as_map() == BENCHMARK_DERIVED_MAP

    def test_unreachable_maps_to_zero(self):
        rows = ((F(1), F(0)), (F(1), F(0)))
        m = Mechanism(n=1, responses=(0, 1), rows=rows)
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        assert optimal_remap(m, u).as_map()[1] == 0

    def test_ties_take_smallest_index(self):
        # uniform posterior, binary loss: every target is equally good
        rows = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        m = Mechanism(n=1, responses=(0, 1), rows=rows)
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        assert optimal_remap(m, u).as_map() == {0: 0, 1: 0}

    def test_prior_must_cover_mechanism_results(self):
        u = UserModel(prior=(F(1, 3), F(1, 3), F(1, 3)),
                      loss=LossFunction(kind="absolute"))
        with pytest.raises(StructuralError,
                           match="prior covers 3 results, mechanism has 4"):
            optimal_remap(truncated_geometric(ALPHA_HALF, 3), u)


class TestLossValues:
    def test_power_loss_digits_pinned(self):
        g = truncated_geometric(ALPHA_HALF, 12)
        y = optimal_remap(g, RAMP_USER_12, 64)
        got = expected_loss(compose(y, g), RAMP_USER_12, 64)
        assert str(got) == RAMP_USER_12_REMAPPED_LOSS

    def test_each_loss_value_evaluated_once(self, monkeypatch):
        calls = []
        hp_value = LossFunction.hp_value

        def counting(self, i, r, ctx):
            calls.append((i, r))
            return hp_value(self, i, r, ctx)

        monkeypatch.setattr(LossFunction, "hp_value", counting)
        n = 10
        u = UserModel(prior=tuple(F(1, n + 1) for _ in range(n + 1)),
                      loss=LossFunction(kind="power", exponent=F(3, 2)))
        optimal_remap(truncated_geometric(ALPHA_HALF, n), u)
        assert 0 < len(calls) <= n + 1
        # one LP solve shares one table between the build and the final
        # objective: one value per distance 0..5
        calls.clear()
        optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        assert len(calls) == 6


class TestBruteForceAgreement:
    def test_sweep_200_users(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 4)
            u = random_user(rng, n)
            alpha = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
            g = truncated_geometric(PrivacyLevel(alpha), n)
            y = optimal_remap(g, u)
            achieved = expected_loss(compose(y, g), u)
            _, best = brute_force_optimal_remap(g, u)
            assert agree(achieved, best, TOL)

    def test_brute_force_matches_definition_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 3)
            u = random_user(rng, n)
            g = truncated_geometric(ALPHA_HALF, n)
            _, best = brute_force_optimal_remap(g, u)
            assert agree(best, exhaustive_remap_loss(g, u), TOL)

    def test_capacity_guard(self):
        g = truncated_geometric(ALPHA_HALF, 9)
        u = UserModel(prior=tuple(F(1, 10) for _ in range(10)),
                      loss=LossFunction(kind="binary"))
        with pytest.raises(CapacityError):
            brute_force_optimal_remap(g, u)


class TestRandomizedRemapsCannotWin:
    """The optimum over all row-stochastic remaps, found by LP, never
    beats the deterministic Bayes map; the loss is linear in the remap."""

    def lp_best_remap_loss(self, x, u):
        k = len(x.responses)
        n = x.n
        nv = k * (n + 1)  # y[r', t] flattened
        cost = [F(0)] * nv
        for rp in range(k):
            for t in range(n + 1):
                cost[rp * (n + 1) + t] = sum(
                    (u.prior[i] * x.rows[i][rp] * u.loss.exact_value(i, t)
                     for i in range(n + 1)), F(0))
        cons = []
        for rp in range(k):
            coeffs = [F(0)] * nv
            for t in range(n + 1):
                coeffs[rp * (n + 1) + t] = F(1)
            cons.append(Constraint(tuple(coeffs), EQ, F(1)))
        res = solve_lp(nv, cons, cost)
        assert res.status == "optimal"
        return res.objective

    def test_lp_matches_bayes_map(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 3)
            u = random_user(rng, n)
            while not u.loss.is_exact:
                u = random_user(rng, n)
            g = truncated_geometric(ALPHA_HALF, n)
            y = optimal_remap(g, u)
            achieved = expected_loss(compose(y, g), u)
            assert self.lp_best_remap_loss(g, u) == achieved


def generic_remap(monkeypatch, x, u, digits=None):
    """optimal_remap forced through the generic loop."""
    with monkeypatch.context() as mp:
        mp.setattr(remap_module, "_geometric_ratio", lambda x: None)
        return optimal_remap(x, u, digits)


def kernel_remap(x, u, alpha):
    """The geometric kernel run on x whatever its shape."""
    table = LossTable(u.loss)
    w = [[p * table.rational(i, t) for i, p in enumerate(u.prior)]
         for t in range(x.n + 1)]
    return tuple(remap_module._geometric_targets(alpha, w))


def random_tabulated(rng, n):
    """Per-row loss grids, nondecreasing in |i - r|, distinct across rows."""
    rows = []
    for i in range(n + 1):
        by_dist, acc = [], F(0)
        for _ in range(n + 1):
            acc += F(rng.randint(0, 4), rng.randint(1, 3))
            by_dist.append(acc)
        rows.append([by_dist[abs(i - r)] for r in range(n + 1)])
    return LossFunction.tabulated(rows)


KERNEL_ALPHAS = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
RAMP_USER_5 = UserModel(prior=tuple(F(k + 1, 21) for k in range(6)),
                        loss=LossFunction.power(F(1, 2)))


class TestGeometricKernel:
    """Mechanisms shaped like the truncated geometric mechanism take the
    O(n^2) route; it must agree with the generic loop everywhere."""

    def test_shape_test_accepts_truncated_geometric(self):
        for alpha in KERNEL_ALPHAS:
            for n in (1, 2, 5, 9):
                g = truncated_geometric(PrivacyLevel(alpha), n)
                assert remap_module._geometric_ratio(g) == alpha
        # alpha = 0 would fit the identity, but its entries are not positive
        assert remap_module._geometric_ratio(identity_mechanism(3)) is None

    def test_kernel_equals_generic_loop(self, monkeypatch):
        rng = random.Random(41)
        losses = [LossFunction.absolute(), LossFunction.squared(),
                  LossFunction.binary(), LossFunction.power(F(1, 2)),
                  LossFunction.power(F(3, 2)), None]
        kinds = set()
        for j in range(200):
            n = rng.randint(1, 14)
            loss = losses[j % len(losses)] or random_tabulated(rng, n)
            prior = (tuple(F(1, n + 1) for _ in range(n + 1))
                     if rng.random() < 0.3 else random_user(rng, n).prior)
            u = UserModel(prior=prior, loss=loss)
            digits = (2, 3, None)[j // len(losses) % 3]
            g = truncated_geometric(PrivacyLevel(rng.choice(KERNEL_ALPHAS)), n)
            assert remap_module._geometric_ratio(g) is not None
            assert (optimal_remap(g, u, digits)
                    == generic_remap(monkeypatch, g, u, digits))
            kinds.add((loss.kind, loss.exponent, digits))
        assert len(kinds) == 18

    def test_ties_take_smallest_index(self, monkeypatch):
        # response 1 sits halfway between the two equally likely results:
        # every target costs alpha, so it goes to 0
        g = truncated_geometric(ALPHA_HALF, 2)
        u = UserModel(prior=(F(1, 2), F(0), F(1, 2)),
                      loss=LossFunction.absolute())
        assert remap_module._geometric_ratio(g) == F(1, 2)
        assert optimal_remap(g, u).mapping == (0, 0, 2)
        assert generic_remap(monkeypatch, g, u).mapping == (0, 0, 2)

    def test_perturbed_entry_takes_generic_loop(self, monkeypatch):
        rows = [list(row) for row in truncated_geometric(ALPHA_HALF, 5).rows]
        delta = rows[2][3] / 1000
        rows[2][3] += delta
        rows[2][2] -= delta
        m = Mechanism(n=5, responses=tuple(range(6)), rows=rows)
        assert remap_module._geometric_ratio(m) is None
        for u in (BENCHMARK_USER, endpoint_user(5), RAMP_USER_5):
            assert optimal_remap(m, u) == generic_remap(monkeypatch, m, u)

    def test_merged_column_takes_generic_loop(self, monkeypatch):
        g = truncated_geometric(ALPHA_HALF, 5)
        m = compose(optimal_remap(g, endpoint_user(5)), g)
        assert remap_module._geometric_ratio(m) is None
        y = optimal_remap(m, BENCHMARK_USER)
        assert y == generic_remap(monkeypatch, m, BENCHMARK_USER)
        assert y.mapping == (1, 0, 0, 0, 0, 4)

    def test_zero_column_takes_generic_loop(self, monkeypatch):
        m = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        assert remap_module._geometric_ratio(m) is None
        y = optimal_remap(m, BENCHMARK_USER)
        assert y == generic_remap(monkeypatch, m, BENCHMARK_USER)
        # the zero column is unreachable and goes to 0; the kernel, which
        # assumes every column positive, would send it to 2
        assert y.mapping == (0, 0, 2, 3, 4, 5)
        assert kernel_remap(m, BENCHMARK_USER, F(1, 2))[1] == 2
        # every other column geometric: only the positivity test rejects it
        rows = [list(row) for row in truncated_geometric(ALPHA_HALF, 5).rows]
        for row in rows:
            row[2] = F(0)
        m = Mechanism(n=5, responses=tuple(range(6)), rows=rows)
        assert remap_module._geometric_ratio(m) is None
        y = optimal_remap(m, BENCHMARK_USER)
        assert y == generic_remap(monkeypatch, m, BENCHMARK_USER)
        assert y.mapping[2] == 0
        assert kernel_remap(m, BENCHMARK_USER, F(1, 2))[2] == 2

