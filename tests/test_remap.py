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
from privopt.analysis import random_user
from privopt.optlp import optimal_mechanism_for_user
from privopt.remap import optimal_remap
from privopt.simplex import EQ, Constraint, solve_lp

from goldens import (
    ALPHA_HALF,
    BENCHMARK_DERIVED_MAP,
    BENCHMARK_USER,
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
