"""The per-user LP: construction counts, golden vertex, enumeration
agreement, tightness accounting."""

import random
import time
from fractions import Fraction as F

import pytest

from privopt import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    UserModel,
    check_differential_privacy,
    check_row_stochastic,
    expected_loss,
    optimal_mechanism_for_user,
    truncated_geometric,
)
from privopt.analysis import random_user
from privopt.optlp import DOWN, UP, ZERO, build_lp, solve_vertex, tight_set

from goldens import ALPHA_HALF, BENCHMARK_USER, BENCHMARK_VERTEX, endpoint_user
from oracles import agree, enumerate_vertices, tight_rank

TOL = F(1, 10 ** 30)

_vertex_cache = {}


def all_vertices(a, n):
    key = (a.alpha, n)
    if key not in _vertex_cache:
        _vertex_cache[key] = enumerate_vertices(a, n)
    return _vertex_cache[key]


class TestBuildLP:
    def test_benchmark_objective_coefficient(self):
        from decimal import Decimal

        from privopt.core import hp_context

        lp = build_lp(BENCHMARK_USER, ALPHA_HALF)
        # p_0 * 2^1.5 at (i=0, r=2), rationalized at working precision
        want = F(1, 4) * F(hp_context(None).sqrt(Decimal(8)))
        assert abs(lp.objective[0][2] - want) < F(1, 10 ** 50)

    def test_value_reads_each_entry_at_its_response(self):
        lp = build_lp(BENCHMARK_USER, ALPHA_HALF)
        g = truncated_geometric(ALPHA_HALF, 5)
        want = sum(lp.objective[i][r] * g.rows[i][r]
                   for i in range(6) for r in range(6))
        order = (3, 0, 5, 1, 4, 2)
        shuffled = Mechanism(n=5, responses=order,
                             rows=tuple(tuple(row[r] for r in order)
                                        for row in g.rows))
        assert lp.value(g) == lp.value(shuffled) == want

    def test_value_is_the_expected_loss_of_a_rational_loss(self):
        u = UserModel(prior=(F(1, 2), F(1, 4), F(1, 4)),
                      loss=LossFunction(kind="squared"))
        g = truncated_geometric(ALPHA_HALF, 2)
        assert build_lp(u, ALPHA_HALF).value(g) == expected_loss(g, u)


class TestSolveVertex:
    def test_benchmark_golden_matrix(self):
        t0 = time.perf_counter()
        sol = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        assert time.perf_counter() - t0 < 1.0
        assert sol.mechanism.rows == BENCHMARK_VERTEX
        assert sol.certified

    def test_uniform_binary_returns_geometric(self):
        for n in (1, 2, 3, 5):
            for alpha in (F(1, 4), F(1, 2), F(3, 4)):
                a = PrivacyLevel(alpha)
                u = UserModel(prior=tuple(F(1, n + 1) for _ in range(n + 1)),
                              loss=LossFunction(kind="binary"))
                sol = optimal_mechanism_for_user(u, a)
                assert sol.mechanism.rows == truncated_geometric(a, n).rows

    def test_n1_uniform_binary_loss_value(self):
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        sol = optimal_mechanism_for_user(u, ALPHA_HALF)
        assert sol.objective == F(1, 3)

    def test_point_mass_collapses_to_constant(self):
        # a point-mass user is served best by the constant answer: the
        # all-mass-on-0 column is feasible (shared zeros pass the ratio
        # test) and has loss 0
        u = UserModel(prior=(F(1), F(0)), loss=LossFunction(kind="absolute"))
        sol = optimal_mechanism_for_user(u, ALPHA_HALF)
        assert sol.objective == 0
        assert sol.mechanism.rows == ((F(1), F(0)), (F(1), F(0)))

    def test_endpoint_user_reaches_remap_loss(self):
        sol = optimal_mechanism_for_user(endpoint_user(5), ALPHA_HALF)
        assert sol.objective == F(1, 12)

    def test_feasible_and_private_output(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 5)
            u = random_user(rng, n)
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            assert check_row_stochastic(sol.mechanism).ok
            assert check_differential_privacy(sol.mechanism, ALPHA_HALF).ok


class TestEnumerationAgreement:
    """The LP optimum equals the minimum over every polytope vertex."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_users(self, n):
        rng = random.Random(41)
        vertices = all_vertices(ALPHA_HALF, n)
        for _ in range(25):
            u = random_user(rng, n)
            if not u.loss.is_exact:
                continue
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            best = min(expected_loss(v, u) for v in vertices)
            assert sol.objective == best

    def test_power_users_n2(self):
        rng = random.Random(42)
        vertices = all_vertices(ALPHA_HALF, 2)
        done = 0
        while done < 8:
            u = random_user(rng, 2)
            if u.loss.is_exact:
                continue
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            best = min(expected_loss(v, u) for v in vertices)
            assert agree(sol.objective, best, TOL)
            done += 1

    def test_exact_users_n3(self):
        rng = random.Random(43)
        vertices = all_vertices(ALPHA_HALF, 3)
        done = 0
        while done < 10:
            u = random_user(rng, 3)
            if not u.loss.is_exact:
                continue
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            best = min(expected_loss(v, u) for v in vertices)
            assert sol.objective == best
            done += 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_geometric_is_a_vertex(self, n):
        rows = {v.rows for v in all_vertices(ALPHA_HALF, n)}
        assert truncated_geometric(ALPHA_HALF, n).rows in rows


class TestTightness:
    def test_rank_pins_the_vertex(self):
        # a vertex of the LP has full-rank tight constraints
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 4)
            u = random_user(rng, n)
            sol = optimal_mechanism_for_user(u, ALPHA_HALF)
            cells = "".join("".join(row) for row in sol.tight.grid)
            count = (cells.count(UP) + cells.count(DOWN) + n + 1
                     + sum(row.count(0) for row in sol.mechanism.rows))
            assert count >= (n + 1) ** 2
            assert tight_rank(sol.mechanism, ALPHA_HALF) == (n + 1) ** 2

    def test_geometric_feasibility_wide(self):
        # the geometric mechanism satisfies every LP constraint exactly
        for alpha in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
            a = PrivacyLevel(alpha)
            for n in range(1, 13):
                g = truncated_geometric(a, n)
                assert check_row_stochastic(g).ok
                assert check_differential_privacy(g, a).ok

    def test_tight_set_of_geometric(self):
        g = truncated_geometric(ALPHA_HALF, 2)
        cells = "".join("".join(row) for row in tight_set(g, ALPHA_HALF).grid)
        # every adjacent pair in every column is on the ratio boundary
        assert cells.count(UP) + cells.count(DOWN) == 6
        assert ZERO not in cells


class TestCertification:
    def test_power_loss_certified(self):
        sol = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        assert sol.certified
        assert sol.lp_objective is not None

    def test_one_digit_still_returns_a_vertex(self):
        # the rationalized LP is solved exactly at any precision; one digit
        # moves the vertex, but it is still a vertex of the exact polytope
        sol = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF, digits=1)
        assert sol.certified
        assert check_row_stochastic(sol.mechanism).ok
        assert check_differential_privacy(sol.mechanism, ALPHA_HALF).ok
        assert tight_rank(sol.mechanism, ALPHA_HALF) == 36

    def test_exact_loss_objective_matches_recomputation(self):
        u = UserModel(prior=(F(1, 2), F(1, 4), F(1, 4)),
                      loss=LossFunction(kind="squared"))
        sol = optimal_mechanism_for_user(u, ALPHA_HALF)
        assert sol.objective == expected_loss(sol.mechanism, u)
        assert sol.objective == sol.lp_objective
