"""Core type and check behavior, mostly against hand-computed values."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from privopt import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    Remap,
    StructuralError,
    UserModel,
    check_differential_privacy,
    check_row_stochastic,
    compose,
    expected_loss,
    truncated_geometric,
)
from privopt.core import (
    _first_ratio_violation,
    format_rational,
    hp_context,
    parse_rational,
    to_decimal,
)

from goldens import (
    ALPHA_HALF,
    BENCHMARK_USER,
    BENCHMARK_VERTEX,
    BENCHMARK_VERTEX_LOSS,
    endpoint_user,
)
from oracles import fraction_dp_witness, fraction_row_stochastic


def identity_mechanism(n):
    rows = tuple(tuple(F(1) if r == i else F(0) for r in range(n + 1))
                 for i in range(n + 1))
    return Mechanism(n=n, responses=tuple(range(n + 1)), rows=rows)


class TestPrivacyLevel:
    def test_accepts_interior(self):
        assert PrivacyLevel(F(1, 2)).alpha == F(1, 2)

    @pytest.mark.parametrize("bad", [F(0), F(1), F(-1, 2), F(3, 2)])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(StructuralError):
            PrivacyLevel(bad)


class TestStochasticity:
    def test_identity_ok(self):
        assert check_row_stochastic(identity_mechanism(3)).ok

    def test_benchmark_vertex_ok(self):
        m = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        assert check_row_stochastic(m).ok

    def test_deficit_row_reported(self):
        m = Mechanism(n=1, responses=(0, 1),
                      rows=((F(1, 2), F(1, 4)), (F(0), F(1))))
        rep = check_row_stochastic(m)
        assert not rep.ok
        assert any("row 0" in p and "3/4" in p for p in rep.problems)

    def test_negative_entry_reported(self):
        m = Mechanism(n=1, responses=(0, 1),
                      rows=((F(3, 2), F(-1, 2)), (F(0), F(1))))
        rep = check_row_stochastic(m)
        assert not rep.ok

    BIG, PRIME = 10 ** 30 + 1, 2 ** 89 - 1

    @pytest.mark.parametrize("rows, ok", [
        # a negative entry
        (((F(3, 2), F(-1, 2)), (F(0), F(1))), False),
        # an entry above 1 in a row that sums to 1, and a row summing to 0
        (((F(5, 4), F(-1, 4), F(0)), (F(0), F(0), F(0))), False),
        # rows off by 1/den of their largest denominator
        (((F(1, 3), F(2, 3) - F(1, 7)), (F(1, 7), F(6, 7) + F(1, 21))), False),
        # large denominators whose lcm is far from any one of them
        (((F(1, BIG), F(BIG - 1, BIG), F(0)),
          (F(1, PRIME), F(1, 3 ** 60), 1 - F(1, PRIME) - F(1, 3 ** 60))), True),
        (((F(1, BIG), F(BIG - 1, BIG), F(0)),
          (F(1, PRIME), F(1, 3 ** 60), 1 - F(1, 3 ** 60))), False),
    ])
    def test_report_matches_fraction_check(self, rows, ok):
        m = Mechanism(n=len(rows) - 1, responses=tuple(range(len(rows[0]))),
                      rows=rows)
        rep = check_row_stochastic(m)
        assert rep == fraction_row_stochastic(m)
        assert rep.ok == ok

    def test_reports_match_fraction_check_on_perturbed_mechanisms(self):
        rng = random.Random(33)
        outcomes = set()
        for _ in range(100):
            n = rng.randint(1, 6)
            g = truncated_geometric(PrivacyLevel(F(rng.randint(1, 9), 10)), n)
            rows = [list(row) for row in g.rows]
            for _ in range(rng.randint(0, 2)):
                i, k = rng.randrange(n + 1), rng.randrange(n + 1)
                rows[i][k] += F(rng.randint(-3, 3), rng.choice((7, 64, 10 ** 12)))
            m = Mechanism(n=n, responses=g.responses, rows=rows)
            rep = check_row_stochastic(m)
            assert rep == fraction_row_stochastic(m)
            outcomes.add(rep.ok)
        assert outcomes == {True, False}


class TestDifferentialPrivacy:
    def test_benchmark_vertex_is_half_private(self):
        m = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        assert check_differential_privacy(m, ALPHA_HALF).ok

    def test_constant_rows_pass_any_alpha(self):
        rows = ((F(1, 3), F(2, 3)),) * 2
        m = Mechanism(n=1, responses=(0, 1), rows=rows)
        for a in (F(1, 10), F(9, 10)):
            assert check_differential_privacy(m, PrivacyLevel(a)).ok

    def test_identity_fails_with_witness(self):
        rep = check_differential_privacy(identity_mechanism(1), ALPHA_HALF)
        assert not rep.ok
        assert rep.witness == (0, 0)

    def test_shared_zero_column_passes(self):
        # 0/0 counts as ratio 1
        rows = ((F(1, 3), F(0), F(2, 3)), (F(2, 3), F(0), F(1, 3)),
                (F(1, 3), F(0), F(2, 3)))
        m = Mechanism(n=2, responses=(0, 1, 2), rows=rows)
        assert check_differential_privacy(m, ALPHA_HALF).ok

    def test_symmetric_in_adjacent_rows(self):
        g = truncated_geometric(ALPHA_HALF, 3)
        flipped = Mechanism(n=3, responses=g.responses, rows=g.rows[::-1])
        assert check_differential_privacy(g, ALPHA_HALF).ok
        assert check_differential_privacy(flipped, ALPHA_HALF).ok


class TestRatioWithin:
    @staticmethod
    def within(alpha, x, y):
        pair = (lambda v: (v.numerator, v.denominator))
        return _first_ratio_violation(alpha, [pair(x)], [pair(y)]) is None

    def test_boundary_and_zeros(self):
        half = F(1, 2)
        assert self.within(half, F(1, 3), F(1, 6))
        assert self.within(half, F(1, 6), F(1, 3))
        assert not self.within(half, F(1, 3), F(1, 6) - F(1, 10 ** 20))
        assert not self.within(half, F(1, 6) - F(1, 10 ** 20), F(1, 3))
        assert self.within(half, F(0), F(0))
        assert not self.within(half, F(0), F(1, 10 ** 20))

    def test_first_index_and_unreduced_pairs(self):
        xs = [(1, 3), (2, 6), (0, 5), (4, 8)]
        ys = [(2, 12), (1, 9), (0, 7), (4, 2)]
        # (2/6, 1/9) breaks ratio 1/2 but not 1/3; (4/8, 4/2) breaks both;
        # the zeros pass
        assert _first_ratio_violation(F(1, 2), xs, ys) == 1
        assert _first_ratio_violation(F(1, 3), xs, ys) == 3
        assert _first_ratio_violation(F(1, 3), xs[:3], ys[:3]) is None

    def test_witness_matches_fraction_test(self):
        # the integer test against the Fraction comparisons it replaced,
        # on geometric mechanisms with one entry perturbed, a zero set next
        # to a positive entry, or the last pair in scan order broken
        levels = (F(1, 4), F(1, 2), F(2, 3), F(3, 4))
        factors = (F(0), F(1, 2), F(999, 1000), F(1001, 1000), F(2))
        rng = random.Random(31)
        outcomes = set()
        witnesses = set()
        for trial in range(150):
            n = rng.randint(1, 6)
            g = truncated_geometric(PrivacyLevel(rng.choice(levels)), n)
            rows = [list(row) for row in g.rows]
            if trial % 3 == 0:
                rows[rng.randrange(n + 1)][rng.randrange(n + 1)] *= rng.choice(factors)
            elif trial % 3 == 1:
                rows[rng.randrange(n + 1)][rng.randrange(n + 1)] = F(0)
            else:
                rows[n][n] *= rng.choice(factors)
            m = Mechanism(n=n, responses=g.responses, rows=rows)
            for a in levels:
                rep = check_differential_privacy(m, PrivacyLevel(a))
                assert rep.witness == fraction_dp_witness(m, a)
                assert rep.ok == (rep.witness is None)
                outcomes.add(rep.ok)
                if trial % 3 == 2 and rep.witness is not None:
                    witnesses.add(rep.witness == (n - 1, n))
        assert outcomes == {True, False}
        assert True in witnesses


class TestCompose:
    def test_identity_remap_is_noop(self):
        g = truncated_geometric(ALPHA_HALF, 4)
        ident = Remap(g.responses, g.responses, [0, 1, 2, 3, 4])
        assert compose(ident, g).rows == g.rows

    def test_collapse_to_benchmark_vertex(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        y = Remap(g.responses, g.responses, [0, 2, 2, 3, 4, 5])
        assert compose(y, g).rows == BENCHMARK_VERTEX

    def test_source_mismatch_rejected(self):
        g = truncated_geometric(ALPHA_HALF, 2)
        y = Remap((0, 1), (0, 1), [0, 1])
        with pytest.raises(StructuralError):
            compose(y, g)


class TestExpectedLoss:
    def test_zero_diagonal_identity(self):
        u = UserModel(prior=(F(1, 3), F(1, 3), F(1, 3)),
                      loss=LossFunction(kind="squared"))
        assert expected_loss(identity_mechanism(2), u) == 0

    def test_endpoint_binary_on_truncated_geometric(self):
        # the truncated mechanism concentrates its endpoint rows, so the
        # face-value binary loss here is 1/3, not the untruncated 2/3
        g = truncated_geometric(ALPHA_HALF, 5)
        assert expected_loss(g, endpoint_user(5)) == F(1, 3)

    def test_threshold_remap_reaches_one_twelfth(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        y = Remap(g.responses, g.responses, [0, 0, 0, 5, 5, 5])
        assert expected_loss(compose(y, g), endpoint_user(5)) == F(1, 12)

    def test_power_loss_returns_decimal(self):
        u = UserModel(prior=(F(1, 2), F(1, 2)),
                      loss=LossFunction(kind="power", exponent=F(3, 2)))
        v = expected_loss(truncated_geometric(ALPHA_HALF, 1), u)
        assert isinstance(v, Decimal)

    def test_power_loss_digits_pinned(self):
        m = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
        assert str(expected_loss(m, BENCHMARK_USER, 64)) == BENCHMARK_VERTEX_LOSS

    def test_prior_length_mismatch(self):
        u = UserModel(prior=(F(1, 2), F(1, 2)), loss=LossFunction(kind="binary"))
        with pytest.raises(StructuralError):
            expected_loss(truncated_geometric(ALPHA_HALF, 2), u)


class TestLossFunction:
    def test_kinds_and_exactness(self):
        assert LossFunction(kind="absolute").is_exact
        assert LossFunction(kind="squared").is_exact
        assert LossFunction(kind="binary").is_exact
        assert not LossFunction(kind="power", exponent=F(3, 2)).is_exact
        assert LossFunction(kind="power", exponent=F(2)).is_exact

    def test_exact_values(self):
        assert LossFunction(kind="absolute").exact_value(1, 4) == 3
        assert LossFunction(kind="squared").exact_value(1, 4) == 9
        assert LossFunction(kind="binary").exact_value(2, 2) == 0
        assert LossFunction(kind="binary").exact_value(2, 3) == 1

    def test_power_hp_value_uses_sqrt(self):
        ctx = hp_context(50)
        v = LossFunction(kind="power", exponent=F(3, 2)).hp_value(0, 2, ctx)
        assert abs(v - ctx.sqrt(Decimal(8))) <= Decimal("1e-45")

    def test_tabulated(self):
        loss = LossFunction(kind="tabulated",
                            table=((F(0), F(5)), (F(1), F(0))))
        assert loss.exact_value(0, 1) == 5
        assert loss.is_exact

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError):
            LossFunction(kind="hinge")


class TestUserModel:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            UserModel(prior=(F(1, 2), F(1, 3)), loss=LossFunction(kind="binary"))

    def test_negative_prior_rejected(self):
        with pytest.raises(StructuralError):
            UserModel(prior=(F(3, 2), F(-1, 2)), loss=LossFunction(kind="binary"))

    def test_n_property(self):
        u = UserModel(prior=(F(1, 2), F(0), F(1, 2)),
                      loss=LossFunction(kind="binary"))
        assert u.n == 2


class TestRemap:
    def test_from_map_round_trip(self):
        y = Remap(sources=(0, 1, 2), targets=(0, 1, 2), mapping=[2, 2, 0])
        assert y.as_map() == {0: 2, 1: 2, 2: 0}

    def test_one_target_per_source(self):
        with pytest.raises(StructuralError):
            Remap(sources=(0, 1, 2), targets=(0, 1), mapping=[0, 1])

    def test_target_outside_target_set(self):
        with pytest.raises(StructuralError):
            Remap(sources=(0, 1), targets=(0, 1), mapping=[0, 2])


class TestRationalText:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("2") == F(2)
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(2)) == "2"

    def test_to_decimal_exact_division(self):
        ctx = hp_context(30)
        assert to_decimal(F(1, 8), ctx) == Decimal("0.125")
