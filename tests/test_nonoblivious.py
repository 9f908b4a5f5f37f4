"""Database-indexed mechanisms: class averaging, worst-case loss, and
the two-user feasibility instance."""

import random
import time
from fractions import Fraction as F

import pytest

from privopt import (
    LossFunction,
    PrivacyLevel,
    StructuralError,
    UserModel,
    check_differential_privacy,
    expected_loss,
    truncated_geometric,
)
from privopt.analysis import random_user
from privopt.nonoblivious import (
    COUNTEREXAMPLE_RESPONSES,
    DatabaseSpace,
    FullMechanism,
    binary_space,
    build_counterexample_lp,
    check_counterexample_infeasibility,
    check_full_differential_privacy,
    check_full_row_stochastic,
    lift,
    obliviate,
    random_dp_full_mechanism,
    worst_case_expected_loss,
)
from privopt.simplex import solve_lp

from goldens import ALPHA_HALF, LIFT_USER_3, LIFT_USER_3_WORST_LOSS
from oracles import (
    adversarial_worst_loss,
    agree,
    fraction_dp_full_mechanism,
    fraction_full_dp_witness,
    neighbor_pairs,
)

TOL = F(1, 10 ** 30)


class TestDatabaseSpace:
    def test_binary_space_size(self):
        sp = binary_space(3)
        assert len(sp.databases) == 8
        assert sp.rows == 3

    def test_labels_are_one_sets(self):
        sp = binary_space(3)
        labels = {sp.label(j) for j in range(8)}
        assert "{}" in labels and "{1,3}" in labels and "{1,2,3}" in labels

    def test_classes_partition(self):
        sp = binary_space(3)
        classes = sp.classes()
        assert [len(c) for c in classes] == [1, 3, 3, 1]
        assert sorted(j for c in classes for j in c) == list(range(8))

    def test_neighbors_symmetric_counts(self):
        sp = binary_space(3)
        pairs = sp.neighbor_pairs()
        assert len(pairs) == 12  # 8 * 3 / 2 single-row flips
        assert all(j1 < j2 for j1, j2 in pairs)

    @pytest.mark.parametrize("sp", [binary_space(r) for r in range(1, 10)] + [
        DatabaseSpace(domain=("a", "b", "c"), rows=3, positive={"a"}),
        DatabaseSpace(domain=(0, 1, 2, 3), rows=2, positive={1, 3}),
    ])
    def test_neighbors_match_pairwise_search(self, sp):
        assert sp.neighbor_pairs() == neighbor_pairs(sp)

    def test_trivial_predicate_rejected(self):
        with pytest.raises(StructuralError):
            DatabaseSpace(domain=(0, 1), rows=2, positive={0, 1})
        with pytest.raises(StructuralError):
            DatabaseSpace(domain=(0, 1), rows=2, positive=set())


class TestObliviate:
    def test_oblivious_input_round_trips(self):
        sp = binary_space(3)
        g = truncated_geometric(ALPHA_HALF, 3)
        assert obliviate(lift(g, sp)).rows == g.rows

    def test_idempotent(self):
        rng = random.Random(31)
        sp = binary_space(2)
        x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
        once = obliviate(x)
        again = obliviate(lift(once, sp))
        assert once.rows == again.rows

    def test_output_class_constant_and_stochastic(self):
        # the four pinned rows of the two-user instance, free rows filled
        # with something arbitrary but stochastic
        sp = binary_space(3)
        pinned = {
            (1, 0, 0): (F(7, 12), F(0), F(4, 12), F(1, 12)),
            (0, 1, 0): (F(7, 12), F(0), F(1, 12), F(4, 12)),
            (1, 0, 1): (F(1, 6), F(0), F(4, 6), F(1, 6)),
            (0, 1, 1): (F(1, 6), F(0), F(1, 6), F(4, 6)),
        }
        filler = (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
        rows = tuple(pinned.get(d, filler) for d in sp.databases)
        x = FullMechanism(sp, COUNTEREXAMPLE_RESPONSES, rows)
        assert check_full_row_stochastic(x).ok
        m = obliviate(x)
        assert sum(m.rows[0]) == 1
        # class-constant by construction: one row per result
        assert m.n == 3

    def test_preserves_privacy_exactly(self):
        rng = random.Random(12)
        for n in (2, 3):
            sp = binary_space(n)
            for _ in range(25):
                x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
                assert check_full_differential_privacy(x, ALPHA_HALF).ok
                m = obliviate(x)
                assert check_differential_privacy(m, ALPHA_HALF).ok

    def test_never_increases_worst_case_loss(self):
        rng = random.Random(13)
        for n in (2, 3):
            sp = binary_space(n)
            for _ in range(15):
                x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
                u = random_user(rng, n)
                m = obliviate(x)
                averaged = worst_case_expected_loss(lift(m, sp), u)
                original = worst_case_expected_loss(x, u)
                assert averaged <= original or agree(averaged, original, TOL)

    def test_float_entries_rejected(self):
        with pytest.raises(StructuralError, match="got float"):
            FullMechanism(binary_space(1), (0, 1), [(0.1, 0.9), (0.5, 0.5)])

    def test_non_stochastic_rejected(self):
        sp = binary_space(2)
        rows = tuple((F(1, 2), F(1, 4)) for _ in sp.databases)
        x = FullMechanism(sp, (0, 1), rows)
        with pytest.raises(StructuralError):
            obliviate(x)


class TestWorstCaseLoss:
    def test_oblivious_equals_plain_loss(self):
        sp = binary_space(3)
        g = truncated_geometric(ALPHA_HALF, 3)
        u = UserModel(prior=(F(1, 8), F(3, 8), F(3, 8), F(1, 8)),
                      loss=LossFunction(kind="squared"))
        assert worst_case_expected_loss(lift(g, sp), u) == expected_loss(g, u)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(29)
        for n in (2, 3):
            sp = binary_space(n)
            for _ in range(10):
                x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
                u = random_user(rng, n)
                got = worst_case_expected_loss(x, u)
                want = adversarial_worst_loss(x, u, sp)
                assert agree(got, want, TOL)

    def test_point_mass_prior_reads_one_class(self):
        sp = binary_space(2)
        rng = random.Random(2)
        x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
        u = UserModel(prior=(F(0), F(1), F(0)),
                      loss=LossFunction(kind="absolute"))
        got = worst_case_expected_loss(x, u)
        assert agree(got, adversarial_worst_loss(x, u, sp), TOL)

    def test_power_loss_digits_pinned(self):
        x = lift(truncated_geometric(ALPHA_HALF, 3), binary_space(3))
        got = worst_case_expected_loss(x, LIFT_USER_3, digits=64)
        assert str(got) == LIFT_USER_3_WORST_LOSS

    def test_space_is_the_mechanisms_own(self):
        # the classes are x.space's; another space's classes would give
        # a wrong loss, or an IndexError for a wider space
        x = lift(truncated_geometric(ALPHA_HALF, 2), binary_space(2))
        u = UserModel(prior=(F(1, 4), F(1, 2), F(1, 4)),
                      loss=LossFunction(kind="absolute"))
        other = DatabaseSpace((0, 1), 2, (0,))
        with pytest.raises(TypeError):
            worst_case_expected_loss(x, u, space=other)
        with pytest.raises(TypeError):
            obliviate(x, space=x.space)


class TestTwoUserInstance:
    def test_infeasible_with_verified_witness(self):
        t0 = time.perf_counter()
        cert = check_counterexample_infeasibility()
        dt = time.perf_counter() - t0
        assert cert.infeasible
        assert cert.verified
        assert dt < 1.0
        assert cert.num_variables == 32
        assert len(cert.nonzero_multipliers()) > 0

    def test_multiplier_labels_name_constraints(self):
        cert = check_counterexample_infeasibility()
        labels = [lbl for lbl, _ in cert.nonzero_multipliers()]
        assert any(lbl.startswith("privacy") for lbl in labels)

    @staticmethod
    def solve_without(family: str):
        """Solve the instance with every constraint whose label starts
        with family left out."""
        nv, cons, labels, _ = build_counterexample_lp()
        kept = [(c, lbl) for c, lbl in zip(cons, labels)
                if not lbl.startswith(family)]
        cons = [c for c, _ in kept]
        return cons, [lbl for _, lbl in kept], solve_lp(nv, cons, [F(0)] * nv)

    def test_feasible_without_privacy(self):
        _, _, res = self.solve_without("privacy")
        assert res.status != "infeasible"

    def test_feasible_for_either_user_alone(self):
        _, _, only_first = self.solve_without("remap user2")
        _, _, only_second = self.solve_without("remap user1")
        assert only_first.status != "infeasible"
        assert only_second.status != "infeasible"

    def test_infeasible_even_without_noise_requirement(self):
        cert = check_counterexample_infeasibility(alpha=F(1))
        assert cert.infeasible
        assert cert.verified

    def test_feasible_point_actually_satisfies_remap_rows(self):
        # with one user dropped, the solver's feasible point must honor
        # the other user's pinned rows
        cons, labels, res = self.solve_without("remap user2")
        assert res.status == "optimal"
        for con, lbl in zip(cons, labels):
            lhs = sum((c * v for c, v in zip(con.coeffs, res.x)), F(0))
            if con.relation == "==":
                assert lhs == con.rhs, lbl
            elif con.relation == "<=":
                assert lhs <= con.rhs, lbl
            else:
                assert lhs >= con.rhs, lbl


class TestSampler:
    def test_emits_exactly_private_mechanisms(self):
        rng = random.Random(55)
        sp = binary_space(3)
        for _ in range(10):
            x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
            assert check_full_row_stochastic(x).ok
            assert check_full_differential_privacy(x, ALPHA_HALF).ok

    def test_witness_matches_fraction_test(self):
        # the integer test against the Fraction comparisons it replaced,
        # on sampled mechanisms with one entry perturbed, a zero set next
        # to a positive entry, or the last pair in scan order broken
        rng = random.Random(57)
        sp = binary_space(2)
        last = (sp.label(neighbor_pairs(sp)[-1][0]),
                sp.label(neighbor_pairs(sp)[-1][1]), 2)
        outcomes = set()
        witnesses = set()
        for trial in range(30):
            x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
            rows = [list(row) for row in x.rows]
            if trial % 3 == 0:
                rows[rng.randrange(len(rows))][rng.randrange(3)] *= rng.choice(
                    (F(0), F(1, 3), F(1, 2), F(2), F(3)))
            elif trial % 3 == 1:
                rows[rng.randrange(len(rows))][rng.randrange(3)] = F(0)
            else:
                # only the last neighbour pair, {1}~{1,2}, breaks ratio 1/2
                # in response 2
                c = rows[3][2]
                rows[1][2], rows[0][2], rows[2][2] = c, c * 3 / 2, c * 11 / 5
            y = FullMechanism(sp, x.responses, rows)
            for a in (F(1, 3), F(1, 2), F(2, 3)):
                rep = check_full_differential_privacy(y, PrivacyLevel(a))
                assert rep.witness == fraction_full_dp_witness(y, a)
                assert rep.ok == (rep.witness is None)
                outcomes.add(rep.ok)
                witnesses.add(rep.witness)
        assert outcomes == {True, False}
        assert last in witnesses

    class CountingRandom(random.Random):
        randints = 0

        def randint(self, a, b):
            self.randints += 1
            return super().randint(a, b)

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_draws_match_fraction_sampler(self, rows):
        # equal rows and an equal random state afterwards; seed 1 at
        # rows 7 and alpha 3/4 rejects its first candidate
        sp = binary_space(rows)
        for a in (F(1, 4), F(1, 2), F(3, 4)):
            for seed in (1, rows):
                rng, ref = self.CountingRandom(seed), random.Random(seed)
                x = random_dp_full_mechanism(rng, sp, PrivacyLevel(a))
                assert x == fraction_dp_full_mechanism(ref, sp, PrivacyLevel(a))
                assert rng.random() == ref.random()
                if (rows, a, seed) == (7, F(3, 4), 1):
                    assert rng.randints == 2 * len(sp.databases) * (rows + 1)

    def test_draws_match_fraction_sampler_after_rejection(self):
        # the seed-202 perfbench mechanism with 9 database rows at
        # alpha 3/4, whose first candidate is rejected
        sp, a = binary_space(9), PrivacyLevel(F(3, 4))
        rng, ref = self.CountingRandom(388641693), random.Random(388641693)
        x = random_dp_full_mechanism(rng, sp, a)
        assert rng.randints == 2 * len(sp.databases) * 10
        assert x == fraction_dp_full_mechanism(ref, sp, a)
        assert rng.random() == ref.random()

    def test_sampler_varies_rows_across_a_class(self):
        # non-oblivious on purpose: some class has two differing rows
        rng = random.Random(56)
        sp = binary_space(3)
        saw_non_oblivious = False
        for _ in range(10):
            x = random_dp_full_mechanism(rng, sp, ALPHA_HALF)
            for cls in sp.classes():
                if len({x.rows[j] for j in cls}) > 1:
                    saw_non_oblivious = True
        assert saw_non_oblivious
