"""Property-based invariants over randomly generated rational inputs.

Everything here is exact arithmetic, so assertions are equalities, not
tolerances. Sizes are kept small (n <= 4) to keep the suite fast.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from privopt import (
    LossFunction,
    Mechanism,
    PrivacyLevel,
    Remap,
    UserModel,
    check_differential_privacy,
    check_row_stochastic,
    compose,
    expected_loss,
    truncated_geometric,
)
from privopt.mechanisms import geometric_pmf, geometric_tail
from privopt.serialize import (
    mechanism_from_jsonable,
    mechanism_to_jsonable,
    remap_from_jsonable,
    remap_to_jsonable,
    user_from_jsonable,
    user_to_jsonable,
)

from oracles import posterior

alphas = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                      max_denominator=24)
sizes = st.integers(min_value=1, max_value=4)


@st.composite
def stochastic_rows(draw, count, width):
    """count-by-width row-stochastic matrix with small rational entries."""
    rows = []
    for _ in range(count):
        weights = draw(st.lists(st.integers(0, 9), min_size=width,
                                max_size=width).filter(lambda w: sum(w) > 0))
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return tuple(rows)


@st.composite
def mechanisms(draw):
    n = draw(sizes)
    k = draw(st.integers(min_value=1, max_value=n + 2))
    rows = draw(stochastic_rows(n + 1, k))
    return Mechanism(n=n, responses=tuple(range(k)), rows=rows)


@st.composite
def private_mechanisms(draw):
    """alpha-DP by construction: mix the geometric with a constant mechanism.

    Both satisfy every privacy inequality and the feasible set is convex.
    """
    n = draw(sizes)
    a = PrivacyLevel(draw(alphas))
    g = truncated_geometric(a, n)
    const_row = draw(stochastic_rows(1, n + 1))[0]
    lam = draw(st.fractions(min_value=0, max_value=1, max_denominator=16))
    rows = tuple(
        tuple(lam * gv + (1 - lam) * cv for gv, cv in zip(grow, const_row))
        for grow in g.rows)
    return Mechanism(n=n, responses=g.responses, rows=rows), a


@st.composite
def users(draw, n):
    weights = draw(st.lists(st.integers(0, 9), min_size=n + 1,
                            max_size=n + 1).filter(lambda w: sum(w) > 0))
    total = sum(weights)
    prior = tuple(Fraction(w, total) for w in weights)
    kind = draw(st.sampled_from(["absolute", "squared", "binary"]))
    return UserModel(prior=prior, loss=LossFunction(kind=kind))


@st.composite
def deterministic_remaps(draw, sources, n):
    mapping = tuple(draw(st.integers(0, n)) for _ in sources)
    return Remap(sources, tuple(range(n + 1)), mapping)


class TestCompose:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_row_stochasticity(self, data):
        x = data.draw(mechanisms())
        width = data.draw(st.integers(min_value=1, max_value=4))
        y = data.draw(deterministic_remaps(x.responses, width - 1))
        assert check_row_stochastic(compose(y, x)).ok

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_privacy(self, data):
        x, a = data.draw(private_mechanisms())
        y = data.draw(deterministic_remaps(x.responses, x.n))
        assert check_differential_privacy(x, a).ok
        assert check_differential_privacy(compose(y, x), a).ok

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_loss_matches_double_expansion(self, data):
        x = data.draw(mechanisms())
        u = data.draw(users(x.n))
        y = data.draw(deterministic_remaps(x.responses, x.n))
        mapping = y.as_map()
        expanded = sum(
            (u.prior[i] * x.rows[i][j] * u.loss.exact_value(i, mapping[r])
             for i in range(x.n + 1)
             for j, r in enumerate(x.responses)),
            Fraction(0))
        assert expected_loss(compose(y, x), u) == expanded


class TestPrivacyCheck:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_status_invariant_under_relabeling(self, data):
        # reversing the row order flips every adjacent pair, and permuting
        # columns only renames responses; neither can change the verdict
        m = data.draw(mechanisms())
        a = PrivacyLevel(data.draw(alphas))
        k = len(m.responses)
        flipped = Mechanism(
            n=m.n, responses=tuple(range(k)),
            rows=tuple(tuple(reversed(row)) for row in reversed(m.rows)))
        assert check_differential_privacy(m, a).ok == \
            check_differential_privacy(flipped, a).ok

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_geometric_always_passes(self, data):
        a = PrivacyLevel(data.draw(alphas))
        n = data.draw(sizes)
        g = truncated_geometric(a, n)
        assert check_row_stochastic(g).ok
        assert check_differential_privacy(g, a).ok


class TestPosterior:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reachable_columns_normalize(self, data):
        x = data.draw(mechanisms())
        u = data.draw(users(x.n))
        post = posterior(x, u)
        assert sum(post.marginals, Fraction(0)) == 1
        for r, column in zip(post.responses, post.by_response):
            if column is None:
                assert post.marginals[post.responses.index(r)] == 0
            else:
                assert sum(column, Fraction(0)) == 1


class TestGeometricSeries:
    @given(alphas, st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_partial_sum_identity(self, alpha, k):
        a = PrivacyLevel(alpha)
        inside = sum((geometric_pmf(a, z) for z in range(-k, k + 1)),
                     Fraction(0))
        assert inside + 2 * geometric_tail(a, k + 1) == 1

    @given(alphas, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_tail_is_geometric_in_k(self, alpha, k):
        a = PrivacyLevel(alpha)
        assert geometric_tail(a, k + 1) == alpha * geometric_tail(a, k)


class TestSerialization:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mechanism_round_trip(self, data):
        m = data.draw(mechanisms())
        back, alpha = mechanism_from_jsonable(mechanism_to_jsonable(m))
        assert back == m
        assert alpha is None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_user_round_trip(self, data):
        u = data.draw(users(data.draw(sizes)))
        assert user_from_jsonable(user_to_jsonable(u)) == u

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_remap_round_trip(self, data):
        n = data.draw(sizes)
        y = data.draw(deterministic_remaps(tuple(range(n + 1)), n))
        assert remap_from_jsonable(remap_to_jsonable(y)) == y
