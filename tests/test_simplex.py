"""Exact simplex behavior on small hand-checkable programs."""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from privopt import LossFunction, PrivacyLevel, UserModel, optlp, simplex
from privopt.nonoblivious import check_counterexample_infeasibility
from privopt.optlp import optimal_mechanism_for_user
from privopt.simplex import EQ, GE, LE, Constraint, solve_lp, verify_farkas

from goldens import (
    ALPHA_HALF,
    BEALE_PIVOTS,
    BENCHMARK_ALTERNATE_OPTIMA,
    BENCHMARK_PIVOTS,
    BENCHMARK_USER,
    BLAND_PIVOTS,
    COUNTEREXAMPLE_PATH_HALF,
    COUNTEREXAMPLE_PATH_QUARTER,
    MIXED_SIGN_LP,
    MIXED_SIGN_PATH,
    ROOT_ENDPOINT_PATHS,
    ROOT_ENDPOINT_USER,
    USER_8_PATH_ABSOLUTE,
    USER_8_PATH_POWER,
    USER_8_WEIGHTS,
)
from oracles import lp_vertices


def test_textbook_two_var_max():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, as min -3x - 5y
    cons = [
        Constraint((F(1), F(0)), LE, F(4)),
        Constraint((F(0), F(2)), LE, F(12)),
        Constraint((F(3), F(2)), LE, F(18)),
    ]
    res = solve_lp(2, cons, [F(-3), F(-5)])
    assert res.status == "optimal"
    assert res.x == (F(2), F(6))
    assert res.objective == -36


# classic cycling-prone instance (Beale 1955)
BEALE = [
    Constraint((F(1, 4), F(-8), F(-1), F(9)), LE, F(0)),
    Constraint((F(1, 2), F(-12), F(-1, 2), F(3)), LE, F(0)),
    Constraint((F(0), F(0), F(1), F(0)), LE, F(1)),
]
BEALE_OBJECTIVE = [F(-3, 4), F(20), F(-1, 2), F(6)]


def test_degenerate_vertex_terminates():
    res = solve_lp(4, BEALE, BEALE_OBJECTIVE)
    assert res.status == "optimal"
    assert res.objective == F(-5, 4)
    assert res.pivots == BEALE_PIVOTS


class TestBlandRule:
    """With _DEGENERATE_STREAK_LIMIT at 0 the first degenerate pivot
    switches the solve to Bland's rule for good; it must end on the same
    optimum and vertex as Dantzig's rule."""

    def test_beale(self, monkeypatch):
        dantzig = solve_lp(4, BEALE, BEALE_OBJECTIVE)
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", 0)
        bland = solve_lp(4, BEALE, BEALE_OBJECTIVE)
        assert bland.status == "optimal"
        assert (bland.x, bland.objective) == (dantzig.x, dantzig.objective)
        assert bland.pivots == BLAND_PIVOTS["beale"]

    def test_benchmark_user(self, monkeypatch):
        dantzig = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        monkeypatch.setattr(simplex, "_DEGENERATE_STREAK_LIMIT", 0)
        bland = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        assert bland.mechanism == dantzig.mechanism
        assert bland.lp_objective == dantzig.lp_objective
        assert bland.objective == dantzig.objective
        assert dantzig.pivots == BENCHMARK_PIVOTS
        assert bland.pivots == BLAND_PIVOTS["benchmark"]


def test_equality_constraints_via_phase1():
    cons = [
        Constraint((F(1), F(1), F(1)), EQ, F(1)),
        Constraint((F(1), F(-1), F(0)), EQ, F(0)),
    ]
    res = solve_lp(3, cons, [F(1), F(2), F(5)])
    assert res.status == "optimal"
    assert res.x == (F(1, 2), F(1, 2), F(0))
    assert res.objective == F(3, 2)


@pytest.mark.parametrize("tiebreak", [None, (F(0), F(-1), F(1))],
                         ids=["plain", "tiebreak"])
def test_duplicate_equality_row_is_left_empty(tiebreak):
    # the second row repeats the first, so phase 1 leaves one artificial
    # basic in a row with no structural or slack entry to pivot on
    cons = [
        Constraint((F(1), F(1), F(1)), EQ, F(2)),
        Constraint((F(1), F(1), F(1)), EQ, F(2)),
        Constraint((F(1), F(-1), F(0)), LE, F(1)),
        Constraint((F(0), F(1), F(2)), GE, F(1)),
    ]
    objective = (F(1), F(0), F(0))
    res = solve_lp(3, cons, objective, tiebreak=tiebreak)
    assert res.status == "optimal"
    vertices = lp_vertices(3, cons)
    assert res.x in vertices
    assert res.objective == min(sum(c * v for c, v in zip(objective, x))
                                for x in vertices)
    redundant = [i for i, b in enumerate(res.basis) if b >= res.width]
    assert len(redundant) == 1
    (i,) = redundant
    assert all(res.tableau_column(j)[i] == 0 for j in range(-1, res.width))


def test_unbounded_detected():
    cons = [Constraint((F(1), F(-1)), LE, F(1))]
    res = solve_lp(2, cons, [F(-1), F(0)])
    assert res.status == "unbounded"


def test_infeasible_with_verified_certificate():
    cons = [
        Constraint((F(1), F(1)), LE, F(1)),
        Constraint((F(1), F(1)), GE, F(2)),
    ]
    res = solve_lp(2, cons, [F(0), F(0)])
    assert res.status == "infeasible"
    ok, msg = verify_farkas(2, cons, res.farkas)
    assert ok, msg


def test_infeasible_equalities_certificate():
    cons = [
        Constraint((F(1), F(2)), EQ, F(1)),
        Constraint((F(2), F(4)), EQ, F(3)),
    ]
    res = solve_lp(2, cons, [F(1), F(1)])
    assert res.status == "infeasible"
    ok, msg = verify_farkas(2, cons, res.farkas)
    assert ok, msg


class TestInputChecks:
    def test_constraint_width(self):
        cons = [Constraint((F(1), F(1), F(1)), LE, F(1))]
        with pytest.raises(ValueError, match="constraint width"):
            solve_lp(2, cons, [F(1), F(1)])

    def test_objective_width(self):
        cons = [Constraint((F(1), F(1)), LE, F(1))]
        with pytest.raises(ValueError, match="objective width"):
            solve_lp(2, cons, [F(1)])

    def test_tiebreak_width(self):
        cons = [Constraint((F(1), F(1)), LE, F(1))]
        with pytest.raises(ValueError, match="tiebreak width"):
            solve_lp(2, cons, [F(1), F(1)], tiebreak=[F(1), F(1), F(1)])

    def test_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            Constraint((F(1), F(1)), "<", F(1))


def test_farkas_rejects_bogus_multipliers():
    cons = [
        Constraint((F(1), F(1)), LE, F(1)),
        Constraint((F(1), F(1)), GE, F(2)),
    ]
    ok, _ = verify_farkas(2, cons, [F(0), F(0)])
    assert not ok
    ok, _ = verify_farkas(2, cons, [F(1), F(1)])  # wrong sign on <= row
    assert not ok


def test_farkas_rejects_positive_first_column():
    # x0 - x1 >= 1 is feasible; with multiplier 1 every test passes but
    # the sign of combined coefficient 0, which is +1
    cons = [Constraint((F(1), F(-1)), GE, F(1))]
    assert verify_farkas(2, cons, [F(1)]) == (
        False, "combined coefficient 0 is positive")


def test_exactness_no_drift():
    # awkward rationals: the optimum must come back exactly
    cons = [
        Constraint((F(7, 3), F(1, 9)), LE, F(5, 7)),
        Constraint((F(1, 11), F(13, 5)), LE, F(3, 13)),
    ]
    res = solve_lp(2, cons, [F(-1), F(-1)])
    assert res.status == "optimal"
    x, y = res.x
    assert F(7, 3) * x + F(1, 9) * y <= F(5, 7)
    assert F(1, 11) * x + F(13, 5) * y <= F(3, 13)
    # one of the two constraints is tight at the optimum
    assert (F(7, 3) * x + F(1, 9) * y == F(5, 7)
            or F(1, 11) * x + F(13, 5) * y == F(3, 13))


def test_alternate_optima_reported():
    # objective parallel to a facet: a whole edge is optimal
    cons = [Constraint((F(1), F(1)), LE, F(1))]
    res = solve_lp(2, cons, [F(-1), F(-1)])
    assert res.status == "optimal"
    assert len(res.alternate_optimum_columns()) >= 1


class TestTiebreak:
    def test_selects_among_optimal_vertices(self):
        # min 0 over the square [0,1]^2: every vertex is optimal; the
        # tiebreak picks the one minimizing its own cost
        cons = [
            Constraint((F(1), F(0)), LE, F(1)),
            Constraint((F(0), F(1)), LE, F(1)),
        ]
        res = solve_lp(2, cons, [F(0), F(0)], tiebreak=[F(-1), F(-2)])
        assert res.status == "optimal"
        assert res.x == (F(1), F(1))
        res = solve_lp(2, cons, [F(0), F(0)], tiebreak=[F(1), F(-1)])
        assert res.x == (F(0), F(1))

    def test_stays_on_optimal_face(self):
        # unique optimum at (0,1); the tiebreak must not pull it away
        cons = [
            Constraint((F(1), F(1)), LE, F(1)),
        ]
        res = solve_lp(2, cons, [F(1), F(-1)], tiebreak=[F(-1), F(1)])
        assert res.status == "optimal"
        assert res.x == (F(0), F(1))
        assert res.objective == -1

    def test_face_walk_keeps_objective(self):
        # edge x + y = 1 is optimal for -x - y; tiebreak orders the edge
        cons = [Constraint((F(1), F(1)), LE, F(1))]
        res = solve_lp(2, cons, [F(-1), F(-1)], tiebreak=[F(1), F(0)])
        assert res.status == "optimal"
        assert res.objective == -1
        assert res.x == (F(0), F(1))

    def test_reduced_costs_refer_to_primary(self):
        cons = [Constraint((F(1), F(1)), LE, F(1))]
        res = solve_lp(2, cons, [F(-1), F(-1)], tiebreak=[F(1), F(0)])
        # the nonbasic structural column still has zero primary reduced
        # cost: the optimal face survives the tiebreak walk
        assert 0 in res.alternate_optimum_columns()


def _words(values):
    return None if values is None else " ".join(str(v) for v in values)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _columns_sha256(res):
    return _sha256("\n".join(_words(res.tableau_column(j))
                             for j in range(res.width)))


class TestPinnedPivotPath:
    def test_benchmark_user(self):
        sol = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
        assert sol.pivots == BENCHMARK_PIVOTS
        assert sol.alternate_optima == BENCHMARK_ALTERNATE_OPTIMA

    @pytest.mark.parametrize("alpha", sorted(ROOT_ENDPOINT_PATHS),
                             ids=str)
    def test_irrational_loss_alternate_optima(self, alpha):
        golden = ROOT_ENDPOINT_PATHS[alpha]
        sol = optimal_mechanism_for_user(ROOT_ENDPOINT_USER,
                                         PrivacyLevel(alpha))
        assert sol.pivots == golden["pivots"]
        assert sol.alternate_optima == golden["alternate_optima"]
        assert (tuple(_words(row) for row in sol.mechanism.rows)
                == golden["rows"])

    @pytest.mark.parametrize("alpha, golden", [
        (F(1, 2), COUNTEREXAMPLE_PATH_HALF),
        (F(1, 4), COUNTEREXAMPLE_PATH_QUARTER),
    ], ids=["infeasible", "feasible"])
    def test_counterexample(self, alpha, golden):
        cert = check_counterexample_infeasibility(alpha)
        res = cert.result
        assert res.pivots == golden["pivots"]
        assert _words(res.basis) == golden["basis"]
        assert _words(res.basic_values()) == golden["basic_values"]
        assert _words(cert.multipliers) == golden["multipliers"]
        assert _words(res.x) == golden["x"]
        assert _columns_sha256(res) == golden["tableau_sha256"]

    def test_mixed_sign_farkas(self):
        cons = [Constraint(*row) for row in MIXED_SIGN_LP]
        res = solve_lp(2, cons, [F(1), F(1)])
        assert res.status == "infeasible"
        assert _words(res.farkas) == MIXED_SIGN_PATH["multipliers"]
        assert res.pivots == MIXED_SIGN_PATH["pivots"]
        assert _words(res.basis) == MIXED_SIGN_PATH["basis"]
        assert _words(res.basic_values()) == MIXED_SIGN_PATH["basic_values"]
        assert (tuple(_words(res.tableau_column(j)) for j in range(res.width))
                == MIXED_SIGN_PATH["columns"])

    @pytest.mark.parametrize("loss, golden", [
        (LossFunction.absolute(), USER_8_PATH_ABSOLUTE),
        (LossFunction.power(F(3, 2)), USER_8_PATH_POWER),
    ], ids=["absolute", "power"])
    def test_user_lp(self, monkeypatch, loss, golden):
        results = []

        def solve_and_keep(*args, **kwargs):
            results.append(solve_lp(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(optlp, "solve_lp", solve_and_keep)
        prior = tuple(F(w, sum(USER_8_WEIGHTS)) for w in USER_8_WEIGHTS)
        sol = optimal_mechanism_for_user(UserModel(prior, loss), ALPHA_HALF)
        (res,) = results
        assert res.pivots == sol.pivots == golden["pivots"]
        assert sol.alternate_optima == golden["alternate_optima"]
        assert (len(res.alternate_optimum_columns())
                == golden["alternate_optima"])
        assert _words(res.basis) == golden["basis"]
        assert (_sha256(_words(res.basic_values()))
                == golden["basic_values_sha256"])
        assert _columns_sha256(res) == golden["tableau_sha256"]


_coeffs = st.integers(min_value=-3, max_value=3).map(F)


@st.composite
def _small_lps(draw):
    """2-4 variables, 1-4 mixed rows and the box x_j <= 5; some draws
    carry a tie-break."""
    k = draw(st.integers(min_value=2, max_value=4))

    def vector():
        return tuple(draw(st.lists(_coeffs, min_size=k, max_size=k)))

    cons = [Constraint(vector(), draw(st.sampled_from((LE, GE, EQ))),
                       F(draw(st.integers(min_value=-5, max_value=5))))
            for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    cons += [Constraint(tuple(F(int(i == j)) for i in range(k)), LE, F(5))
             for j in range(k)]
    objective = vector()
    tiebreak = vector() if draw(st.booleans()) else None
    return k, cons, objective, tiebreak


@given(_small_lps())
@settings(max_examples=150, deadline=None)
def test_matches_vertex_enumeration(lp):
    k, cons, objective, tiebreak = lp
    vertices = lp_vertices(k, cons)
    res = solve_lp(k, cons, objective, tiebreak=tiebreak)
    if not vertices:
        assert res.status == "infeasible"
        ok, why = verify_farkas(k, cons, res.farkas)
        assert ok, why
        return
    tb = tiebreak or (F(0),) * k

    def key(x):
        return (sum(c * v for c, v in zip(objective, x)),
                sum(c * v for c, v in zip(tb, x)))

    assert res.status == "optimal"
    assert res.x in vertices
    assert res.objective == key(res.x)[0]
    assert key(res.x) == min(map(key, vertices))
