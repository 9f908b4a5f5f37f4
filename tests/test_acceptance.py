"""Acceptance gate: one test per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -q` to get the ten PASS/FAIL
lines. Every check here also asserts, so a FAIL line comes with a red
test. Budgets are wall-clock and generous; exactness claims are exact
(Fraction equality) unless the loss table itself is irrational, in which
case agreement means within 1e-30 at 64 working digits.
"""

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction as F

import pytest

from privopt import (
    Mechanism,
    PrivacyLevel,
    check_differential_privacy,
    check_row_stochastic,
    compose,
    expected_loss,
    truncated_geometric,
)
from privopt.analysis import (
    constraint_matrix,
    random_user,
    validate_vertex_structure,
    verify_factorization,
    verify_uniqueness,
)
from privopt.mechanisms import (
    geometric_face_value_binary_loss,
    geometric_tail,
    geometric_two_point_loss,
    laplace_two_point_loss,
    two_point_loss_ratio,
)
from privopt.nonoblivious import (
    binary_space,
    build_counterexample_lp,
    check_counterexample_infeasibility,
    lift,
    obliviate,
    random_dp_full_mechanism,
    worst_case_expected_loss,
)
from privopt.optlp import optimal_mechanism_for_user
from privopt.remap import optimal_remap
from privopt.simplex import verify_farkas

from goldens import (
    ALPHA_HALF,
    BENCHMARK_GRID,
    BENCHMARK_USER,
    BENCHMARK_VERTEX,
    endpoint_user,
)
from oracles import adversarial_worst_loss, agree, brute_force_optimal_remap

TOL = F(1, 10 ** 30)
SWEEP_ALPHAS = (F(1, 4), F(1, 2), F(3, 4))


def _line(capsys, ok, label, detail=""):
    tag = "PASS" if ok else "FAIL"
    text = f"[{tag}] {label}"
    if detail:
        text += f"  ({detail})"
    with capsys.disabled():
        print(text)
    assert ok, label


@pytest.fixture(scope="session")
def sweep():
    """200 random users, n up to 8, shared by the two sweep criteria."""
    rng = random.Random(7)
    t0 = time.perf_counter()
    checks = []
    for _ in range(200):
        n = rng.randint(1, 8)
        a = PrivacyLevel(rng.choice(SWEEP_ALPHAS))
        u = random_user(rng, n)
        checks.append(verify_factorization(u, a))
    return checks, time.perf_counter() - t0


def test_benchmark_vertex_exact(capsys):
    t0 = time.perf_counter()
    sol = optimal_mechanism_for_user(BENCHMARK_USER, ALPHA_HALF)
    dt = time.perf_counter() - t0
    ok = sol.mechanism.rows == BENCHMARK_VERTEX and sol.certified and dt < 1.0
    _line(capsys, ok, "benchmark user's LP vertex equals the pinned matrix",
          f"{sol.pivots} pivots, {dt:.3f}s < 1s")


def test_benchmark_grid_and_structure(capsys):
    golden = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
    t0 = time.perf_counter()
    c = constraint_matrix(golden, ALPHA_HALF)
    rep = validate_vertex_structure(c)
    acc = rep.accounting
    dt = time.perf_counter() - t0
    grid = tuple("".join(row) for row in c.grid)
    ok = (grid == BENCHMARK_GRID and rep.ok and acc.total_slack == 1
          and acc.zero_columns == 1 and dt < 0.1)
    _line(capsys, ok, "benchmark constraint grid is symbol-exact, "
          "structure checks pass with s = z = 1", f"{dt * 1000:.1f}ms < 100ms")


def test_sweep_losses_match(capsys, sweep):
    checks, dt = sweep
    bad = [c for c in checks if not c.losses_match]
    ok = len(checks) == 200 and not bad and dt < 60.0
    _line(capsys, ok, "200-trial sweep (n <= 8): remapped geometric loss "
          "equals the LP optimum for every user", f"{dt:.1f}s < 60s")


def test_sweep_vertices_factor(capsys, sweep):
    checks, _ = sweep
    bad = [c for c in checks if not (c.structure.ok and c.reconstruction_ok)]
    ok = len(checks) == 200 and not bad
    _line(capsys, ok, "200-trial sweep: every LP vertex passes the structure "
          "checks and is rebuilt exactly as a remap of the geometric mechanism")


def test_binary_endpoint_values(capsys):
    face = geometric_face_value_binary_loss(ALPHA_HALF)
    tail = geometric_tail(ALPHA_HALF, 3)
    g = truncated_geometric(ALPHA_HALF, 5)
    u = endpoint_user(5)
    y = optimal_remap(g, u)
    after = expected_loss(compose(y, g), u)
    ok = face == F(2, 3) and tail == F(1, 12) and after == F(1, 12)
    _line(capsys, ok, "binary endpoint user: face value 2/3, after the "
          "optimal remap exactly 1/12", f"face={face}, remapped={after}")


def test_two_point_loss_comparison(capsys):
    quarter = PrivacyLevel(F(1, 4))
    geo = geometric_two_point_loss(quarter)
    lap = laplace_two_point_loss(quarter)
    ratios = {}
    closed_ok = True
    for alpha in (F(1, 4), F(1, 100), F(1, 1000)):
        r = two_point_loss_ratio(PrivacyLevel(alpha))
        ratios[alpha] = r
        closed = math.sqrt(alpha) * (1 + alpha) / (2 * alpha)
        closed_ok = closed_ok and abs(float(r) - closed) <= 1e-12
    ok = (geo == F(1, 5) and abs(float(lap) - 0.25) <= 1e-12
          and float(geo) < float(lap)
          and float(ratios[F(1, 100)]) > 5
          and float(ratios[F(1, 1000)]) > 15
          and closed_ok)
    _line(capsys, ok, "two-point loss: geometric 1/5 beats laplace 0.25 at "
          "alpha 1/4; ratio exceeds 5 at 1/100 and 15 at 1/1000 and matches "
          "sqrt(a)(1+a)/(2a) to 1e-12")


def test_remap_brute_force_agreement(capsys):
    rng = random.Random(29)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        u = random_user(rng, n)
        g = truncated_geometric(PrivacyLevel(rng.choice(SWEEP_ALPHAS)), n)
        y = optimal_remap(g, u)
        achieved = expected_loss(compose(y, g), u)
        _, best = brute_force_optimal_remap(g, u)
        if not agree(achieved, best, TOL):
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    _line(capsys, ok, "200 random users (n <= 4): Bayes remap ties the "
          "brute-force search over all deterministic remaps",
          f"{dt:.1f}s < 30s")


def test_obliviate_properties(capsys):
    rng = random.Random(31)
    t0 = time.perf_counter()
    failures = 0
    for trial in range(50):
        n = 2 + trial % 2
        sp = binary_space(n)
        a = PrivacyLevel(rng.choice(SWEEP_ALPHAS))
        x = random_dp_full_mechanism(rng, sp, a)
        u = random_user(rng, n)
        m = obliviate(x)
        good = (check_row_stochastic(m).ok
                and check_differential_privacy(m, a).ok)
        averaged = worst_case_expected_loss(lift(m, sp), u)
        original = worst_case_expected_loss(x, u)
        good = good and (averaged <= original or agree(averaged, original, TOL))
        good = good and agree(original, adversarial_worst_loss(x, u, sp), TOL)
        if not good:
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    _line(capsys, ok, "50 random database-indexed mechanisms: class "
          "averaging keeps privacy, never raises worst-case loss, and the "
          "worst case matches the enumeration oracle", f"{dt:.1f}s < 30s")


def test_two_user_incompatibility_certificate(capsys):
    t0 = time.perf_counter()
    cert = check_counterexample_infeasibility()
    nv, cons, _, _ = build_counterexample_lp(F(1, 2))
    recheck, _ = verify_farkas(nv, cons, cert.multipliers)
    dt = time.perf_counter() - t0
    ok = cert.infeasible and cert.verified and recheck and dt < 1.0
    _line(capsys, ok, "two-user instance: LP infeasible and the certificate "
          "re-verifies by exact rational arithmetic", f"{dt:.3f}s < 1s")


def test_geometric_uniqueness(capsys):
    g = truncated_geometric(ALPHA_HALF, 5)
    accepted = verify_uniqueness(ALPHA_HALF, g).equivalent
    relabelings_ok = True
    for perm in itertools.permutations(range(6)):
        rows = tuple(tuple(row[perm[k]] for k in range(6)) for row in g.rows)
        candidate = Mechanism(n=5, responses=tuple(range(6)), rows=rows)
        if not verify_uniqueness(ALPHA_HALF, candidate).equivalent:
            relabelings_ok = False
            break
    golden = Mechanism(n=5, responses=tuple(range(6)), rows=BENCHMARK_VERTEX)
    rejected = not verify_uniqueness(ALPHA_HALF, golden).equivalent
    ok = accepted and relabelings_ok and rejected
    _line(capsys, ok, "only the geometric mechanism (up to response "
          "relabeling) simultaneously serves every user: all 720 relabelings "
          "accepted, the benchmark vertex rejected")
