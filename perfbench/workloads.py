"""The four benchmark workloads.

Each workload turns the benchmark seed into a list of item inputs (its
set-up), runs one item by calling privopt exactly as a user would, writes
the item's output in a canonical text form for the output digest, and
checks the output for correctness after the timed loop.

Items come in rounds. A round holds one item from each of five strata:
an input size together with a privacy level or loss kind, so every run
measures the same mix whatever the seed, and the seed changes only the
priors (and, for the sweep, what the sweep draws) inside each stratum.
With five strata of distinct cost, the median item latency is the median
of the third-costliest stratum and the 90th percentile that of the
costliest; both are medians of a few dozen like items, which keeps them
steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

from privopt import (
    analysis,
    cli,
    core,
    mechanisms,
    nonoblivious,
    optlp,
    remap,
    simplex,
)
from privopt.core import LossFunction, PrivacyLevel, UserModel, format_rational

# Rounds of inputs generated in set-up. A run that gets through more
# rounds than this starts over with the same inputs.
POOL_ROUNDS = 32


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _text(v) -> str:
    """Exact canonical text: p/q for rationals, full digits for Decimals."""
    if isinstance(v, Fraction):
        return format_rational(v)
    return str(v)


def _rows_text(rows) -> str:
    return ";".join(",".join(_text(v) for v in row) for row in rows)


def _full_support_prior(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    prior = [Fraction(rng.randint(1, 64), rng.randint(1, 64))
             for _ in range(n + 1)]
    total = sum(prior)
    return tuple(p / total for p in prior)


def _partial_support_prior(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """A quarter of the entries zero, as in the verification sweep."""
    prior = [Fraction(0) if rng.random() < 0.25
             else Fraction(rng.randint(1, 64), rng.randint(1, 64))
             for _ in range(n + 1)]
    if not any(prior):
        prior[rng.randrange(n + 1)] = Fraction(1)
    total = sum(prior)
    return tuple(p / total for p in prior)


class Workload:
    """One workload. Subclasses define strata, inputs, items and checks."""

    name = ""
    why = ""
    strata: tuple = ()
    # layers whose summed self time should exceed every other layer's
    # in the traced run
    dominant: tuple[str, ...] = ()
    # when set, every span of the dominant layer must run inside a span
    # of this layer
    dominant_via: str | None = None

    def __init__(self, seed: int, workdir: Path | None = None,
                 strata: tuple | None = None):
        self.seed = seed
        self.workdir = workdir
        if strata is not None:
            self.strata = strata

    def make_inputs(self, rounds: int = POOL_ROUNDS) -> list:
        return [self.make_input(r * len(self.strata) + j, stratum)
                for r in range(rounds)
                for j, stratum in enumerate(self.strata)]

    def make_input(self, k: int, stratum):
        raise NotImplementedError

    def run(self, inp, run_index: int):
        raise NotImplementedError

    def canonical(self, inp, out) -> str:
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError


class Theorem1Sweep(Workload):
    name = "theorem1_sweep"
    why = ("the verification sweep as users run it: many small LPs with "
           "degenerate optima, through cli, analysis and serialize")
    # trial sizes per item; one round covers n = 1..8 once each, which is
    # the uniform draw of `verify theorem1 --n 8`
    strata = ((8,), (7,), (6, 1), (5, 2), (4, 3))
    dominant = ("simplex",)
    N_MAX = 8
    ALPHAS = ("1/4", "1/2", "3/4")

    def _predicted_sizes(self, sweep_seed: int, trials: int) -> tuple:
        """The n of each trial `verify theorem1` draws from sweep_seed: it
        seeds one random.Random and draws per trial n, then the alpha
        index, then the user."""
        rng = random.Random(sweep_seed)
        sizes = []
        for _ in range(trials):
            n = rng.randint(1, self.N_MAX)
            rng.randrange(len(self.ALPHAS))
            analysis.random_user(rng, n)
            sizes.append(n)
        return tuple(sizes)

    def make_input(self, k, stratum):
        """A sweep seed, derived from the benchmark seed, whose trials have
        the stratum's sizes."""
        for attempt in count():
            s = derive_seed(self.seed, self.name, k, attempt)
            if random.Random(s).randint(1, self.N_MAX) != stratum[0]:
                continue
            if self._predicted_sizes(s, len(stratum)) == stratum:
                return s, stratum

    def run(self, inp, run_index):
        sweep_seed, stratum = inp
        report = self.workdir / f"item{run_index}.json"
        csv = self.workdir / f"item{run_index}.csv"
        argv = ["verify", "theorem1", "--n", str(self.N_MAX),
                "--alphas", ",".join(self.ALPHAS),
                "--trials", str(len(stratum)), "--seed", str(sweep_seed),
                "--report", str(report), "--csv", str(csv)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        return rc, report, csv

    def _read(self, out):
        rc, report, csv = out
        data = json.loads(report.read_text()) if report.exists() else None
        text = csv.read_text() if csv.exists() else None
        return rc, data, text

    def canonical(self, inp, out):
        rc, data, text = self._read(out)
        if data is not None:
            data = {k: v for k, v in data.items() if k != "wall_clock_seconds"}
        return json.dumps([rc, data, text], sort_keys=True)

    def check(self, inp, out):
        rc, data, text = self._read(out)
        if rc != 0:
            return f"exit code {rc}"
        if data is None or text is None:
            return "report or CSV missing"
        if data["summary"].get("all_passed") is not True:
            return "report says not all trials passed"
        if len(data["trials"]) != len(inp[1]):
            return "wrong number of trials"
        return None

    def stratum_mismatches(self, inputs_and_outputs) -> int:
        """Items whose trial sizes differ from the prediction (the sweep
        changed how it draws from its seed); these still count as correct,
        but the rounds are no longer stratified."""
        bad = 0
        for inp, out in inputs_and_outputs:
            _, data, _ = self._read(out)
            if data and tuple(t["n"] for t in data["trials"]) != inp[1]:
                bad += 1
        return bad


class PerUserLP(Workload):
    name = "user_lp"
    why = ("the per-user exact LP on full-support priors: the largest "
           "tableaus, where simplex pivots dominate")
    # (n, alpha), about twice the cost of the stratum before
    strata = ((4, Fraction(3, 4)), (5, Fraction(1, 4)), (6, Fraction(1, 2)),
              (7, Fraction(1, 4)), (8, Fraction(1, 2)))
    dominant = ("simplex",)
    LOSSES = (LossFunction.absolute(), LossFunction.power(Fraction(3, 2)))

    def make_input(self, k, stratum):
        n, alpha = stratum
        rng = random.Random(derive_seed(self.seed, self.name, k))
        # the loss alternates item by item; a round has an odd length,
        # so every stratum meets both losses in turn
        u = UserModel(_full_support_prior(rng, n),
                      self.LOSSES[k % len(self.LOSSES)])
        return u, PrivacyLevel(alpha)

    def run(self, inp, run_index):
        u, level = inp
        return optlp.optimal_mechanism_for_user(u, level)

    def canonical(self, inp, sol):
        return "|".join([_rows_text(sol.mechanism.rows), _text(sol.objective),
                         _text(sol.lp_objective), str(sol.certified)])

    def check(self, inp, sol):
        u, level = inp
        if not sol.certified:
            return "vertex not certified"
        cm = analysis.constraint_matrix(sol.mechanism, level)
        if not analysis.validate_vertex_structure(cm).ok:
            return "vertex fails the structure checks"
        g = mechanisms.truncated_geometric(level, u.n)
        y = remap.optimal_remap(g, u)
        loss = core.expected_loss(core.compose(y, g), u)
        if u.loss.is_exact:
            if loss != sol.objective:
                return "LP objective differs from the remapped geometric loss"
        elif abs(loss - sol.objective) > analysis.LOSS_TOLERANCE:
            return "LP objective off the remapped geometric loss"
        return None


class RemapRoute(Workload):
    name = "remap_route"
    why = ("geometric mechanism, Bayes remap, compose and expected loss at "
           "large n; the LP never runs")
    # (n, loss, alpha)
    strata = ((14, LossFunction.absolute(), Fraction(1, 4)),
              (18, LossFunction.power(Fraction(1, 2)), Fraction(1, 2)),
              (22, LossFunction.squared(), Fraction(3, 4)),
              (26, LossFunction.power(Fraction(3, 2)), Fraction(1, 4)),
              (30, LossFunction.binary(), Fraction(1, 2)))
    dominant = ("remap", "core")

    def make_input(self, k, stratum):
        n, loss, alpha = stratum
        rng = random.Random(derive_seed(self.seed, self.name, k))
        return (UserModel(_partial_support_prior(rng, n), loss),
                PrivacyLevel(alpha))

    def run(self, inp, run_index):
        u, level = inp
        g = mechanisms.truncated_geometric(level, u.n)
        y = remap.optimal_remap(g, u)
        m = core.compose(y, g)
        return g, y, m, core.expected_loss(m, u)

    def canonical(self, inp, out):
        _, y, m, loss = out
        mapping = ",".join(str(t) for _, t in sorted(y.as_map().items()))
        return "|".join([mapping, _rows_text(m.rows), _text(loss)])

    def check(self, inp, out):
        u, level = inp
        g, _, m, loss = out
        if not core.check_row_stochastic(m).ok:
            return "composed mechanism is not row-stochastic"
        if not core.check_differential_privacy(m, level).ok:
            return "composed mechanism is not private"
        if loss > core.expected_loss(g, u):
            return "remapped loss exceeds the face-value geometric loss"
        return None


def _satisfies(x, constraints) -> bool:
    """Exact check that x >= 0 meets every constraint."""
    if any(v < 0 for v in x):
        return False
    for con in constraints:
        lhs = sum((c * v for c, v in zip(con.coeffs, x) if c), Fraction(0))
        if con.relation == simplex.LE and lhs > con.rhs:
            return False
        if con.relation == simplex.GE and lhs < con.rhs:
            return False
        if con.relation == simplex.EQ and lhs != con.rhs:
            return False
    return True


def _farkas_holds(num_vars, constraints, lam) -> bool:
    """Exact check of an infeasibility certificate: sign-correct
    multipliers whose combined row has no positive coefficient and whose
    combined right-hand side is positive."""
    if lam is None or len(lam) != len(constraints):
        return False
    combined = [Fraction(0)] * num_vars
    rhs = Fraction(0)
    for con, m in zip(constraints, lam):
        if (con.relation == simplex.LE and m > 0) or (
                con.relation == simplex.GE and m < 0):
            return False
        for j, c in enumerate(con.coeffs):
            combined[j] += m * c
        rhs += m * con.rhs
    return all(c <= 0 for c in combined) and rhs > 0


class NonOblivious(Workload):
    name = "nonoblivious"
    why = ("the two-user counterexample LP on both sides of its feasibility "
           "threshold, plus obliviate and worst-case loss")
    # (alpha of the counterexample and of the mechanism, database rows);
    # the counterexample is feasible below alpha = 1/2, infeasible from it
    strata = ((Fraction(1, 4), 5), (Fraction(1, 3), 6), (Fraction(1, 2), 7),
              (Fraction(2, 3), 8), (Fraction(3, 4), 9))
    dominant = ("simplex",)
    dominant_via = "nonoblivious"
    FEASIBLE_BELOW = Fraction(1, 2)
    LOSSES = (LossFunction.absolute(), LossFunction.power(Fraction(3, 2)))

    def __init__(self, seed, workdir=None, strata=None):
        super().__init__(seed, workdir, strata)
        self._mechanisms = {}

    def _mechanism(self, j):
        """One seeded private database-indexed mechanism per stratum,
        made once in set-up."""
        if j not in self._mechanisms:
            alpha, rows = self.strata[j]
            rng = random.Random(derive_seed(self.seed, self.name, "mech", j))
            self._mechanisms[j] = nonoblivious.random_dp_full_mechanism(
                rng, nonoblivious.binary_space(rows), PrivacyLevel(alpha))
        return self._mechanisms[j]

    def make_input(self, k, stratum):
        alpha, rows = stratum
        x = self._mechanism(self.strata.index(stratum))
        rng = random.Random(derive_seed(self.seed, self.name, k))
        u = UserModel(_full_support_prior(rng, rows),
                      self.LOSSES[k % len(self.LOSSES)])
        return alpha, x, u

    def run(self, inp, run_index):
        alpha, x, u = inp
        cert = nonoblivious.check_counterexample_infeasibility(alpha)
        m = nonoblivious.obliviate(x)
        return cert, m, nonoblivious.worst_case_expected_loss(x, u)

    def canonical(self, inp, out):
        cert, m, worst = out
        return "|".join([_text(cert.alpha), str(cert.infeasible),
                         str(cert.verified), _rows_text(m.rows), _text(worst)])

    def check(self, inp, out):
        alpha, x, u = inp
        cert, m, worst = out
        if cert.infeasible != (alpha >= self.FEASIBLE_BELOW):
            return "wrong feasibility verdict"
        nv, cons, _, _ = nonoblivious.build_counterexample_lp(alpha)
        if cert.infeasible:
            if not (cert.verified and _farkas_holds(nv, cons, cert.multipliers)):
                return "infeasibility certificate does not hold"
        elif cert.result.x is None or not _satisfies(cert.result.x, cons):
            return "feasible point violates a constraint"
        level = PrivacyLevel(alpha)
        if not (core.check_row_stochastic(m).ok
                and core.check_differential_privacy(m, level).ok):
            return "obliviated mechanism is not a private mechanism"
        # lifting m repeats its row i for every database with result i, so
        # the lift's worst-case loss is m's expected loss
        if core.expected_loss(m, u) > worst:
            return "obliviating raised the worst-case loss"
        return None


WORKLOADS = {w.name: w for w in (Theorem1Sweep, PerUserLP, RemapRoute,
                                 NonOblivious)}
