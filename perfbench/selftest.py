"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that every metric named in BENCHMARK.json is emitted with its unit
by both kinds of run, that a deliberately corrupted output is counted as
failed, and that the output digest repeats at the same seed. Takes a few
seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()

import run  # noqa: E402  (run.py sits beside this file)

run._use_checkout_source(ROOT)

from privopt.core import LossFunction  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Each workload shrunk to two strata that finish in milliseconds.
TINY = {
    "theorem1_sweep": ((2,), (1, 1)),
    "user_lp": ((2, Fraction(1, 2)), (3, Fraction(1, 4))),
    "remap_route": ((3, LossFunction.absolute(), Fraction(1, 2)),
                    (4, LossFunction.power(Fraction(3, 2)), Fraction(1, 4))),
    "nonoblivious": ((Fraction(1, 4), 2), (Fraction(3, 4), 3)),
}


def _args(name, trace):
    return run._parse(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])


def _tiny(name, workdir):
    wl = WORKLOADS[name](3, workdir, TINY[name])
    return wl, wl.make_inputs(rounds=2)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_metrics_emitted_with_units():
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    out_dir = ROOT / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name in WORKLOADS:
            wl, inputs = _tiny(name, Path(tmp))
            meter = run.LoadMeter()
            plain = run._plain_run(_args(name, 0), wl, inputs, meter,
                                   [(0.1, 0.01, 0.01)], min_items=2)
            got = {k: unit for k, (_, unit) in plain["metrics"].items()}
            assert got == end_to_end, (name, got)
            assert plain["failed"] == 0, (name, plain["extra"])
            traced = run._traced_run(_args(name, 1), wl, inputs, meter,
                                     Path(tmp))
            got = {k: unit for k, (_, unit) in traced["metrics"].items()}
            assert got == per_layer, (name, sorted(set(got) ^ set(per_layer)))
            assert traced["failed"] == 0, (name, traced["extra"])


def test_corrupted_output_counts_as_failed():
    wl, inputs = _tiny("remap_route", None)
    records = run._run_round(wl, inputs, 0, run.LoadMeter())
    inp, (g, y, m, loss), latency, err, factor = records[0]
    rows = [list(r) for r in m.rows]
    rows[0][0] += Fraction(1, 1000)
    bad = replace(m, rows=tuple(tuple(r) for r in rows))
    records[0] = (inp, (g, y, bad, loss), latency, err, factor)
    tally = run.Tally(wl)
    tally.add(records)
    assert len(tally.failures) == 1, tally.failures
    assert run._common_extra(tally)["failed_frac"] == 1 / len(records)


def test_digest_repeats_at_same_seed():
    digests = []
    for _ in range(2):
        wl, inputs = _tiny("user_lp", None)
        tally = run.Tally(wl)
        tally.add(run._run_round(wl, inputs, 0, run.LoadMeter()))
        assert not tally.failures, tally.failures
        digests.append(tally.digest)
    assert digests[0] == digests[1]


def main() -> int:
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
