"""privopt benchmark: one workload, one process, one thread, closed loop.

Run from the root of a privopt checkout:

    python3 perfbench/run.py --workload user_lp --seed 1 --seconds 20 --trace 0

The benchmark imports privopt from the checkout's src/, makes the
workload's inputs from --seed, then runs items one at a time (a closed
loop with one client) in whole rounds until --seconds of measured time
have passed and at least MIN_ITEMS items are done. Each round's outputs
are checked after the round, with the clock stopped.

Timings are corrected for load from other processes on the machine (see
LoadMeter); the uncorrected figures are printed beside them.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds traced by spans around the public functions of each
privopt module, and reports the per-layer metrics and the tracing
overhead. Either way the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The lines before it
print every metric by name with its unit, failed_frac, the output digest
and the run's metadata. Spans and a full record of the run go to
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

MIN_ITEMS = 100          # leaves at least ten samples above the p90
MAX_LOOP_SECONDS = 120   # the loop stops here even short of MIN_ITEMS
SETUP_REPEATS = 7
OUT_DIR = ".bench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_checkout_source(root: Path) -> None:
    """Import privopt from root/src and nowhere else."""
    src = root / "src"
    if not (src / "privopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no privopt package under {src}; run from "
                         "the root of a privopt checkout")
    sys.path.insert(0, str(src))
    import privopt
    if Path(privopt.__file__).resolve().parent != (src / "privopt").resolve():
        raise SystemExit(f"error: privopt was imported from {privopt.__file__},"
                         f" not from {src}")


# Time of one LoadMeter probe on an unloaded vCPU of a 2.1 GHz Xeon host.
PROBE_REFERENCE_S = 0.010


class LoadMeter:
    """How fast the machine runs this process, moment by moment.

    On a shared machine, other processes slow this one by up to twofold
    for seconds at a time, which moves a 20-second figure by a quarter
    from run to run. The meter times a fixed piece of exact arithmetic,
    much like privopt's own, before and after each timed span, and the
    span's time is scaled by PROBE_REFERENCE_S over the mean of its two
    probes: timings come out in seconds of a machine on which the probe
    takes PROBE_REFERENCE_S. The probe runs no privopt code.
    """

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 2500):
            acc += Fraction(i % 89 + 1, i % 97 + 2) * Fraction(3, i % 7 + 1)
        seconds = perf_counter() - start
        self.probes.append(seconds)
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        return PROBE_REFERENCE_S / ((before + after) / 2)


def _setup(args, workdir=None):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, workdir)
    return wl, wl.make_inputs()


def _time_setups(args, root: Path, meter: LoadMeter) -> list[tuple]:
    """Seconds from starting a fresh interpreter until it has imported
    privopt and made the inputs, once per repeat, with the probes taken
    around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = meter.probe()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            rc = child.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up run failed with exit code {rc}")
        samples.append((ready - start, before, meter.probe()))
    return samples


def _run_round(wl, inputs, first_index, meter: LoadMeter, tracer=None):
    """Run one round, one item per stratum, starting at item first_index,
    with a probe before the first item and after each. Returns records
    (input, output or None, latency, error, load factor)."""
    records = []
    before = meter.probe()
    for k in range(first_index, first_index + len(wl.strata)):
        inp = inputs[k % len(inputs)]
        if tracer is not None:
            tracer.item = k
        t0 = perf_counter()
        try:
            out, err = wl.run(inp, k), None
        except Exception as e:  # a failed item, counted, not fatal
            out, err = None, f"{type(e).__name__}: {e}"
        latency = perf_counter() - t0
        after = meter.probe()
        records.append((inp, out, latency, err, meter.factor(before, after)))
        before = after
    return records


class Tally:
    """What the rounds of a run leave once their outputs are checked:
    item latencies with their load factors, failures and the output
    digest. Each round is checked with the clock stopped and its outputs
    dropped, so memory does not grow with the length of the run."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.failures: list[str] = []
        self.digest = None
        self.stratum_mismatches = 0

    @property
    def items(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def add(self, records):
        wl = self.wl
        for inp, out, latency, err, factor in records:
            self.latencies.append(latency)
            self.factors.append(factor)
            if err is None:
                try:
                    err = wl.check(inp, out)
                except Exception as e:  # a checker crash fails the item too
                    err = f"check raised {type(e).__name__}: {e}"
            if err is not None:
                self.failures.append(err)
        if self.digest is None:
            self.digest = _digest(wl, records)
        if hasattr(wl, "stratum_mismatches"):
            self.stratum_mismatches += wl.stratum_mismatches(
                (inp, out) for inp, out, _, err, _ in records if err is None)

    def item_latencies(self, corrected: bool = True) -> list[float]:
        if not corrected:
            return list(self.latencies)
        return [lat * f for lat, f in zip(self.latencies, self.factors)]

    def items_per_s(self, corrected: bool = True) -> float:
        return self.items / sum(self.item_latencies(corrected))


def _digest(wl, records) -> str:
    """sha256 over the canonical outputs of a run's first round, which
    depend on the seed alone."""
    h = hashlib.sha256()
    for inp, out, _, err, _ in records:
        h.update((wl.canonical(inp, out) if err is None else "error").encode())
        h.update(b"\n")
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _metadata(root: Path) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(), "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(), "git_commit": _git_commit(root),
            "src_lines": src_lines}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    _use_checkout_source(root)
    if args.setup_only:
        _setup(args)
        print("ready", flush=True)
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose "
                         f"from {', '.join(WORKLOADS)}")

    meter = LoadMeter()
    setup_samples = _time_setups(args, root, meter)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl, inputs = _setup(args, workdir)
        if args.trace:
            result = _traced_run(args, wl, inputs, meter, out_dir)
        else:
            result = _plain_run(args, wl, inputs, meter, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = result["metrics"], result["extra"]
    meta = _metadata(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, 1 thread")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for key, value in extra.items():
        print(f"  {key} = {value}")
    final = {"correct": result["failed"] == 0,
             "attempted": result["attempted"], "failed": result["failed"],
             "metrics": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}}
    record = dict(final, workload=args.workload, seed=args.seed,
                  trace=args.trace, meta=meta, extra=extra,
                  samples=result["samples"])
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(final))
    return 0


def _common_extra(first: Tally, *more: Tally) -> dict:
    items = first.items + sum(t.items for t in more)
    failures = first.failures + [f for t in more for f in t.failures]
    extra = {"items": items, "failed_frac": len(failures) / items,
             "outputs_sha256": first.digest}
    if failures:
        extra["first_failure"] = failures[0]
    if hasattr(first.wl, "stratum_mismatches"):
        extra["stratum_mismatches"] = first.stratum_mismatches + sum(
            t.stratum_mismatches for t in more)
    return extra


def _samples(meter: LoadMeter, *tallies: Tally) -> dict:
    return {"probe_s": meter.probes,
            "item_s": [t.latencies for t in tallies],
            "factor": [t.factors for t in tallies]}


def _plain_run(args, wl, inputs, meter, setup_samples,
               min_items: int = MIN_ITEMS) -> dict:
    """Whole rounds until --seconds of measured time and min_items."""
    tally = Tally(wl)
    start = perf_counter()
    while True:
        tally.add(_run_round(wl, inputs, tally.items, meter))
        if tally.seconds >= args.seconds and tally.items >= min_items:
            break
        if perf_counter() - start >= MAX_LOOP_SECONDS:
            break
    metrics, extra = {}, {}
    for corrected in (True, False):
        latencies = tally.item_latencies(corrected)
        setup = statistics.median(
            s * (meter.factor(b, a) if corrected else 1.0)
            for s, b, a in setup_samples)
        p90 = statistics.quantiles(latencies, n=10)[8]
        figures = {"setup_s": (setup, "s"),
                   "items_per_s": (tally.items_per_s(corrected), "1/s"),
                   "item_p50_s": (statistics.median(latencies), "s"),
                   "item_p90_s": (p90, "s")}
        if corrected:
            metrics.update(figures)
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
            extra["samples_above_p90"] = sum(1 for v in latencies if v > p90)
        else:
            extra.update((f"uncorrected_{k}", v)
                         for k, (v, _) in figures.items())
    extra["load_factor_median"] = statistics.median(tally.factors)
    extra.update(_common_extra(tally))
    return {"metrics": metrics, "extra": extra,
            "failed": len(tally.failures), "attempted": tally.items,
            "samples": dict(_samples(meter, tally), setup=setup_samples)}


def _traced_run(args, wl, inputs, meter, out_dir: Path) -> dict:
    """Rounds alternate between untraced and traced, so that both see the
    same inputs and the same machine, until --seconds have passed."""
    from tracer import Tracer, dominant_ok
    tracer = Tracer()
    plain, traced = Tally(wl), Tally(wl)
    while not (traced.items and plain.seconds + traced.seconds >= args.seconds):
        first = plain.items + traced.items
        if plain.items <= traced.items:
            plain.add(_run_round(wl, inputs, first, meter))
        else:
            tracer.install()
            try:
                records = _run_round(wl, inputs, first, meter, tracer)
            finally:
                tracer.uninstall()
            traced.add(records)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics, layer_s = tracer.summary(traced.items)
    ok = dominant_ok(layer_s, wl.dominant)
    if ok and wl.dominant_via:
        ok = all(tracer.all_inside(layer, wl.dominant_via)
                 for layer in wl.dominant)
    metrics["trace.overhead_frac"] = (
        plain.items_per_s() / traced.items_per_s() - 1, "ratio")
    metrics["trace.dominant_ok"] = (int(ok), "count")
    extra = _common_extra(plain, traced)
    top = max(layer_s, key=layer_s.get)
    extra["dominant_layer"] = top
    extra["dominant_prediction"] = "+".join(wl.dominant) + (
        f" via {wl.dominant_via}" if wl.dominant_via else "")
    extra["dominant_matches"] = ok
    if not ok:
        print(f"warning: dominant layer is {top}, predicted "
              f"{extra['dominant_prediction']}", file=sys.stderr)
    return {"metrics": metrics, "extra": extra,
            "failed": len(plain.failures) + len(traced.failures),
            "attempted": plain.items + traced.items,
            "samples": _samples(meter, plain, traced)}


if __name__ == "__main__":
    sys.exit(main())
