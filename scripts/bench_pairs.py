"""Run perfbench in pairs on two checkouts and summarize the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload nonoblivious --seeds 311-320 --seconds 20 --out BENCH.json

For each workload and seed, one pair runs `python3 perfbench/run.py` in
the parent checkout and in the change checkout, one after the other; the
side that runs first alternates from pair to pair. Each run keeps its
final JSON line, its outputs_sha256 and its wall seconds, timed around
the subprocess. The summary gives, per workload, each side's median and
quartiles of every end-to-end metric and of the wall time, and how many
pairs the change won (ties count for neither side). Metric directions
come from the change checkout's BENCHMARK.json. The output file is
rewritten after every pair, so an interrupted run keeps what it did.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """'311-315,400' -> [311, 312, 313, 314, 315, 400]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _commit(root: Path) -> str | None:
    """HEAD of root when root is a git checkout of its own."""
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in root: its final JSON line, digest and wall
    seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = perf_counter()
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = perf_counter() - start
    if res.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited "
                         f"{res.returncode}:\n{res.stderr}")
    lines = res.stdout.splitlines()
    digest = next((line.split("=", 1)[1].strip() for line in lines
                   if line.strip().startswith("outputs_sha256 =")), None)
    return {"wall_s": wall, "outputs_sha256": digest,
            "final": json.loads(lines[-1])}


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _value(run: dict, name: str) -> float:
    if name == "wall_s":
        return run["wall_s"]
    return run["final"]["metrics"][name]["value"]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric (wall_s included): each side's median and
    quartiles, and the pairs the change won."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue

        names = list(pairs[0]["change"]["final"]["metrics"]) + ["wall_s"]
        metrics = {}
        for name in names:
            direction = better.get(name, "lower")
            sides = {side: [_value(p[side], name) for p in pairs]
                     for side in SIDES}
            won = sum((b > a) if direction == "higher" else (b < a)
                      for a, b in zip(sides["parent"], sides["change"]))
            metrics[name] = dict(
                {side: _spread(values) for side, values in sides.items()},
                better=direction, pairs_won=won, pairs=len(pairs))
        summary[workload] = {
            "metrics": metrics,
            "outputs_equal_pairs": sum(
                p["parent"]["outputs_sha256"] == p["change"]["outputs_sha256"]
                for p in pairs),
            "runs_with_failures": sum(
                p[side]["final"]["failed"] > 0
                for p in pairs for side in SIDES)}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True,
                   help="root of the change checkout")
    p.add_argument("--workload", action="append", required=True,
                   help="perfbench workload; repeat for several")
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="one pair per seed, e.g. 311-320 or 101,202")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "about": ("perfbench/run.py --trace 0 in pairs, the side that runs "
                  "first alternating; wall_s is timed around each run"),
        "seconds": args.seconds, "python": platform.python_version(),
        "commits": {side: _commit(root) for side, root in roots.items()},
        "runs": [], "summary": {}}
    pair = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(roots[side], workload, seed, args.seconds)
                record["runs"].append(dict(r, workload=workload, seed=seed,
                                           pair=pair, side=side))
                print(f"{workload} seed {seed} {side}: "
                      f"{r['wall_s']:.1f} s wall, "
                      f"outputs_sha256 {r['outputs_sha256']}", flush=True)
            pair += 1
            record["summary"] = summarize(record["runs"], better)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
