"""Spans around the public functions of each privopt module.

Only the traced run installs the tracer. It replaces each traced function,
in every privopt module namespace that holds it, by a wrapper that records
a span: name, start, end, parent span and item id. Spans stay in memory
and are written out when the run ends. Counters are read from the
function's public return value after the span has ended; the time spent
reading them is charged to neither the span nor its parent.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# The public functions traced, by module. They are the entry points the
# workloads reach; helpers called thousands of times per item stay
# untraced, and their time counts as their caller's self time.
TRACED = {
    "cli": ("main",),
    "serialize": ("write_json",),
    "analysis": ("verify_factorization", "constraint_matrix",
                 "validate_vertex_structure",
                 "derive_remap_from_constraint_matrix", "random_user"),
    "optlp": ("optimal_mechanism_for_user", "build_lp", "solve_vertex",
              "tight_set"),
    "simplex": ("solve_lp", "verify_farkas"),
    "remap": ("optimal_remap",),
    "core": ("compose", "expected_loss", "check_row_stochastic",
             "check_differential_privacy"),
    "mechanisms": ("truncated_geometric",),
    "nonoblivious": ("build_counterexample_lp",
                     "check_counterexample_infeasibility", "obliviate",
                     "worst_case_expected_loss", "check_full_row_stochastic"),
}

LAYERS = tuple(TRACED)
PACKAGE = "privopt"


def _solve_lp_counts(args, kwargs, result):
    """Pivots, tableau shape and the largest final tableau entry in bits
    (numerator or denominator), read through SimplexResult.tableau_column
    over the nonbasic columns and basic_values; basic columns are unit
    vectors."""
    basic = set(result.basis)
    bits = 0
    entries = [result.basic_values()]
    entries += [result.tableau_column(j) for j in range(result.width)
                if j not in basic]
    for col in entries:
        for v in col:
            bits = max(bits, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return {"pivots": result.pivots, "rows": len(result.basis),
            "cols": result.width, "final_tableau_bits_max": bits}


def _solve_vertex_counts(args, kwargs, result):
    return {"alternate_optima": result.alternate_optima}


def _write_json_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


COUNTERS = {
    "simplex.solve_lp": _solve_lp_counts,
    "optlp.solve_vertex": _solve_vertex_counts,
    "serialize.write_json": _write_json_counts,
}

# Counter names and units, reported per call (mean) or over the run (max).
COUNTER_METRICS = (
    ("simplex.solve_lp", "pivots", "count", "mean"),
    ("simplex.solve_lp", "final_tableau_bits_max", "bit", "max"),
    ("simplex.solve_lp", "rows", "count", "mean"),
    ("simplex.solve_lp", "cols", "count", "mean"),
    ("optlp.solve_vertex", "alternate_optima", "count", "mean"),
    ("serialize.write_json", "bytes", "B", "mean"),
)


class Tracer:
    """Records spans while installed. Single-threaded by design: the
    benchmark runs one item at a time in one thread."""

    def __init__(self):
        # span: [name, start, end, parent, item, covered, counts]
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.item, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[2] = perf_counter()
                if counter is not None:
                    span[6] = counter(args, kwargs, result)
                return result
            finally:
                if not span[2]:
                    span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += perf_counter() - start

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        return [end - start - covered
                for _, start, end, _, _, covered, _ in self.spans]

    def summary(self, items: int) -> tuple[dict, dict]:
        """Per-layer metrics, per traced item, and self seconds by layer."""
        per_item = max(items, 1)
        calls, self_s = {}, {}
        counts: dict[tuple[str, str], list] = {}
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            for key, value in (span[6] or {}).items():
                counts.setdefault((name, key), []).append(value)
        metrics = {}
        layer_s = {layer: 0.0 for layer in LAYERS}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                metrics[f"{name}.calls"] = (calls.get(name, 0) / per_item,
                                            "count")
                metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / per_item,
                                             "s")
                layer_s[layer] += self_s.get(name, 0.0)
        for name, key, unit, how in COUNTER_METRICS:
            values = counts.get((name, key), [])
            if not values:
                value = 0
            elif how == "max":
                value = max(values)
            else:
                value = sum(values) / len(values)
            metrics[f"{name}.{key}"] = (value, unit)
        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = (layer_s[layer] / per_item, "s")
        return metrics, layer_s

    def all_inside(self, layer: str, via: str) -> bool:
        """Whether every span of one layer has an ancestor in another."""
        for span in self.spans:
            if not span[0].startswith(layer + "."):
                continue
            parent = span[3]
            while parent >= 0 and not self.spans[parent][0].startswith(via + "."):
                parent = self.spans[parent][3]
            if parent < 0:
                return False
        return True

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item, covered, counts) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item,
                                     "self_s": end - start - covered,
                                     "counts": counts}) + "\n")


def dominant_ok(layer_s: dict, predicted: tuple[str, ...]) -> bool:
    """Whether the predicted layers together spend more self time than
    any other single layer."""
    ours = sum(layer_s[layer] for layer in predicted)
    others = [v for layer, v in layer_s.items() if layer not in predicted]
    return ours > max(others, default=0.0)
