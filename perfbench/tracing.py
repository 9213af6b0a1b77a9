"""Per-layer timing from outside the program.

The program is never edited.  A traced pass replaces public functions with
timing wrappers at the module attributes where their callers look them up
(``strongdim.cli.*``, ``strongdim.jahangir.*``, ``strongdim.strong_metric.*``),
records one span per call and restores the originals afterwards.  Spans are
kept in memory as ``(name, start, end, parent)`` and written out at the end.

Each wrap point belongs to a layer category; a category's time is the *self*
time of its spans (duration minus the time covered by child spans), so the
self times of all categories plus the harness's own self time add up to the
traced pass exactly.  A category none of whose wrap points exists any more is
reported as unmeasured instead of silently folding into its caller.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from statistics import median
from types import ModuleType
from typing import Any, Callable

# (module, attribute, category).  Every attribute listed here exists at the
# commit that defined the benchmark; one that disappears is reported.
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli.self"),
    ("cli", "build_jahangir", "graphs.build"),
    ("cli", "sdim_formula", "jahangir.predict"),
    ("cli", "verify_predictions", "jahangir.verify_self"),
    ("cli", "sdim_via_cover", "strong_metric.pipeline_self"),
    ("cli", "brute_force_sdim", "strong_metric.brute"),
    ("jahangir", "build_jahangir", "graphs.build"),
    ("jahangir", "build_graph", "graphs.build"),
    ("jahangir", "all_pairs_distances", "graphs.apsp"),
    ("jahangir", "strong_resolving_graph", "strong_metric.srg"),
    ("jahangir", "exact_min_vertex_cover", "vertex_cover.exact"),
    ("jahangir", "is_strong_resolving_set", "strong_metric.recheck"),
    ("jahangir", "brute_force_sdim", "strong_metric.brute"),
    ("jahangir", "sdim_formula", "jahangir.predict"),
    ("jahangir", "srg_edge_families_even", "jahangir.predict"),
    ("jahangir", "srg_edge_families_odd", "jahangir.predict"),
    ("jahangir", "predicted_srg_edges_even", "jahangir.predict"),
    ("jahangir", "predicted_srg_edges_odd", "jahangir.predict"),
    ("jahangir", "predicted_cover_even", "jahangir.predict"),
    ("jahangir", "predicted_cover_odd", "jahangir.predict"),
    ("jahangir", "extremal_distance_pairs", "jahangir.predict"),
    ("jahangir", "measured_distance_pairs", "jahangir.measure"),
    ("strong_metric", "build_graph", "graphs.build"),
    ("strong_metric", "all_pairs_distances", "graphs.apsp"),
    ("strong_metric", "is_connected", "graphs.connected"),
    ("strong_metric", "is_strong_resolving_set", "strong_metric.recheck"),
    ("strong_metric", "mmd_pairs", "strong_metric.srg"),
    ("strong_metric", "strong_resolving_graph", "strong_metric.srg"),
    ("strong_metric", "exact_min_vertex_cover", "vertex_cover.exact"),
    ("strong_metric", "sdim_via_cover", "strong_metric.pipeline_self"),
    ("strong_metric", "brute_force_sdim", "strong_metric.brute"),
)

HARNESS = "bench.harness"  # the root span of every traced pass
CATEGORY_OF = {f"{mod}.{attr}": cat for mod, attr, cat in WRAP_POINTS} | {HARNESS: HARNESS}

# time categories in report order; each gets `<category>_s` and `<category>_share`
CATEGORIES: tuple[str, ...] = (
    "graphs.build",
    "graphs.apsp",
    "graphs.connected",
    "strong_metric.recheck",
    "strong_metric.srg",
    "strong_metric.pipeline_self",
    "strong_metric.brute",
    "vertex_cover.exact",
    "jahangir.verify_self",
    "jahangir.predict",
    "jahangir.measure",
    "cli.self",
    HARNESS,
)


def _pair_rank(n: int, u: int, v: int) -> int:
    """0-based position of the pair (u, v), u < v, in lexicographic pair order."""
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def brute_subsets_tested(n: int, basis: tuple[int, ...]) -> int:
    """Subsets ``brute_force_sdim`` tried before returning ``basis``.

    It enumerates subsets by size, lexicographically within a size, and stops
    at the first strong resolving set, so the count is every smaller subset
    plus the lexicographic rank of the basis among its size, plus one.
    """
    k = len(basis)
    tried = sum(comb(n, j) for j in range(k))
    rank, prev = 0, -1
    for i, b in enumerate(basis):
        for skipped in range(prev + 1, b):
            rank += comb(n - 1 - skipped, k - 1 - i)
        prev = b
    return tried + rank + 1


def _recheck_pairs(args: tuple, result: Any) -> int:
    n = args[0].vertex_count
    ok, witness = result
    if ok:
        return n * (n - 1) // 2
    return _pair_rank(n, *witness) + 1


# counter name -> (wrapped attribute whose calls it reads, extractor(args, result))
COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "graphs.apsp_calls": ("all_pairs_distances", lambda args, result: 1),
    "graphs.connected_calls": ("is_connected", lambda args, result: 1),
    "strong_metric.recheck_pairs": ("is_strong_resolving_set", _recheck_pairs),
    "strong_metric.srg_edges": ("strong_resolving_graph", lambda args, result: result.edge_count()),
    "strong_metric.brute_subsets": (
        "brute_force_sdim",
        lambda args, result: brute_subsets_tested(args[0].vertex_count, result.basis),
    ),
    "vertex_cover.nodes": ("exact_min_vertex_cover", lambda args, result: result.nodes_explored),
}


@dataclass
class Tracer:
    """Installs the wrappers for one pass at a time and keeps every span."""

    modules: dict[str, ModuleType]
    spans: list[list] = field(default_factory=list)  # [name, start, end, parent]
    counts: list[dict[str, int]] = field(default_factory=list)  # one dict per pass
    counter_errors: dict[str, str] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.present = [
            (mod, attr, cat)
            for mod, attr, cat in WRAP_POINTS
            if callable(getattr(self.modules.get(mod), attr, None))
        ]
        self.missing = [
            f"strongdim.{mod}.{attr}"
            for mod, attr, cat in WRAP_POINTS
            if (mod, attr, cat) not in self.present
        ]
        measured = {cat for _, _, cat in self.present} | {HARNESS}
        self.unmeasured = [cat for cat in CATEGORIES if cat not in measured]
        wrapped_attrs = {attr for _, attr, _ in self.present}
        self.unmeasured_counters = [
            counter for counter, (attr, _) in COUNTERS.items() if attr not in wrapped_attrs
        ]
        self.pass_roots: list[int] = []

    def _wrap(self, mod: str, attr: str, fn: Callable) -> Callable:
        name = f"{mod}.{attr}"
        spans, stack = self.spans, self._stack
        counters = [
            (counter, extract) for counter, (source, extract) in COUNTERS.items() if source == attr
        ]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, extract in counters:
                self._count(counter, extract, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter: str, extract: Callable, args: tuple, result: Any) -> None:
        # a refactor may change a return type; report the counter, keep running
        try:
            value = extract(args, result)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            self.counter_errors.setdefault(counter, f"{type(exc).__name__}: {exc}")
            return
        current = self.counts[-1]
        current[counter] = current.get(counter, 0) + value

    def run_pass(self, body: Callable[[], None]) -> float:
        """Run ``body`` with every wrapper installed; return the pass's wall time."""
        saved = []
        for mod, attr, _ in self.present:
            module = self.modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(mod, attr, original))
        self.counts.append({})
        root = [HARNESS, 0.0, 0.0, -1]
        self.pass_roots.append(len(self.spans))
        self.spans.append(root)
        self._stack.append(self.pass_roots[-1])
        try:
            root[1] = time.perf_counter()
            body()
            root[2] = time.perf_counter()
        finally:
            self._stack.pop()
            for module, attr, original in saved:
                setattr(module, attr, original)
        return root[2] - root[1]

    def self_times(self) -> list[dict[str, float]]:
        """Per traced pass, the self time of each category."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        bounds = self.pass_roots + [len(self.spans)]
        passes = []
        for lo, hi in zip(bounds, bounds[1:]):
            totals = dict.fromkeys(CATEGORIES, 0.0)
            for i in range(lo, hi):
                name, start, end, _ = self.spans[i]
                totals[CATEGORY_OF[name]] += (end - start) - child_time[i]
            passes.append(totals)
        return passes

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]``; parent -1 marks a pass root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def layer_metrics(
    tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]
) -> tuple[dict[str, tuple[float | None, str]], dict[str, Any]]:
    """Per-layer metrics (median per traced pass) and a summary of the trace."""
    passes = tracer.self_times()
    total_wall = sum(traced_walls)
    metrics: dict[str, tuple[float | None, str]] = {}
    for cat in CATEGORIES:
        if cat in tracer.unmeasured:
            metrics[f"{cat}_s"] = (None, "s")
            metrics[f"{cat}_share"] = (None, "%")
            continue
        metrics[f"{cat}_s"] = (median(p[cat] for p in passes), "s")
        metrics[f"{cat}_share"] = (100.0 * sum(p[cat] for p in passes) / total_wall, "%")
    for counter in COUNTERS:
        if counter in tracer.unmeasured_counters or counter in tracer.counter_errors:
            metrics[counter] = (None, "count")
        else:
            metrics[counter] = (median(c.get(counter, 0) for c in tracer.counts), "count")
    exact_total = sum(p["vertex_cover.exact"] for p in passes)
    nodes_total = sum(c.get("vertex_cover.nodes", 0) for c in tracer.counts)
    if metrics["vertex_cover.nodes"][0] is None or exact_total == 0.0:
        metrics["vertex_cover.nodes_per_s"] = (None, "1/s")
    else:
        metrics["vertex_cover.nodes_per_s"] = (nodes_total / exact_total, "1/s")
    overheads = [t - u for t, u in zip(traced_walls, untraced_walls)]
    metrics["trace.pass_s"] = (median(traced_walls), "s")
    metrics["trace.untraced_pass_s"] = (median(untraced_walls), "s")
    metrics["trace.overhead_s"] = (median(overheads), "s")
    metrics["trace.overhead_share"] = (100.0 * median(overheads) / median(untraced_walls), "%")
    accounted = sum(sum(p.values()) for p in passes)
    summary = {
        "traced_passes": len(passes),
        "spans": len(tracer.spans),
        "accounted_share_pct": 100.0 * accounted / total_wall,
        "missing_wrap_points": tracer.missing,
        "unmeasured_layers": tracer.unmeasured,
        "unmeasured_counters": tracer.unmeasured_counters,
        "counter_errors": tracer.counter_errors,
    }
    return metrics, summary
