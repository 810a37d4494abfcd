"""Span tracing from outside the program, for the traced run only.

:func:`install_seams` replaces the public entry point of each layer seam
with a wrapper, as a module (or class) attribute, and returns a function
that puts the originals back.  Each wrapper records a span — name, start,
end, parent span — and the counts named for that seam.  Spans stay in
memory; :meth:`Tracer.dump` writes them out as JSON when the run ends, and
:func:`fold` reduces them to ``{layer: {self_s, calls}}``, where a layer's
self time is its spans' duration minus the time their child spans cover.

Spans whose parent is none are the benchmark's own (``bench``): their self
time is ``bench.other_s``, so the layer self times always sum to the traced
total.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import Checks, Metrics, current_rss_mb

#: Root span name; its self time is reported as ``bench.other_s``.
ROOT_SPAN = "bench"


class Tracer:
    """In-memory span and count recorder; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": threading.get_ident(),
            }
            if attrs:
                record["attrs"] = attrs
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["layers"] = fold(self.spans)
        payload["counts"] = dict(self.counts)
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload))


class RssSampler:
    """Samples this process's resident set every ``interval`` seconds.

    Peak RSS (``ru_maxrss``) only ever grows, so it cannot say which layer
    a later peak belongs to; the sampled series can, per span.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.series: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "RssSampler":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.series.append((time.perf_counter(), current_rss_mb()))
            self._stop.wait(self.interval)

    def rise_mb(self, spans: List[dict], name: str) -> float:
        """Largest RSS rise above its start value within any ``name`` span."""
        best = 0.0
        for span in spans:
            if span["name"] != name:
                continue
            inside = [
                rss for t, rss in self.series if span["start"] <= t <= span["end"]
            ]
            before = [rss for t, rss in self.series if t <= span["start"]]
            if not inside:
                continue
            base = before[-1] if before else inside[0]
            best = max(best, max(inside) - base)
        return best


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def fold(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": n}}`` from a span list."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for span in spans:
        clipped = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
        ]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        entry = layers[span["name"]]
        entry["self_s"] += (span["end"] - span["start"]) - covered
        entry["calls"] += 1
    return dict(layers)


def traced_total(spans: List[dict]) -> float:
    """Summed duration of the root spans (one per pass or client thread)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------
def _wrap(
    tracer: Tracer,
    owner,
    attr: str,
    name: str,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable[[], None]:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        state = before(args, kwargs) if before else None
        with tracer.span(name):
            result = original(*args, **kwargs)
        if after:
            after(args, kwargs, result, state)
        return result

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


def install_seams(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer seam; returns the function that unwraps them all.

    A function imported by name into its caller's module is wrapped there,
    because that binding is the one the caller looks up.
    """
    # import_module, not ``import a.b as b``: a package may re-export a
    # function under its submodule's name (repro.rrset.prima is both).
    bundlegrd = import_module("repro.core.bundlegrd")
    welfare = import_module("repro.diffusion.welfare")
    bigcsr = import_module("repro.graph.bigcsr")
    prima = import_module("repro.rrset.prima")
    rrgen = import_module("repro.rrset.rrgen")
    sketch_store = import_module("repro.store.sketch_store")

    def ingest_done(args, kwargs, result, state):
        tracer.count("graph.ingest_records", result.records)

    def sample_before(args, kwargs):
        return args[0].total_width

    def sample_done(args, kwargs, result, collection_width):
        count = args[1] if len(args) > 1 else kwargs["count"]
        if count > 0:
            tracer.count("rrset.sets", count)
            tracer.count("rrset.members", args[0].total_width - collection_width)

    def prima_done(args, kwargs, result, state):
        tracer.count("rrset.final_sets", result.num_rr_sets)

    def forward_done(args, kwargs, result, state):
        tracer.count("diffusion.worlds", result.num_samples)

    restores = [
        _wrap(tracer, bigcsr, "ingest_edge_list", "graph.ingest", after=ingest_done),
        _wrap(tracer, bigcsr, "load_graph", "graph.load"),
        _wrap(
            tracer,
            rrgen.RRCollection,
            "generate",
            "rrset.sample",
            before=sample_before,
            after=sample_done,
        ),
        _wrap(tracer, rrgen, "build_inverted_index", "rrset.index"),
        _wrap(tracer, rrgen, "merge_inverted_index", "rrset.index"),
        _wrap(tracer, prima, "node_selection", "rrset.selection"),
        _wrap(tracer, bundlegrd, "prima", "rrset.prima", after=prima_done),
        _wrap(tracer, bundlegrd, "bundle_grd", "core.bundle_grd"),
        _wrap(
            tracer, welfare, "estimate_welfare", "diffusion.forward", after=forward_done
        ),
        _wrap(tracer, sketch_store.SketchStore, "save", "store.save"),
    ]

    def restore() -> None:
        for undo in reversed(restores):
            undo()

    return restore


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric: name -> (unit, better).  Each workload's traced
#: run prints all of them; a layer the workload never enters reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "graph.ingest_s": ("s", "lower"),
    "graph.ingest_records": ("count", "higher"),
    "graph.load_s": ("s", "lower"),
    "graph.ingest_rss_mb": ("MB", "lower"),
    "rrset.sample_s": ("s", "lower"),
    "rrset.sample_calls": ("count", "lower"),
    "rrset.sets": ("count", "lower"),
    "rrset.members": ("count", "lower"),
    "rrset.index_s": ("s", "lower"),
    "rrset.index_calls": ("count", "lower"),
    "rrset.selection_self_s": ("s", "lower"),
    "rrset.selection_calls": ("count", "lower"),
    "rrset.prima_self_s": ("s", "lower"),
    "rrset.final_share": ("ratio", "higher"),
    "rrset.prima_rss_mb": ("MB", "lower"),
    "core.bundle_grd_self_s": ("s", "lower"),
    "diffusion.forward_s": ("s", "lower"),
    "diffusion.worlds": ("count", "higher"),
    "diffusion.forward_rss_mb": ("MB", "lower"),
    "diffusion.welfare_stderr": ("utility", "lower"),
    "store.build_s": ("s", "lower"),
    "store.save_s": ("s", "lower"),
    "store.file_mb": ("MB", "lower"),
    "serving.request_self_s": ("s", "lower"),
    "serving.spread_s10_p50_ms": ("ms", "lower"),
    "serving.spread_s100_p50_ms": ("ms", "lower"),
    "serving.spread_s1000_p50_ms": ("ms", "lower"),
    "serving.seeds_p50_ms": ("ms", "lower"),
    "serving.reload_rtt_p50_ms": ("ms", "lower"),
    "serving.requests": ("count", "higher"),
    "serving.errors": ("count", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.server_cpu_s": ("s", "lower"),
    "serving.server_busy": ("ratio", "lower"),
    "serving.client_cpu_s": ("s", "lower"),
    "host.steal_share": ("ratio", "lower"),
    "host.loadavg_1m": ("load", "lower"),
    "host.nproc": ("count", "higher"),
    "bench.other_s": ("s", "lower"),
    "bench.traced_total_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}

#: Fold layer -> the per-layer metric carrying its self time.
_SELF_TIME = {
    "graph.ingest": "graph.ingest_s",
    "graph.load": "graph.load_s",
    "rrset.sample": "rrset.sample_s",
    "rrset.index": "rrset.index_s",
    "rrset.selection": "rrset.selection_self_s",
    "rrset.prima": "rrset.prima_self_s",
    "core.bundle_grd": "core.bundle_grd_self_s",
    "diffusion.forward": "diffusion.forward_s",
    "store.save": "store.save_s",
    "serving.request": "serving.request_self_s",
    ROOT_SPAN: "bench.other_s",
}


def layer_metrics(
    checks: Checks,
    tracer: Tracer,
    rss: RssSampler,
    untraced_total_s: float,
    extra: Dict[str, float],
) -> Metrics:
    """All :data:`PER_LAYER` metrics of a traced run.

    ``extra`` carries what the workload measured itself (store build time,
    server-side counters, latency medians, the welfare estimate's standard
    error, host diagnostics); the rest comes
    from the span fold, the seam counts and the RSS series.  Checks that
    the layer self times sum to the traced total.
    """
    import os

    layers = fold(tracer.spans)
    values = {name: 0.0 for name in PER_LAYER}
    for layer, entry in layers.items():
        values[_SELF_TIME[layer]] = entry["self_s"]
    for layer in ("rrset.sample", "rrset.index", "rrset.selection"):
        if layer in layers:
            values[layer + "_calls"] = layers[layer]["calls"]
    for name in (
        "graph.ingest_records",
        "rrset.sets",
        "rrset.members",
        "diffusion.worlds",
    ):
        values[name] = tracer.counts.get(name, 0.0)
    if tracer.counts.get("rrset.sets"):
        values["rrset.final_share"] = (
            tracer.counts.get("rrset.final_sets", 0.0) / tracer.counts["rrset.sets"]
        )
    values["graph.ingest_rss_mb"] = rss.rise_mb(tracer.spans, "graph.ingest")
    values["rrset.prima_rss_mb"] = rss.rise_mb(tracer.spans, "rrset.prima")
    values["diffusion.forward_rss_mb"] = rss.rise_mb(tracer.spans, "diffusion.forward")
    total = traced_total(tracer.spans)
    self_sum = sum(entry["self_s"] for entry in layers.values())
    checks.op(
        abs(self_sum - total) <= 1e-6 * max(1.0, total),
        f"layer self times sum to {self_sum} s, traced total is {total} s",
    )
    values["bench.traced_total_s"] = total
    values["bench.trace_overhead_s"] = total - untraced_total_s
    values["host.nproc"] = float(os.cpu_count() or 1)
    values.update(extra)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    metrics = Metrics()
    for name, (unit, _) in PER_LAYER.items():
        metrics.set(name, values[name], unit)
    return metrics


def traced_pass(run_pass):
    """Run ``run_pass(tracer)`` with every seam wrapped and RSS sampled.

    Returns ``(result, tracer, rss)``; the seams are unwrapped again
    whatever happens.
    """
    tracer = Tracer()
    restore = install_seams(tracer)
    try:
        with RssSampler() as rss:
            result = run_pass(tracer)
    finally:
        restore()
    return result, tracer, rss
