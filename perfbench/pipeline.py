"""pipeline-100k: raw edge list → mmap'd ``.graph`` → bundleGRD → welfare.

The ROADMAP yardstick at a size that fits many runs: a SNAP-style text
edge list of 100k nodes and 800k uniform-endpoint records (self-loops and
duplicates included) is streamed through ``ingest_edge_list``, memory-mapped
back with ``load_graph``, allocated by ``bundle_grd`` (two-item config 1,
budgets [100, 50]) and evaluated by ``estimate_welfare`` over 400 batched
worlds.  At n = 100k the sampler's dense visited bitmap allows only a few
hundred concurrent walks per chunk, so RR sampling is most of the run and
the inverted-index sort most of the rest: this is where the sampler,
mmap-view, index and ingest work of the ROADMAP shows.

Set-up is what every run of this pipeline pays before its input is
touched: a cold interpreter importing the pipeline's modules.  One import
is a fraction of a second, so ``setup_s`` is the median of many, which
together cover seconds of work.

A run makes one timed pass of fixed work.  At full size that pass alone
runs longer than ``--seconds``, which this workload therefore does not
use.  Determinism is checked by the traced run, which repeats the
untraced pass with tracing on and compares the two.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Tuple

import inputs
from common import (
    WORK,
    Checks,
    HostProbe,
    Metrics,
    child_env,
    derive_seed,
    median,
    peak_rss_mb,
    print_named,
)
from outputs import check_allocation, check_welfare


@dataclass(frozen=True)
class Size:
    nodes: int
    records: int
    budgets: Tuple[int, ...]
    worlds: int
    setup_reps: int


SIZES = {
    "full": Size(
        nodes=100_000, records=800_000, budgets=(100, 50), worlds=400, setup_reps=15
    ),
    "toy": Size(nodes=2_000, records=16_000, budgets=(10, 5), worlds=40, setup_reps=2),
}
#: The warm-up instance run untimed before any timed pass.
WARMUP = SIZES["toy"]
#: Ingests beyond the pass's: ingest is a few seconds of the pass, so its
#: rate is the median over these and the pass's own.
EXTRA_INGESTS = 2
CONFIG = 1

_IMPORTS = (
    "import repro.graph.bigcsr, repro.core.bundlegrd, "
    "repro.diffusion.welfare, repro.experiments.configs"
)


@dataclass
class Pass:
    ingest_s: float
    allocate_s: float
    forward_s: float
    total_s: float
    stats: object
    result: object
    estimate: object


def _cold_import_s() -> float:
    # No timeout: waiting with one polls the child in steps of up to 50 ms,
    # which would quantise a quarter-second import.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORTS], env=child_env(), check=True)
    return time.perf_counter() - t0


def _run_pass(edges, graph_path, size: Size, seed: int, tracer=None) -> Pass:
    import repro.core.bundlegrd as bundlegrd
    import repro.diffusion.welfare as welfare
    import repro.graph.bigcsr as bigcsr
    from repro.engine import EngineContext
    from repro.experiments.configs import two_item_config

    model = two_item_config(CONFIG).model
    with tracer.span("bench") if tracer else nullcontext():
        t0 = time.perf_counter()
        stats = bigcsr.ingest_edge_list(edges, graph_path)
        t1 = time.perf_counter()
        graph = bigcsr.load_graph(graph_path)
        result = bundlegrd.bundle_grd(
            graph,
            list(size.budgets),
            ctx=EngineContext.create(seed=derive_seed(seed, 1)),
        )
        t2 = time.perf_counter()
        estimate = welfare.estimate_welfare(
            graph,
            model,
            result.allocation,
            num_samples=size.worlds,
            ctx=EngineContext.create(seed=derive_seed(seed, 2)),
        )
        t3 = time.perf_counter()
    return Pass(t1 - t0, t2 - t1, t3 - t2, t3 - t0, stats, result, estimate)


def _ingest_again(checks: Checks, edges, graph_path, expected) -> float:
    import repro.graph.bigcsr as bigcsr

    t0 = time.perf_counter()
    stats = bigcsr.ingest_edge_list(edges, graph_path)
    seconds = time.perf_counter() - t0
    checks.op(stats == expected, "a repeated ingest reported other statistics")
    return seconds


def _check_pass(checks: Checks, p: Pass, meta: dict, graph_path, size: Size) -> None:
    from repro.graph.bigcsr import GraphFileError, load_graph, read_graph_header
    from repro.graph.io import graph_fingerprint

    stats = p.stats
    checks.op(
        (stats.records, stats.self_loops, stats.num_edges, stats.num_nodes)
        == (meta["records"], meta["self_loops"], meta["edges"], meta["num_nodes"]),
        f"ingest stats {stats} disagree with the generated input {meta}",
    )
    try:
        verified = load_graph(graph_path, verify=True)
        recorded = read_graph_header(graph_path)["meta"]["fingerprint"]
        checks.op(
            graph_fingerprint(verified) == recorded,
            "loaded graph does not hash to the ingest fingerprint",
        )
    except GraphFileError as exc:
        checks.op(False, f"load_graph(verify=True) failed: {exc}")
    check_allocation(checks, "bundle_grd", p.result, size.budgets, meta["num_nodes"])


def run(
    seed: int, seconds: float, trace: bool, size_name: str, checks: Checks
) -> Metrics:
    size = SIZES[size_name]
    host = HostProbe()
    edges, meta = inputs.edge_list(size.nodes, size.records, seed)
    warm_edges, _ = inputs.edge_list(WARMUP.nodes, WARMUP.records, seed)

    setup = [_cold_import_s() for _ in range(size.setup_reps)]

    workdir = WORK / f"run-{size_name}-pipeline-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    graph_path = workdir / "input.graph"
    try:
        _run_pass(warm_edges, workdir / "warmup.graph", WARMUP, seed)
        if trace:
            return _traced(seed, size, edges, meta, graph_path, host, checks)
        p = _run_pass(edges, graph_path, size, seed)
        _check_pass(checks, p, meta, graph_path, size)
        ingest_s = [p.ingest_s] + [
            _ingest_again(checks, edges, workdir / "again.graph", p.stats)
            for _ in range(EXTRA_INGESTS)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    welfare = p.estimate.mean
    check_welfare(checks, "pipeline-100k", size_name, seed, welfare, p.estimate.stderr)

    ingest_rate = median([size.records / t for t in ingest_s])
    forward_rate = size.worlds / p.forward_s
    rss = peak_rss_mb()
    print_named("setup_s", median(setup), "s", f"median of {len(setup)} cold imports")
    print_named("total_s", p.total_s, "s", "one pass")
    print_named(
        "ingest_edges_per_s", ingest_rate, "1/s",
        f"{size.records} records, median of {len(ingest_s)} ingests",
    )
    print_named("allocate_s", p.allocate_s, "s", "load_graph + bundle_grd")
    print_named("forward_worlds_per_s", forward_rate, "1/s", f"{size.worlds} worlds")
    print_named("welfare", welfare, "utility", f"stderr {p.estimate.stderr:.4g}")
    print_named("peak_rss_mb", rss, "MB")
    print_named("error_rate", checks.error_rate, "ratio", f"{checks.attempted} ops")
    print_named("host.steal_share", host.steal_share(), "ratio")
    print_named("host.loadavg_1m", host.loadavg_1m(), "load")

    metrics = Metrics()
    metrics.set("setup_s", median(setup), "s")
    metrics.set("total_s", p.total_s, "s")
    metrics.set("throughput_per_s", ingest_rate, "1/s")
    metrics.set("peak_rss_mb", rss, "MB")
    metrics.set("welfare", welfare, "utility")
    return metrics


def _traced(seed, size, edges, meta, graph_path, host, checks) -> Metrics:
    from tracing import layer_metrics, traced_pass

    untraced = _run_pass(edges, graph_path, size, seed)
    _check_pass(checks, untraced, meta, graph_path, size)
    traced, tracer, rss = traced_pass(
        lambda tracer: _run_pass(edges, graph_path, size, seed, tracer)
    )
    _check_pass(checks, traced, meta, graph_path, size)
    checks.op(
        traced.estimate.mean == untraced.estimate.mean
        and traced.result.seed_order == untraced.result.seed_order,
        "two passes over the same seed disagree",
    )
    tracer.dump(
        WORK / "traces" / f"pipeline-100k-{seed}.json",
        workload="pipeline-100k",
        seed=seed,
    )
    return layer_metrics(
        checks,
        tracer,
        rss,
        untraced.total_s,
        {
            "diffusion.welfare_stderr": traced.estimate.stderr,
            "host.steal_share": host.steal_share(),
            "host.loadavg_1m": host.loadavg_1m(),
        },
    )
