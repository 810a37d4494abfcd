"""welfare-20k: multi-item welfare, dominated by the forward engine.

A 20k-node preferential-attachment (heavy-tailed) weighted-cascade graph,
held in memory, with the paper's multi-item configs 5–8 (5 items, total
budget 300).  ``bundle_grd`` runs once per distinct budget vector, then
``estimate_welfare`` evaluates each config over 6,000 batched worlds, in
six calls of 1,000, which walks the 3⁵ decision tables.  RR sampling is
cheap on this graph and there is no ingest and no mmap, so forward
simulation is most of the run: sampler, index and ingest changes should
predict no change here — this workload is their bypass, and the forward
engine's yardstick.

A config's forward time is six times its median call: on a shared host a
slow second then moves one call, not the whole figure.

Set-up is building the in-memory graph from the cached arc list
(``weighted_cascade``), which every run pays.  One build takes about a
second on a shared host whose speed wanders by a third between seconds,
so ``setup_s`` is the median of several builds.

A run makes one timed pass of fixed work.  At full size that pass alone
runs longer than ``--seconds``, which this workload therefore does not
use.  Determinism is checked by the traced run, which repeats the
untraced pass with tracing on and compares the two.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

import inputs
from common import (
    Checks,
    HostProbe,
    Metrics,
    WORK,
    derive_seed,
    median,
    peak_rss_mb,
    print_named,
)
from outputs import check_allocation, check_welfare

CONFIGS = (5, 6, 7, 8)
NUM_ITEMS = 5
DEGREE = 8


CALLS_PER_CONFIG = 6


@dataclass(frozen=True)
class Size:
    nodes: int
    total_budget: int
    #: Worlds per ``estimate_welfare`` call; a config makes CALLS_PER_CONFIG.
    worlds: int
    setup_reps: int


SIZES = {
    "full": Size(nodes=20_000, total_budget=300, worlds=1_000, setup_reps=5),
    "toy": Size(nodes=1_000, total_budget=30, worlds=25, setup_reps=2),
}
WARMUP = SIZES["toy"]


@dataclass
class Pass:
    allocate_s: float
    #: Per config: CALLS_PER_CONFIG times its median call.
    forward_s: float
    wall_s: float
    results: Dict[Tuple[int, ...], object]
    estimates: Dict[int, list]

    @property
    def total_s(self) -> float:
        return self.allocate_s + self.forward_s

    def welfare_of(self, config_id: int) -> float:
        calls = self.estimates[config_id]
        return sum(e.mean for e in calls) / len(calls)

    @property
    def welfare(self) -> float:
        return sum(self.welfare_of(c) for c in self.estimates)

    @property
    def stderr(self) -> float:
        """Standard error of :attr:`welfare` (calls are independent)."""
        return sum(
            e.stderr**2 / len(calls) ** 2
            for calls in self.estimates.values()
            for e in calls
        ) ** 0.5


def _configs(size: Size):
    from repro.experiments.configs import multi_item_config

    return {c: multi_item_config(c, NUM_ITEMS, size.total_budget) for c in CONFIGS}


def _build_graph(arcs_path, nodes: int):
    import numpy as np
    from repro.graph.weighting import weighted_cascade

    return weighted_cascade(nodes, np.load(arcs_path).tolist())


def _run_pass(graph, configs, size: Size, seed: int, tracer=None) -> Pass:
    import repro.core.bundlegrd as bundlegrd
    import repro.diffusion.welfare as welfare
    from repro.engine import EngineContext

    results: Dict[Tuple[int, ...], object] = {}
    estimates: Dict[int, list] = {}
    with tracer.span("bench") if tracer else nullcontext():
        t0 = time.perf_counter()
        for _, budgets in configs.values():
            key = tuple(budgets)
            if key not in results:
                results[key] = bundlegrd.bundle_grd(
                    graph,
                    budgets,
                    ctx=EngineContext.create(seed=derive_seed(seed, 1, len(results))),
                )
        t1 = time.perf_counter()
        times: Dict[int, List[float]] = {c: [] for c in configs}
        # Round-robin over configs, so a slow spell of the host lands on
        # one call of several configs instead of on one config's median.
        for call in range(CALLS_PER_CONFIG):
            for config_id, (config, budgets) in configs.items():
                t2 = time.perf_counter()
                estimates.setdefault(config_id, []).append(
                    welfare.estimate_welfare(
                        graph,
                        config.model,
                        results[tuple(budgets)].allocation,
                        num_samples=size.worlds,
                        ctx=EngineContext.create(
                            seed=derive_seed(seed, 2, config_id, call)
                        ),
                    )
                )
                times[config_id].append(time.perf_counter() - t2)
        forward_s = sum(CALLS_PER_CONFIG * median(t) for t in times.values())
    return Pass(t1 - t0, forward_s, time.perf_counter() - t0, results, estimates)


def _check_pass(checks: Checks, p: Pass, nodes: int) -> None:
    for budgets, result in p.results.items():
        check_allocation(checks, f"bundle_grd {list(budgets)}", result, budgets, nodes)


def _setup(size: Size, seed: int):
    arcs = inputs.pa_arcs(size.nodes, DEGREE, seed)
    times: List[float] = []
    for _ in range(size.setup_reps):
        t0 = time.perf_counter()
        graph = _build_graph(arcs, size.nodes)
        times.append(time.perf_counter() - t0)
    return graph, times


def run(
    seed: int, seconds: float, trace: bool, size_name: str, checks: Checks
) -> Metrics:
    size = SIZES[size_name]
    host = HostProbe()
    warm_graph, _ = _setup(WARMUP, seed)
    _run_pass(warm_graph, _configs(WARMUP), WARMUP, seed)
    del warm_graph

    graph, setup = _setup(size, seed)
    configs = _configs(size)
    if trace:
        return _traced(seed, size, graph, configs, host, checks)
    p = _run_pass(graph, configs, size, seed)
    _check_pass(checks, p, size.nodes)
    welfare = p.welfare
    check_welfare(checks, "welfare-20k", size_name, seed, welfare, p.stderr)

    worlds = size.worlds * CALLS_PER_CONFIG * len(CONFIGS)
    forward_rate = worlds / p.forward_s
    rss = peak_rss_mb()
    print_named("setup_s", median(setup), "s", f"median of {len(setup)} graph builds")
    print_named("total_s", p.total_s, "s", "one pass, median calls")
    print_named("forward_worlds_per_s", forward_rate, "1/s", f"{worlds} worlds")
    print_named("allocate_s", p.allocate_s, "s", f"{len(p.results)} bundle_grd runs")
    for config_id in p.estimates:
        welfare_c = p.welfare_of(config_id)
        print_named(f"welfare.config{config_id}", welfare_c, "utility")
    print_named("welfare", welfare, "utility", "sum over configs 5-8")
    print_named("peak_rss_mb", rss, "MB")
    print_named("error_rate", checks.error_rate, "ratio", f"{checks.attempted} ops")
    print_named("host.steal_share", host.steal_share(), "ratio")
    print_named("host.loadavg_1m", host.loadavg_1m(), "load")

    metrics = Metrics()
    metrics.set("setup_s", median(setup), "s")
    metrics.set("total_s", p.total_s, "s")
    metrics.set("throughput_per_s", forward_rate, "1/s")
    metrics.set("peak_rss_mb", rss, "MB")
    metrics.set("welfare", welfare, "utility")
    return metrics


def _traced(seed, size, graph, configs, host, checks) -> Metrics:
    from tracing import layer_metrics, traced_pass

    untraced = _run_pass(graph, configs, size, seed)
    _check_pass(checks, untraced, size.nodes)
    traced, tracer, rss = traced_pass(
        lambda tracer: _run_pass(graph, configs, size, seed, tracer)
    )
    _check_pass(checks, traced, size.nodes)
    checks.op(
        traced.welfare == untraced.welfare
        and all(
            traced.results[k].seed_order == r.seed_order
            for k, r in untraced.results.items()
        ),
        "two passes over the same seed disagree",
    )
    tracer.dump(
        WORK / "traces" / f"welfare-20k-{seed}.json", workload="welfare-20k", seed=seed
    )
    return layer_metrics(
        checks,
        tracer,
        rss,
        untraced.wall_s,
        {
            "diffusion.welfare_stderr": traced.stderr,
            "host.steal_share": host.steal_share(),
            "host.loadavg_1m": host.loadavg_1m(),
        },
    )
