"""Shared driver for the two-item experiments (Figs. 4, 5 and 6).

One run sweeps the configuration's budget vectors and, for each, executes
every requested algorithm, recording expected social welfare (Fig. 4),
wall-clock seconds (Fig. 5) and RR-set counts (Fig. 6) in one pass — the
three figures are different projections of the same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.bundle_disjoint import bundle_disjoint
from repro.baselines.item_disjoint import item_disjoint
from repro.baselines.rr_cim import rr_cim
from repro.baselines.rr_sim import rr_sim_plus
from repro.core.bundlegrd import bundle_grd
from repro.diffusion.welfare import estimate_welfare
from repro.engine import EngineContext, ensure_context
from repro.experiments.configs import TwoItemConfig, two_item_config
from repro.experiments.runner import stopwatch
from repro.graph import datasets
from repro.graph.digraph import InfluenceGraph

#: The algorithms of §4.3.2, in the paper's legend order.
TWO_ITEM_ALGORITHMS: Tuple[str, ...] = (
    "bundleGRD",
    "RR-SIM+",
    "RR-CIM",
    "item-disj",
    "bundle-disj",
)


@dataclass(frozen=True)
class TwoItemRun:
    """One (algorithm, budget vector) measurement."""

    algorithm: str
    budgets: Tuple[int, int]
    welfare: float
    welfare_stderr: float
    seconds: float
    num_rr_sets: int


def run_two_item_experiment(
    config_id: int,
    network: str = "douban-movie",
    scale: float = 0.1,
    budget_vectors: Optional[Sequence[Tuple[int, int]]] = None,
    algorithms: Sequence[str] = TWO_ITEM_ALGORITHMS,
    num_samples: int = 100,
    epsilon: float = 0.5,
    ell: float = 1.0,
    seed: int = 0,
    comic_forward_worlds: int = 10,
    graph: Optional[InfluenceGraph] = None,
    ctx: Optional[EngineContext] = None,
) -> List[TwoItemRun]:
    """Run the two-item sweep for one Table 3 configuration.

    Parameters
    ----------
    config_id:
        Configuration 1–4.
    network, scale:
        Stand-in dataset and node-count scale (§5 of DESIGN.md); or pass a
        pre-built ``graph``.
    budget_vectors:
        Budget sweep; defaults to the paper's (uniform 10..50 or b2 30..110).
    algorithms:
        Subset of :data:`TWO_ITEM_ALGORITHMS` to run.
    num_samples:
        MC samples per welfare estimate.
    ctx:
        Policy :class:`repro.engine.EngineContext`: its backend (and
        triggering) apply to every algorithm run; each (algorithm, budget)
        pair still derives a fresh RNG stream from ``seed`` via
        ``ctx.with_stream``, so runs stay independent and reproducible.
        A ``None`` ``ctx`` resolves ``$REPRO_RR_BACKEND`` (default
        batched) — the same switch every algorithm reads at context
        construction, so the CLI's ``--rr-backend`` reconfigures the whole
        run.

    Returns
    -------
    list of TwoItemRun
        One entry per (algorithm, budget vector).
    """
    policy = ensure_context(ctx, caller="run_two_item_experiment")
    unknown = set(algorithms) - set(TWO_ITEM_ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    config: TwoItemConfig = two_item_config(config_id)
    if graph is None:
        graph = datasets.load(network, scale=scale)
    if budget_vectors is None:
        budget_vectors = config.budget_vectors()

    runs: List[TwoItemRun] = []
    for budgets in budget_vectors:
        budgets = (int(budgets[0]), int(budgets[1]))
        for algorithm in algorithms:
            timing: Dict[str, float] = {}
            run_ctx = policy.with_stream(rng=np.random.default_rng(seed))
            with stopwatch(timing):
                if algorithm == "bundleGRD":
                    result = bundle_grd(
                        graph, list(budgets), epsilon=epsilon, ell=ell,
                        ctx=run_ctx,
                    )
                    allocation, rr_sets = result.allocation, result.num_rr_sets
                elif algorithm == "item-disj":
                    result = item_disjoint(
                        graph, list(budgets), epsilon=epsilon, ell=ell,
                        ctx=run_ctx,
                    )
                    allocation, rr_sets = result.allocation, result.num_rr_sets
                elif algorithm == "bundle-disj":
                    result = bundle_disjoint(
                        graph,
                        config.model,
                        list(budgets),
                        epsilon=epsilon,
                        ell=ell,
                        ctx=run_ctx,
                    )
                    allocation, rr_sets = result.allocation, result.num_rr_sets
                elif algorithm == "RR-SIM+":
                    result = rr_sim_plus(
                        graph,
                        config.gap,
                        budgets,
                        epsilon=epsilon,
                        ell=ell,
                        num_forward_worlds=comic_forward_worlds,
                        ctx=run_ctx,
                    )
                    allocation, rr_sets = result.allocation, result.num_rr_sets
                else:  # RR-CIM
                    result = rr_cim(
                        graph,
                        config.gap,
                        budgets,
                        epsilon=epsilon,
                        ell=ell,
                        num_forward_worlds=comic_forward_worlds,
                        ctx=run_ctx,
                    )
                    allocation, rr_sets = result.allocation, result.num_rr_sets
            welfare = estimate_welfare(
                graph,
                config.model,
                allocation,
                num_samples=num_samples,
                ctx=policy.with_stream(rng=np.random.default_rng(seed + 1)),
            )
            runs.append(
                TwoItemRun(
                    algorithm=algorithm,
                    budgets=budgets,
                    welfare=welfare.mean,
                    welfare_stderr=welfare.stderr,
                    seconds=timing["seconds"],
                    num_rr_sets=rr_sets,
                )
            )
    return runs


def runs_as_rows(runs: Sequence[TwoItemRun]) -> List[Dict[str, object]]:
    """Flatten runs into printable/assertable dict rows."""
    return [
        {
            "algorithm": r.algorithm,
            "b1": r.budgets[0],
            "b2": r.budgets[1],
            "welfare": round(r.welfare, 1),
            "stderr": round(r.welfare_stderr, 2),
            "seconds": round(r.seconds, 3),
            "rr_sets": r.num_rr_sets,
        }
        for r in runs
    ]
