"""UIC with *personalized* noise — the §5 extension.

The base model samples one noise value per item per diffusion (population-
level uncertainty).  §5 proposes personalized noise — every user draws her
own noise terms — noting the approximation guarantee does not carry over.
This module implements that variant so its empirical behaviour can be
studied: each node samples a private noise world the first time it has to
make an adoption decision, and keeps it for the rest of the diffusion.

The ablation benchmark (``benchmarks/bench_ablation_personalized.py``) uses
this to show bundleGRD remains a strong heuristic under personalization even
though Theorem 2 no longer applies.

Estimation runs on the batched forward engine by default
(:func:`repro.diffusion.batch_forward.batch_simulate_uic_personalized`:
per-(world, node) noise tables sampled lazily on first contact); the
sequential simulator below stays the byte-identical reference oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.diffusion.adoption import adopt
from repro.diffusion.uic import UICResult
from repro.diffusion.worlds import LiveEdgeGraph
from repro.graph.digraph import InfluenceGraph
from repro.utility.itemsets import Mask
from repro.utility.model import UtilityModel


def simulate_uic_personalized(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    rng: np.random.Generator,
    edge_world: Optional[LiveEdgeGraph] = None,
) -> UICResult:
    """One UIC possible world where every node has private noise.

    Semantics match :func:`repro.diffusion.uic.simulate_uic` except that the
    utility table consulted by node ``v`` is built from ``v``'s own sampled
    noise world (drawn lazily on first contact and then fixed).
    """
    tables: Dict[int, np.ndarray] = {}

    def table_of(v: int) -> np.ndarray:
        table = tables.get(v)
        if table is None:
            table = model.utility_table(model.sample_noise_world(rng))
            tables[v] = table
        return table

    desire: Dict[int, Mask] = {}
    adopted: Dict[int, Mask] = {}
    for node, item in allocation:
        node = int(node)
        if not 0 <= node < graph.num_nodes:
            raise IndexError(f"seed node {node} outside graph")
        if not 0 <= item < model.num_items:
            raise IndexError(f"item {item} outside universe")
        desire[node] = desire.get(node, 0) | (1 << item)

    frontier: List[int] = []
    for node, wish in desire.items():
        new_adopted = adopt(table_of(node), wish, 0)
        if new_adopted:
            adopted[node] = new_adopted
            frontier.append(node)

    live_out: Dict[int, List[int]] = {}
    rounds = 1
    while frontier:
        rounds += 1
        touched: Dict[int, Mask] = {}
        for u in frontier:
            source_adopted = adopted.get(u, 0)
            if source_adopted == 0:
                continue
            if edge_world is not None:
                live_targets = [int(v) for v in edge_world.out_neighbors(u)]
            else:
                cached = live_out.get(u)
                if cached is None:
                    targets = graph.out_neighbors(u)
                    if targets.shape[0]:
                        coins = rng.random(targets.shape[0])
                        cached = [
                            int(v)
                            for v, c, p in zip(
                                targets, coins, graph.out_probabilities(u)
                            )
                            if c < p
                        ]
                    else:
                        cached = []
                    live_out[u] = cached
                live_targets = cached
            for v in live_targets:
                touched[v] = touched.get(v, 0) | source_adopted

        next_frontier: List[int] = []
        for v, incoming in touched.items():
            old_desire = desire.get(v, 0)
            new_desire = old_desire | incoming
            if new_desire == old_desire:
                continue
            desire[v] = new_desire
            old_adopted = adopted.get(v, 0)
            new_adopted = adopt(table_of(v), new_desire, old_adopted)
            if new_adopted != old_adopted:
                adopted[v] = new_adopted
                next_frontier.append(v)
        frontier = next_frontier

    welfare = float(
        sum(tables[v][mask] for v, mask in adopted.items())
    )
    return UICResult(
        desire=desire,
        adopted=adopted,
        welfare=welfare,
        rounds=rounds,
        noise_world=np.zeros(model.num_items),  # no shared world exists
    )


def estimate_welfare_personalized(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_samples: int = 200,
    rng=None,
    *,
    ctx=None,
) -> float:
    """MC estimate of expected welfare under personalized noise.

    The context's backend follows the engine convention (explicit >
    ``$REPRO_RR_BACKEND`` > batched): the batched path runs all worlds at
    once through :func:`repro.diffusion.batch_forward.
    batch_simulate_uic_personalized` — per-(world, node) noise sampled
    lazily on first contact, flat-frontier propagation — and is
    statistically equivalent to the sequential per-world loop, which
    remains the byte-identical historical path.  Item universes beyond
    ``MAX_BATCH_ITEMS`` fall back to sequential with a ``UserWarning``.

    ``rng`` may be a ``Generator``, an integer seed (expanded through
    ``SeedSequence`` — sequential worlds draw from independent per-world
    child streams), or ``None`` (the historical seed-0 stream).
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    from repro.engine import ensure_context

    ctx = ensure_context(ctx, rng=rng, caller="estimate_welfare_personalized")
    allocation = list(allocation)

    from repro.diffusion.batch_forward import (
        MAX_BATCH_ITEMS,
        batch_simulate_uic_personalized,
        warn_uic_item_cap_fallback,
    )

    if ctx.is_batched:
        if model.num_items <= MAX_BATCH_ITEMS:
            parallel = ctx.is_parallel
            if parallel and not ctx.has_lineage:
                from repro.parallel import lineage_fallback

                lineage_fallback("estimate_welfare_personalized")
                parallel = False
            if parallel:
                from repro.parallel import run_forward_shards

                welfare = run_forward_shards(
                    "personalized_welfare_shard",
                    graph,
                    ctx,
                    num_samples,
                    (model, allocation),
                )
            else:
                welfare = batch_simulate_uic_personalized(
                    graph, model, allocation, num_samples, ctx.rng
                )
            return float(welfare.mean())
        warn_uic_item_cap_fallback(model)
    world_rngs = (
        ctx.spawn_generators(num_samples) if ctx.has_lineage else None
    )
    total = 0.0
    for i in range(num_samples):
        world_rng = world_rngs[i] if world_rngs is not None else ctx.rng
        total += simulate_uic_personalized(
            graph, model, allocation, world_rng
        ).welfare
    return total / num_samples
