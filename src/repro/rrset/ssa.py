"""SSA — Stop-and-Stare (Nguyen, Thai & Dinh, SIGMOD 2016), simplified.

SSA interleaves *stopping* (run max-cover on a batch of RR sets) with
*staring* (validate the chosen seed set's coverage on an independent batch);
it doubles the sample size until the greedy estimate and the validation
estimate agree, often stopping below IMM's worst-case sample bound.

The paper cites SSA as a state-of-the-art IM algorithm that — like IMM — is
**not prefix-preserving out of the box** (§4.2.3): its stopping condition
certifies only the budget it was run for, so the top-``k′`` prefix of its
seeds carries no guarantee for ``k′ < k``.  PRIMA is the fix.  We implement
SSA (validation-based doubling; the ε-decomposition of the original is
simplified to a single slack) so the repository contains the full landscape
of seed-selection algorithms the paper discusses, and so tests can
demonstrate the guarantee asymmetry concretely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection


@dataclass(frozen=True)
class SSAResult:
    """Seeds, influence estimates, and sampling statistics."""

    seeds: Tuple[int, ...]
    influence_estimate: float
    validation_estimate: float
    num_rr_sets: int
    rounds: int


def ssa(
    graph: InfluenceGraph,
    k: int,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    max_rounds: int = 20,
    *,
    ctx=None,
) -> SSAResult:
    """Select ``k`` seeds with (simplified) Stop-and-Stare.

    Stops when the validation estimate of the chosen seeds' influence is
    within ``(1 − ε/2)`` of the optimization estimate, doubling the batch
    otherwise.  ``max_rounds`` bounds the doubling (the full algorithm's
    theoretical cap is implied by its ε-budget split).
    """
    ctx = ensure_context(ctx, rng=rng, caller="ssa")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = graph.num_nodes
    k = min(k, n)
    # k == 0 covers the empty graph (k is clamped to n); on a 1-node graph
    # the doubling loop runs normally and returns (0,).
    if k == 0:
        return SSAResult(
            seeds=(),
            influence_estimate=0.0,
            validation_estimate=0.0,
            num_rr_sets=0,
            rounds=0,
        )
    # Initial batch: enough for a crude concentration at the top level
    # (the original's Λ; simplified constants).
    initial = int(
        math.ceil(
            (2.0 + 2.0 / 3.0 * epsilon)
            * (ell * math.log(n) + math.log(2.0))
            / (epsilon * epsilon)
        )
    )
    optimization = RRCollection(graph, ctx=ctx)
    validation = RRCollection(graph, ctx=ctx)
    total = 0
    batch = initial
    for round_id in range(1, max_rounds + 1):
        optimization.extend_to(batch)
        validation.extend_to(batch)
        seeds, frac = node_selection(optimization, k)
        influence = n * frac
        check = n * validation.coverage_fraction(seeds)
        total = optimization.num_sets + validation.num_sets
        if check >= (1.0 - epsilon / 2.0) * influence and influence > 0:
            return SSAResult(
                seeds=tuple(seeds),
                influence_estimate=influence,
                validation_estimate=check,
                num_rr_sets=total,
                rounds=round_id,
            )
        batch *= 2
    seeds, frac = node_selection(optimization, k)
    return SSAResult(
        seeds=tuple(seeds),
        influence_estimate=n * frac,
        validation_estimate=n * validation.coverage_fraction(seeds),
        num_rr_sets=total,
        rounds=max_rounds,
    )
