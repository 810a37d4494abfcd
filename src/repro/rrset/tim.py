"""TIM⁺ — Two-phase Influence Maximization (Tang et al. 2014).

The predecessor of IMM: estimates a lower bound ``KPT`` on the optimal spread
by measuring RR-set widths, then generates ``θ = λ / KPT`` RR sets, where

    λ = (8 + 2ε) n (ℓ log n + log C(n,k) + log 2) ε⁻²

TIM generates substantially more RR sets than IMM at equal (ε, ℓ) — the
behaviour behind the paper's Fig. 6, where the TIM-based Com-IC baselines
RR-SIM+/RR-CIM use an order of magnitude more memory than the IMM-based
algorithms.  Implemented here because those baselines are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.engine import ensure_context, is_batched
from repro.graph.digraph import InfluenceGraph
from repro.rrset.batch import (
    batch_generate_rr_sets,
    build_trigger_csr,
    rr_set_widths,
    supports_batched,
)
from repro.diffusion.triggering import needs_trigger_csr
from repro.rrset.bounds import log_binomial
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection, generate_rr_set

_KPT_SECONDS = obs.histogram(
    "repro_engine_phase_seconds",
    "Wall-clock of engine phases (sampling, selection, kpt, forward)",
    labels=("phase",),
)


@dataclass(frozen=True)
class TIMResult:
    """Output of a TIM run: ordered seeds and sampling statistics."""

    seeds: Tuple[int, ...]
    num_rr_sets: int
    kpt: float
    coverage_fraction: float
    epsilon: float
    ell: float


def _kpt_estimation(
    graph: InfluenceGraph,
    k: int,
    ell: float,
    rng: np.random.Generator,
    backend: str = "sequential",
    triggering=None,
) -> Tuple[float, int]:
    """KptEstimation of TIM: lower-bounds ``OPT_k / n`` via RR-set widths.

    Returns ``(KPT, rr_sets_used)``.  ``w(R)`` is the number of edges pointing
    into the RR set; ``κ(R) = 1 − (1 − w(R)/m)^k`` estimates the probability a
    random size-k seed set covers ``R``.

    With ``backend="batched"`` each geometric round's ``c_i`` RR sets are one
    :func:`batch_generate_rr_sets` call and the widths one vectorized
    :func:`rr_set_widths` pass; the sequential branch keeps the historical
    per-set loop (and its RNG stream) untouched as the equivalence oracle.
    ``triggering`` samples the RR sets under that model on either branch
    (falling back to sequential when the model has no batched sampler), so
    KPT and the θ collection are calibrated against the same live-edge
    distribution.
    """
    n = graph.num_nodes
    m = max(graph.num_edges, 1)
    log2n = math.log2(n)
    used = 0
    if is_batched(backend) and not supports_batched(triggering):
        backend = "sequential"
    trigger_csr = (
        build_trigger_csr(graph, triggering)
        if is_batched(backend) and needs_trigger_csr(triggering)
        else None
    )
    for i in range(1, max(2, int(log2n))):
        # max() guards only the degenerate n == 1 case (log2n == 0, and the
        # whole round size collapses to 0): for n >= 2 the round schedule is
        # byte-identical to the historical sequential implementation.
        c_i = max(
            1,
            int(
                math.ceil(
                    (
                        6.0 * ell * math.log(n)
                        + 6.0 * math.log(max(log2n, 1.0))
                    )
                    * 2.0**i
                )
            ),
        )
        if is_batched(backend):
            members, lengths = batch_generate_rr_sets(
                graph, rng, c_i, triggering=triggering,
                trigger_csr=trigger_csr,
            )
            used += c_i
            widths = rr_set_widths(graph, members, lengths)
            total = float(np.sum(1.0 - (1.0 - widths / m) ** k))
        else:
            total = 0.0
            for _ in range(c_i):
                rr = generate_rr_set(graph, rng, triggering=triggering)
                used += 1
                width = sum(graph.in_degree(int(v)) for v in rr)
                kappa = 1.0 - (1.0 - width / m) ** k
                total += kappa
        if total / c_i > 1.0 / (2.0**i):
            return n * total / (2.0 * c_i), used
    return 1.0, used


def tim(
    graph: InfluenceGraph,
    k: int,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    *,
    ctx=None,
) -> TIMResult:
    """Select ``k`` seeds with TIM⁺ (without the IMM refinements).

    The context's backend picks the RR sampling path for *both* phases:
    the batched path generates each KPT geometric round ``c_i`` as one
    vectorized call (widths via :func:`repro.rrset.batch.rr_set_widths`)
    and the θ phase through the batched :class:`RRCollection`;
    ``sequential`` reproduces the historical per-set streams; see
    :func:`repro.rrset.prima.prima`.
    """
    ctx = ensure_context(ctx, rng=rng, caller="tim")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = graph.num_nodes
    k = min(k, n)
    if k == 0:
        # Covers n == 0 too (k is clamped to n).  A 1-node graph is *not*
        # degenerate: k >= 1 must select node 0.
        return TIMResult(
            seeds=(),
            num_rr_sets=0,
            kpt=0.0,
            coverage_fraction=0.0,
            epsilon=epsilon,
            ell=ell,
        )
    if ctx.triggering is not None:
        ctx.triggering.validate(graph)
    with obs.span("rrset.tim", k=int(k), backend=ctx.backend):
        with obs.span("rrset.kpt"), _KPT_SECONDS.timer(phase="kpt"):
            kpt, kpt_sets = _kpt_estimation(
                graph, k, ell, ctx.rng, backend=ctx.backend,
                triggering=ctx.triggering,
            )
        lam = (
            (8.0 + 2.0 * epsilon)
            * n
            * (ell * math.log(n) + log_binomial(n, k) + math.log(2.0))
            / (epsilon * epsilon)
        )
        theta = int(math.ceil(lam / max(kpt, 1.0)))
        collection = RRCollection(graph, ctx=ctx)
        collection.extend_to(theta)
        seeds, frac = node_selection(collection, k)
    return TIMResult(
        seeds=tuple(seeds),
        num_rr_sets=collection.num_sets + kpt_sets,
        kpt=kpt,
        coverage_fraction=frac,
        epsilon=epsilon,
        ell=ell,
    )
