"""Influence oracle built on PRIMA's prefix-preserving order.

§2.1 motivates prefix preservation through the *influence oracle* use case
(Cohen et al.'s SKIM): preprocess once, then answer seed queries for any
budget without recomputation.  PRIMA provides exactly that on IMM-strength
machinery: one run for a maximum budget yields an ordered seed list whose
every prefix is ``(1 − 1/e − ε)``-approximate for its size (Definition 1,
instantiated with the budget vector ``(b, b−1, ..., 1)``).

:class:`InfluenceOracle` wraps the run and keeps the final RR collection so
it can also answer *spread estimation* queries (``σ(S) ≈ n · F_R(S)``) for
arbitrary seed sets, and hand bundleGRD a precomputed ``seed_order`` so
repeated allocations on the same graph cost nothing beyond the preprocessing.

The preprocessing is process-bound until persisted: :meth:`InfluenceOracle.
save` snapshots the seed order, the estimation collection and the sampling
RNG state into a :class:`~repro.store.sketch_store.SketchStore`, and
:class:`~repro.store.service.OracleService` serves the same queries from
the file in any later process (memory-mapped, extendable via
:func:`~repro.store.builder.extend_store`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.prima import PRIMAResult, prima
from repro.rrset.rrgen import RRCollection


class InfluenceOracle:
    """Preprocess a graph once; answer seed and spread queries forever.

    Parameters
    ----------
    graph:
        The social network.
    max_budget:
        Largest seed budget the oracle must serve.  Preprocessing runs PRIMA
        with the full budget vector ``(max_budget, ..., 2, 1)`` so *every*
        prefix size carries the approximation guarantee.
    epsilon, ell:
        PRIMA parameters (paper defaults).
    rng:
        Randomness for RR sampling.
    estimation_rr_sets:
        Size of the retained RR collection used for spread queries (an
        independent sample, so estimates are unbiased for any queried set).
    """

    def __init__(
        self,
        graph: InfluenceGraph,
        max_budget: int,
        epsilon: float = 0.5,
        ell: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        estimation_rr_sets: int = 10_000,
        triggering=None,
        *,
        ctx=None,
    ):
        if max_budget <= 0:
            raise ValueError(f"max_budget must be positive, got {max_budget}")
        ctx = ensure_context(
            ctx,
            rng=rng,
            triggering=triggering,
            caller="InfluenceOracle",
        )
        self._graph = graph
        self._triggering = (
            triggering if triggering is not None else ctx.triggering
        )
        self._max_budget = min(max_budget, graph.num_nodes)
        budget_vector = list(range(self._max_budget, 0, -1))
        self._prima: PRIMAResult = prima(
            graph,
            budget_vector,
            epsilon=epsilon,
            ell=ell,
            ctx=ctx,
        )
        self._estimator = RRCollection(graph, ctx=ctx)
        self._estimator.extend_to(int(estimation_rr_sets))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def max_budget(self) -> int:
        """Largest budget the oracle serves."""
        return self._max_budget

    @property
    def seed_order(self) -> Tuple[int, ...]:
        """The full prefix-preserving ordering."""
        return self._prima.seeds

    @property
    def preprocessing_rr_sets(self) -> int:
        """RR sets the preprocessing (PRIMA) run generated."""
        return self._prima.num_rr_sets

    def seeds(self, budget: int) -> Tuple[int, ...]:
        """Seed set for any budget ``≤ max_budget`` — O(1) per query."""
        if not 0 <= budget <= self._max_budget:
            raise ValueError(
                f"budget {budget} outside the oracle's range "
                f"[0, {self._max_budget}]"
            )
        return self._prima.seeds[:budget]

    def estimate_spread(self, seeds: Sequence[int]) -> float:
        """Unbiased spread estimate ``σ(S) ≈ n · F_R(S)`` from retained
        RR sets (independent of the selection collection)."""
        fraction = self._estimator.coverage_fraction(list(seeds))
        return self._graph.num_nodes * fraction

    def spread_curve(self, budgets: Sequence[int]) -> List[Tuple[int, float]]:
        """(budget, estimated spread) along the prefix ordering."""
        return [(int(k), self.estimate_spread(self.seeds(int(k)))) for k in budgets]

    def allocate(self, budgets: Sequence[int]):
        """Run bundleGRD against the precomputed ordering — no new sampling.

        All budgets must be within the oracle's range.  Returns a
        :class:`repro.core.bundlegrd.BundleGRDResult` (imported lazily:
        ``core`` depends on ``rrset``, so the reverse import happens at call
        time to keep the package acyclic).
        """
        from repro.core.bundlegrd import bundle_grd

        budgets = [int(b) for b in budgets]
        if budgets and max(budgets) > self._max_budget:
            raise ValueError(
                f"budget {max(budgets)} exceeds the oracle's max "
                f"{self._max_budget}"
            )
        return bundle_grd(
            self._graph, budgets, seed_order=self._prima.seeds
        )

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> InfluenceGraph:
        """The social network the oracle was preprocessed on."""
        return self._graph

    @property
    def estimator(self) -> RRCollection:
        """The retained spread-estimation collection."""
        return self._estimator

    def verify_graph(self, graph: InfluenceGraph) -> None:
        """Check this oracle was preprocessed on ``graph`` (fingerprints).

        Same contract as :meth:`repro.store.SketchStore.verify_graph`, so
        an oracle can stand in wherever a store-backed ``seed_order`` is
        accepted (:func:`repro.core.bundlegrd.bundle_grd`).
        """
        from repro.graph.io import graph_fingerprint
        from repro.store.sketch_store import StaleStoreError

        if graph_fingerprint(graph) != graph_fingerprint(self._graph):
            raise StaleStoreError(
                "oracle was preprocessed on a different graph "
                f"(n={self._graph.num_nodes}) than the one supplied "
                f"(n={graph.num_nodes})"
            )

    def to_store(self):
        """Snapshot the oracle as a :class:`~repro.store.SketchStore`.

        Persists the prefix-preserving seed order, the estimation
        collection (flat CSR + inverted index + widths) and the sampling
        RNG state; a :class:`~repro.store.OracleService` over the result
        answers every query with this oracle's exact numbers.  Imported
        lazily — ``store`` depends on ``rrset``, so the reverse import
        happens at call time to keep the package acyclic.
        """
        from repro.store.builder import _triggering_name
        from repro.store.sketch_store import SketchStore

        return SketchStore.from_collection(
            self._graph,
            self._estimator,
            self._prima.seeds,
            max_budget=self._max_budget,
            epsilon=self._prima.epsilon,
            ell=self._prima.ell,
            triggering=_triggering_name(self._triggering),
        )

    def save(self, path) -> None:
        """Persist the oracle to ``path`` (see :mod:`repro.store`)."""
        self.to_store().save(path)

    def __repr__(self) -> str:
        return (
            f"InfluenceOracle(n={self._graph.num_nodes}, "
            f"max_budget={self._max_budget}, "
            f"preprocessing_rr_sets={self.preprocessing_rr_sets})"
        )
