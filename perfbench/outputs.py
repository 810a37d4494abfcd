"""Output checks shared by the workloads: allocations and welfare values."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

from common import Checks

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def check_allocation(
    checks: Checks, label: str, result, budgets: Sequence[int], num_nodes: int
) -> None:
    """bundleGRD's allocation: distinct seeds, budgets held, nested prefixes.

    Item ``i`` must be seeded on exactly the first ``b_i`` nodes of the
    seed order, so every item's seed set is a prefix of every larger one.
    """
    order = [int(v) for v in result.seed_order]
    checks.op(
        len(set(order)) == len(order)
        and all(0 <= v < num_nodes for v in order)
        and len(order) >= min(max(budgets), num_nodes),
        f"{label}: seed order not {max(budgets)} distinct in-range nodes",
    )
    allocation = result.allocation
    checks.op(
        allocation.respects_budgets(list(budgets)),
        f"{label}: allocation exceeds budgets {list(budgets)}",
    )
    checks.op(
        all(
            allocation.seeds_of_item(i) == set(order[: int(b)])
            for i, b in enumerate(budgets)
        ),
        f"{label}: item seed sets are not the nested seed-order prefixes",
    )


def reference_welfare(workload: str, size: str) -> dict:
    table = json.loads(REFERENCE.read_text())
    entry = table["welfare"][workload][size]
    return {
        "seed": table["default_seed"],
        "band": entry["band"],
        "z": table["z"],
        "value": entry["value"],
        "stderr": entry["stderr"],
    }


def check_welfare(
    checks: Checks, workload: str, size: str, seed: int, value: float, stderr: float
) -> None:
    """Check a welfare estimate against ``reference.json``.

    It must be finite.  At the default seed it must agree with the recorded
    value within ``z`` combined standard errors (an unchanged program
    reproduces it exactly; a change that only reorders random draws stays
    within the noise).  At any other seed it must lie within ``band`` of
    the recorded value, which catches an estimate that is wrong by far
    more than seed-to-seed variation.
    """
    ref = reference_welfare(workload, size)
    if not checks.op(math.isfinite(value), f"welfare {value} is not finite"):
        return
    if seed == ref["seed"]:
        tolerance = ref["z"] * math.hypot(stderr, ref["stderr"])
        checks.op(
            abs(value - ref["value"]) <= tolerance,
            f"welfare {value!r} (stderr {stderr!r}) disagrees with the "
            f"reference {ref['value']!r} at seed {seed}",
        )
    else:
        checks.op(
            abs(value / ref["value"] - 1.0) <= ref["band"],
            f"welfare {value!r} outside ±{ref['band']:.0%} of the reference "
            f"{ref['value']!r}",
        )
