"""Seed-derived workload inputs, generated once per seed and cached.

Generation runs in a child process, so neither its time nor its memory
lands in the measuring process (the first run of a seed would otherwise
report a different ``peak_rss_mb`` than the next).  ``setup_s`` therefore
times only what every run pays.

Run as a script it generates one input::

    python3 perfbench/inputs.py edges <nodes> <records> <seed> <out_dir>
    python3 perfbench/inputs.py pa-arcs <nodes> <degree> <seed> <out_dir>
    python3 perfbench/inputs.py pa-graph <nodes> <degree> <seed> <out_dir>
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Tuple

from common import WORK, child_env, use_program_source

#: Bump when a generator changes, so stale cache entries are not reused.
INPUT_VERSION = 1
#: Cache entries kept per input kind (a seed's full and toy inputs are two);
#: the least recently used are evicted.  About 25 MB per seed in all.
CACHE_KEEP = 48


def _cached(kind: str, *params: int) -> Path:
    """Directory holding input ``kind`` for ``params``; generated if absent."""
    cache = WORK / "cache"
    name = f"{kind}-v{INPUT_VERSION}-" + "-".join(str(p) for p in params)
    target = cache / name
    if target.is_dir():
        os.utime(target)
        return target
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".tmp-{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        subprocess.run(
            [sys.executable, __file__, kind, *map(str, params), str(tmp)],
            env=child_env(),
            check=True,
            timeout=600,
        )
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _evict(cache, kind)
    return target


def _evict(cache: Path, kind: str) -> None:
    entries = sorted(
        (p for p in cache.glob(f"{kind}-v*") if p.is_dir()),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def edge_list(nodes: int, records: int, seed: int) -> Tuple[Path, dict]:
    """A SNAP-style text edge list and what its ingest must report."""
    target = _cached("edges", nodes, records, seed)
    return target / "edges.txt", json.loads((target / "meta.json").read_text())


def pa_arcs(nodes: int, degree: int, seed: int) -> Path:
    """``.npy`` of preferential-attachment arcs, shape ``(m, 2)``."""
    return _cached("pa-arcs", nodes, degree, seed) / "arcs.npy"


def pa_graph_file(nodes: int, degree: int, seed: int) -> Path:
    """``.graph`` file of the weighted-cascade preferential-attachment graph."""
    return _cached("pa-graph", nodes, degree, seed) / "pa.graph"


# ----------------------------------------------------------------------
# Generators (child process)
# ----------------------------------------------------------------------
def _gen_edges(nodes: int, records: int, seed: int, out: Path) -> None:
    """Uniform random endpoints: self-loops and duplicates occur naturally."""
    import numpy as np

    rng = np.random.default_rng(seed)
    u = rng.integers(0, nodes, records)
    v = rng.integers(0, nodes, records)
    with open(out / "edges.txt", "w") as f:
        f.write(f"# perfbench edge list: nodes {nodes} records {records}\n")
        chunk = 200_000
        for start in range(0, records, chunk):
            f.write(
                "\n".join(
                    f"{a} {b}"
                    for a, b in zip(
                        u[start : start + chunk].tolist(),
                        v[start : start + chunk].tolist(),
                    )
                )
            )
            f.write("\n")
    keep = u != v
    arcs = np.unique(u[keep] * nodes + v[keep])
    meta = {
        "records": int(records),
        "self_loops": int((~keep).sum()),
        "edges": int(arcs.shape[0]),
        "num_nodes": int(max(u.max(), v.max()) + 1),
    }
    (out / "meta.json").write_text(json.dumps(meta))


def _pa(nodes: int, degree: int, seed: int):
    import numpy as np

    from repro.graph.generators import preferential_attachment

    return np.asarray(
        preferential_attachment(nodes, degree, seed=seed), dtype=np.int64
    )


def _gen_pa_arcs(nodes: int, degree: int, seed: int, out: Path) -> None:
    import numpy as np

    np.save(out / "arcs.npy", _pa(nodes, degree, seed))


def _gen_pa_graph(nodes: int, degree: int, seed: int, out: Path) -> None:
    from repro.graph.bigcsr import write_graph_file
    from repro.graph.weighting import weighted_cascade

    graph = weighted_cascade(nodes, _pa(nodes, degree, seed).tolist())
    write_graph_file(graph, out / "pa.graph")


_GENERATORS = {
    "edges": _gen_edges,
    "pa-arcs": _gen_pa_arcs,
    "pa-graph": _gen_pa_graph,
}


if __name__ == "__main__":
    use_program_source()
    kind, a, b, seed, out = sys.argv[1:6]
    _GENERATORS[kind](int(a), int(b), int(seed), Path(out))
