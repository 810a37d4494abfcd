"""oracle-mixed-50k: reads and writes against a served sketch store.

Set-up builds a store (``build_store``: max budget 100, 50k estimation
sets) on a 50k-node preferential-attachment weighted-cascade graph, saves
it, and serves it with a ``repro serve`` subprocess — the production CLI
path, default coalescing — until the server answers.  Set-up runs several
times; the last server is the one measured.

Load: two closed-loop client connections from this one process (the host
has two cores), each sending its next request when the last one returned.
Every 100th request is a write; of the rest, 9 in 99 are ``seeds?budget=``
queries and the others ``spread`` queries whose seed sets have 10, 100 or
1,000 nodes in equal shares.  A write re-saves the same store over the
served file with ``SketchStore.save`` and POSTs ``/reload``.  The run lasts
``--seconds`` and at least ``Size.min_writes`` writes.

This is the only workload that exercises ``repro.store`` save/open/validate
and ``repro.serving`` queue/coalesce/encode.  The rewritten store has the
same content, so every answer stays checkable against a local
``OracleService`` on the same store, byte for byte.
"""

from __future__ import annotations

import http.client
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import inputs
from common import (
    ROOT,
    WORK,
    Checks,
    HostProbe,
    Metrics,
    child_env,
    derive_seed,
    median,
    percentile,
    print_named,
    proc_cpu_s,
    proc_status_mb,
)
from outputs import check_welfare

KEY = "bench"
DEGREE = 8
SEED_SET_SIZES = (10, 100, 1000)
WRITE_EVERY = 100
SEEDS_SHARE = 9 / 99
KINDS = tuple(f"spread{s}" for s in SEED_SET_SIZES) + ("seeds", "write")


@dataclass(frozen=True)
class Size:
    nodes: int
    max_budget: int
    estimation_sets: int
    min_writes: int
    #: Distinct seed sets per seed-set size in the query pool.
    pool: int
    setup_reps: int
    #: Requests per reported unit (``total_s`` is the cost of a batch).
    batch: int


SIZES = {
    "full": Size(
        nodes=50_000,
        max_budget=100,
        estimation_sets=50_000,
        min_writes=100,
        pool=32,
        setup_reps=3,
        batch=1_000,
    ),
    "toy": Size(
        nodes=2_000,
        max_budget=10,
        estimation_sets=2_000,
        min_writes=3,
        pool=4,
        setup_reps=2,
        batch=100,
    ),
}


class Server:
    """A ``repro serve`` subprocess over one store directory."""

    def __init__(self, store_root: Path, log: Path) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store-root",
                str(store_root),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        banner = self.proc.stdout.readline().strip()  # "serving N stores on h:p"
        if not banner.startswith("serving"):
            self.kill()
            raise RuntimeError(f"repro serve did not start; log in {log}")
        host, port = banner.rsplit(" ", 1)[-1].split(":")
        self.host, self.port = host, int(port)
        self.proc.stdout.readline()  # "keys: ..."

    def client(self):
        from repro.serving import ServingClient

        return ServingClient(self.host, self.port)

    def stop(self) -> bool:
        """SIGINT; True when the server exited 0 with no leaked store."""
        try:
            self.proc.send_signal(signal.SIGINT)
            out, _ = self.proc.communicate(timeout=60)
            return self.proc.returncode == 0 and "leaked=0" in out
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Golden:
    """Local answers from an ``OracleService`` on the served store."""

    def __init__(self, store, size: Size, seed: int) -> None:
        import numpy as np
        from repro.store import OracleService

        service = OracleService(store)
        rng = np.random.default_rng(derive_seed(seed, 5))
        self.pool = {
            s: [
                sorted(int(v) for v in rng.choice(size.nodes, s, replace=False))
                for _ in range(size.pool)
            ]
            for s in SEED_SET_SIZES
        }
        self.spread = {
            s: [
                (repr(service.coverage_fraction(q)), repr(service.estimate_spread(q)))
                for q in queries
            ]
            for s, queries in self.pool.items()
        }
        self.seeds = {b: list(service.seeds(b)) for b in range(1, size.max_budget + 1)}
        self.max_spread = service.estimate_spread(self.seeds[size.max_budget])
        # Standard error of the RR estimator n·F_R(S) over θ sets.
        f = self.max_spread / size.nodes
        self.max_spread_stderr = size.nodes * (f * (1 - f) / store.num_sets) ** 0.5


@dataclass
class Loop:
    """What one closed-loop run of the two clients saw."""

    start: float
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in KINDS}
    )
    reload_rtt: List[float] = field(default_factory=list)
    #: Wall time of each client-side ``SketchStore.save``.
    save_s: List[float] = field(default_factory=list)
    ops: int = 0
    writes: int = 0
    errors: int = 0

    def spread_latency(self) -> List[float]:
        return [t for s in SEED_SET_SIZES for t in self.latency[f"spread{s}"]]


@dataclass
class Served:
    """A served store, its local golden answers and the run's checks."""

    server: Server
    store: object
    path: Path
    golden: Golden
    size: Size
    seed: int
    checks: Checks

    def drive(self, seconds: float, min_writes: int, tracer=None) -> Loop:
        """Two closed-loop clients until ``seconds`` and ``min_writes`` are met."""
        return _LoadGenerator(self, seconds, min_writes, tracer).run()

    def served_max_spread(self) -> float:
        """The spread the server reports for its own max-budget seed set."""
        budget = self.size.max_budget
        with self.server.client() as conn:
            seeds = conn.seeds(KEY, budget)
            value = conn.spread(KEY, seeds)
        self.checks.op(
            seeds == self.golden.seeds[budget]
            and repr(value) == repr(self.golden.max_spread),
            "served max-budget spread differs from the local oracle",
        )
        return value


class _LoadGenerator:
    """One closed loop: request ``i`` is a write when ``i % 100 == 99``."""

    def __init__(self, served: Served, seconds: float, min_writes: int, tracer):
        self.served = served
        self.seconds = seconds
        self.min_writes = min_writes
        self.span = tracer.span if tracer else (lambda *a, **k: nullcontext())
        self.lock = threading.Lock()
        self.write_lock = threading.Lock()
        with served.server.client() as conn:
            self.generation = int(conn.store(KEY)["generation"])
        self.loop = Loop(start=time.perf_counter())

    def run(self) -> Loop:
        server = self.served.server
        errors: List[BaseException] = []

        def client(index: int) -> None:
            try:
                self._client(index)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
                raise

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        cpu0, server_cpu0 = time.process_time(), proc_cpu_s(server.proc.pid)
        loop = self.loop
        loop.start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop.wall_s = time.perf_counter() - loop.start
        loop.client_cpu_s = time.process_time() - cpu0
        loop.server_cpu_s = proc_cpu_s(server.proc.pid) - server_cpu0
        if errors:
            raise errors[0]
        return loop

    def _next_op(self) -> Optional[int]:
        loop = self.loop
        with self.lock:
            elapsed = time.perf_counter() - loop.start
            if elapsed >= self.seconds and loop.writes >= self.min_writes:
                return None
            index = loop.ops
            loop.ops += 1
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                loop.writes += 1
            return index

    def _record(self, kind: str, t0: float, ok: bool, what: str) -> None:
        t1 = time.perf_counter()
        loop = self.loop
        with self.lock:
            loop.latency[kind].append(t1 - t0)
            if not self.served.checks.op(ok, what):
                loop.errors += 1

    def _client(self, index: int) -> None:
        import numpy as np
        from repro.serving import ServingError

        failures = (ServingError, OSError, http.client.HTTPException)
        rng = np.random.default_rng(derive_seed(self.served.seed, 4, index))
        with self.served.server.client() as conn, self.span("bench"):
            while (op := self._next_op()) is not None:
                t0 = time.perf_counter()
                if op % WRITE_EVERY == WRITE_EVERY - 1:
                    kind, request, args = "write", self._write, (conn,)
                elif rng.random() < SEEDS_SHARE:
                    budget = int(rng.integers(1, self.served.size.max_budget + 1))
                    kind, request, args = "seeds", self._seeds, (conn, budget)
                else:
                    s = SEED_SET_SIZES[int(rng.integers(len(SEED_SET_SIZES)))]
                    q = int(rng.integers(self.served.size.pool))
                    kind, request, args = f"spread{s}", self._spread, (conn, s, q)
                try:
                    with self.span("serving.request", kind=kind):
                        ok, what = request(*args)
                except failures as exc:
                    ok, what = False, f"{kind} request failed: {exc}"
                self._record(kind, t0, ok, what)

    def _write(self, conn):
        """Re-save the served store and reload it: the generation must advance."""
        with self.write_lock:
            t0 = time.perf_counter()
            self.served.store.save(self.served.path)
            t1 = time.perf_counter()
            reply = conn.reload(KEY)
            rtt = time.perf_counter() - t1
            ok = reply["generation"] > self.generation
            self.generation = reply["generation"]
        with self.lock:
            self.loop.save_s.append(t1 - t0)
            self.loop.reload_rtt.append(rtt)
        return ok, "reload did not advance the generation"

    def _seeds(self, conn, budget: int):
        answer = conn.seeds(KEY, budget)
        ok = answer == self.served.golden.seeds[budget]
        return ok, f"seeds?budget={budget} differs from the store's prefix"

    def _spread(self, conn, s: int, q: int):
        golden = self.served.golden
        reply = conn.spread_response(KEY, golden.pool[s][q])
        ok = (repr(reply["fraction"]), repr(reply["spread"])) == golden.spread[s][q]
        return ok, f"spread of a {s}-node set differs from the local oracle"


def _setup_once(graph_path: Path, store_dir: Path, size: Size, seed: int, log: Path):
    """Load the graph, build and save the store, serve it: one set-up."""
    import repro.graph.bigcsr as bigcsr
    import repro.store.builder as builder
    from repro.engine import EngineContext

    t0 = time.perf_counter()
    graph = bigcsr.load_graph(graph_path)
    tb = time.perf_counter()
    store = builder.build_store(
        graph,
        size.max_budget,
        estimation_rr_sets=size.estimation_sets,
        ctx=EngineContext.create(seed=derive_seed(seed, 3)),
    )
    build_s = time.perf_counter() - tb
    store.save(store_dir / f"{KEY}.sketch")
    server = Server(store_dir, log)
    return store, server, time.perf_counter() - t0, build_s


def run(
    seed: int, seconds: float, trace: bool, size_name: str, checks: Checks
) -> Metrics:
    size = SIZES[size_name]
    host = HostProbe()
    graph_path = inputs.pa_graph_file(size.nodes, DEGREE, seed)
    warm_path = inputs.pa_graph_file(SIZES["toy"].nodes, DEGREE, seed)
    workdir = WORK / f"run-{size_name}-oracle-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    store_dir = workdir / "stores"
    store_dir.mkdir(parents=True)
    server: Optional[Server] = None
    try:
        _, server, _, _ = _setup_once(
            warm_path, store_dir, SIZES["toy"], seed, workdir / "warmup.log"
        )
        setup, builds, orders = [], [], []
        for rep in range(size.setup_reps):
            checks.op(server.stop(), "a set-up server did not shut down cleanly")
            store, server, setup_s, build_s = _setup_once(
                graph_path, store_dir, size, seed, workdir / f"serve-{rep}.log"
            )
            setup.append(setup_s)
            builds.append(build_s)
            orders.append(tuple(store.seed_order))
        checks.op(len(set(orders)) == 1, "repeated build_store runs disagree")
        path = store_dir / f"{KEY}.sketch"
        golden = Golden(store, size, seed)
        served = Served(server, store, path, golden, size, seed, checks)
        # Warm-up: the first hundred requests, one write among them, untimed.
        served.drive(0.0, 1)
        if trace:
            return _traced(served, seconds, host, builds)
        loop = served.drive(seconds, size.min_writes)
        welfare = served.served_max_spread()
        rss = proc_status_mb(server.proc.pid, "VmHWM")
        checks.op(server.stop(), "server did not exit 0 with leaked=0 on SIGINT")
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    check_welfare(
        checks,
        "oracle-mixed-50k",
        size_name,
        seed,
        welfare,
        served.golden.max_spread_stderr,
    )
    spread = loop.spread_latency()
    writes = loop.latency["write"]
    # The gated figures are the cost of the load: the server's CPU time
    # plus the client's store saves (the write path's half that runs here),
    # per request.  Two clients behind the default 2 ms coalescing window
    # make a loop bound by timer wake-ups, whose slip on a shared host moved
    # requests/s by 30-50% between runs of the same code; the server's CPU
    # time moved ~10%.
    cost_s = (loop.server_cpu_s + sum(loop.save_s)) / loop.ops * size.batch
    qps = loop.ops / loop.wall_s
    n_spread, n_writes = f"n={len(spread)}", f"n={len(writes)}"
    print_named("setup_s", median(setup), "s", f"median of {len(setup)} set-ups")
    print_named(
        "total_s", cost_s, "s", f"server CPU + client saves per {size.batch} requests"
    )
    print_named("capacity_per_s", size.batch / cost_s, "1/s", "per cost second")
    print_named("queries_per_s", qps, "1/s", f"{loop.ops} requests, 2 clients")
    print_named("query_p50_ms", median(spread) * 1e3, "ms", n_spread)
    print_named("query_p99_ms", percentile(spread, 99) * 1e3, "ms", n_spread)
    print_named("reload_p50_ms", median(writes) * 1e3, "ms", n_writes)
    print_named("reload_p90_ms", percentile(writes, 90) * 1e3, "ms", n_writes)
    print_named("welfare", welfare, "utility", "spread of the served max-budget seeds")
    print_named("peak_rss_mb", rss, "MB", "server VmHWM")
    print_named("error_rate", checks.error_rate, "ratio", f"{checks.attempted} ops")
    print_named("host.steal_share", host.steal_share(), "ratio")
    print_named("host.loadavg_1m", host.loadavg_1m(), "load")

    metrics = Metrics()
    metrics.set("setup_s", median(setup), "s")
    metrics.set("total_s", cost_s, "s")
    metrics.set("throughput_per_s", size.batch / cost_s, "1/s")
    metrics.set("peak_rss_mb", rss, "MB")
    metrics.set("welfare", welfare, "utility")
    return metrics


def _traced(
    served: Served, seconds: float, host: HostProbe, builds: List[float]
) -> Metrics:
    from tracing import layer_metrics, traced_pass

    size, server = served.size, served.server
    untraced = served.drive(seconds, size.min_writes)
    with server.client() as conn:
        before = conn.stats()
    loop, tracer, rss = traced_pass(
        lambda tracer: served.drive(seconds, size.min_writes, tracer)
    )
    with server.client() as conn:
        after = conn.stats()
    served.checks.op(server.stop(), "server did not exit 0 with leaked=0 on SIGINT")
    tracer.dump(
        WORK / "traces" / f"oracle-mixed-50k-{served.seed}.json",
        workload="oracle-mixed-50k",
        seed=served.seed,
    )

    def coalescing(stats, name):
        return stats["coalescing"].get(KEY, {}).get(name, 0)

    batches = coalescing(after, "batches") - coalescing(before, "batches")
    queries = coalescing(after, "queries") - coalescing(before, "queries")
    # The untraced loop's client time per request, scaled to the traced
    # loop's request count: what the traced requests cost without spans.
    untraced_equivalent = 2 * untraced.wall_s / untraced.ops * loop.ops
    latency = loop.latency
    extra = {
        "store.build_s": median(builds),
        "store.file_mb": served.path.stat().st_size / 2**20,
        "serving.seeds_p50_ms": median(latency["seeds"]) * 1e3,
        "serving.reload_rtt_p50_ms": median(loop.reload_rtt) * 1e3,
        "serving.requests": after["requests"] - before["requests"],
        "serving.errors": loop.errors,
        "serving.batches": batches,
        "serving.batch_size_mean": queries / batches if batches else 0.0,
        "serving.server_cpu_s": loop.server_cpu_s,
        "serving.server_busy": loop.server_cpu_s / loop.wall_s,
        "serving.client_cpu_s": loop.client_cpu_s,
        "host.steal_share": host.steal_share(),
        "host.loadavg_1m": host.loadavg_1m(),
    }
    for s in SEED_SET_SIZES:
        extra[f"serving.spread_s{s}_p50_ms"] = median(latency[f"spread{s}"]) * 1e3
    return layer_metrics(served.checks, tracer, rss, untraced_equivalent, extra)
