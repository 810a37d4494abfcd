"""Shared plumbing of the repository benchmark: paths, environment, stats.

Nothing here imports numpy or the ``repro`` package, so ``run.py`` can pin
the thread environment before either is loaded.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: Source tree of the program under test.
SRC = ROOT / "src"
#: Everything the benchmark writes: input cache, run scratch, span JSON.
WORK = ROOT / ".perfbench_work"

#: Native thread pools pinned to one thread so a run's timing does not
#: depend on how many cores a BLAS/OpenMP runtime decides to grab on a
#: shared two-core host.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_threads() -> None:
    """Pin native thread pools in this process (before numpy loads)."""
    os.environ.update(THREAD_ENV)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the program's source tree, pinned threads."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
    }
    env.update(THREAD_ENV)
    return env


def use_program_source() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree.

    Raises ``SystemExit`` (code 2) when the checkout carries no program —
    the benchmark alone is not something to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed for one purpose of a run, derived from the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Current resident set of this process in MiB."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def proc_status_mb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(f"{field} not in /proc/{pid}/status")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5) (utime, stime); index 0 here is field 3.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class HostProbe:
    """Host diagnostics over a run: CPU steal share and load average.

    On a shared host a stolen CPU slows every timed phase alike, so a run
    whose figures look off can be told apart from a slower program.
    """

    def __init__(self) -> None:
        self._start = self._cpu_times()

    @staticmethod
    def _cpu_times() -> Optional[List[int]]:
        try:
            with open("/proc/stat") as f:
                return [int(x) for x in f.readline().split()[1:]]
        except OSError:
            return None

    def steal_share(self) -> float:
        end = self._cpu_times()
        if self._start is None or end is None:
            return 0.0
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])  # user..steal; guest time is inside user
        return delta[7] / total if total > 0 and len(delta) > 7 else 0.0

    @staticmethod
    def loadavg_1m() -> float:
        return os.getloadavg()[0]


def host_line() -> str:
    import numpy as np

    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} platform={platform.machine()}"
    )


class Checks:
    """Attempted and failed operations of a run; a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Metrics:
    """Named metric values with units, printed as the run's result."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}

    def set(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = {"value": value, "unit": unit}


def print_named(name: str, value: float, unit: str, note: str = "") -> None:
    """One human-readable metric line (the JSON line comes last)."""
    suffix = f"  ({note})" if note else ""
    print(f"  {name:<32} {value:>16.6g} {unit}{suffix}", flush=True)


def emit(checks: Checks, metrics: Metrics) -> None:
    """Print the result line; it must be the last line of standard output."""
    for message in checks.messages:
        print(f"FAILED: {message}", flush=True)
    line = {
        "correct": checks.failed == 0,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": metrics.values,
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)

