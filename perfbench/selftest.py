"""The benchmark's own tests, at toy scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Metrics each workload prints by name, with their unit, before the result.
NAMED = {
    "pipeline-100k": {
        "setup_s": "s",
        "total_s": "s",
        "ingest_edges_per_s": "1/s",
        "allocate_s": "s",
        "forward_worlds_per_s": "1/s",
        "welfare": "utility",
        "peak_rss_mb": "MB",
        "error_rate": "ratio",
    },
    "welfare-20k": {
        "setup_s": "s",
        "total_s": "s",
        "forward_worlds_per_s": "1/s",
        "welfare": "utility",
        "peak_rss_mb": "MB",
        "error_rate": "ratio",
    },
    "oracle-mixed-50k": {
        "setup_s": "s",
        "queries_per_s": "1/s",
        "query_p50_ms": "ms",
        "query_p99_ms": "ms",
        "reload_p50_ms": "ms",
        "reload_p90_ms": "ms",
        "peak_rss_mb": "MB",
        "error_rate": "ratio",
    },
}


def _run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "toy",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _named_lines(stdout: str) -> dict:
    named = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            named[parts[0]] = parts[2]
    return named


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric_and_passes_its_checks(workload):
    proc = _run(workload)
    result = _result(proc)
    assert result["correct"], proc.stdout[-3000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] != 0 for v in result["metrics"].values())
    named = _named_lines(proc.stdout)
    for name, unit in NAMED[workload].items():
        assert named.get(name) == unit, (name, proc.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc = _run(workload, trace=1)
    result = _result(proc)
    assert result["correct"], proc.stdout[-3000:]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["bench.traced_total_s"] > 0
    trace = json.loads(
        (common.WORK / "traces" / f"{workload}-1.json").read_text()
    )
    self_sum = sum(entry["self_s"] for entry in trace["layers"].values())
    assert self_sum == pytest.approx(values["bench.traced_total_s"], rel=1e-9)


def test_second_seed_runs():
    result = _result(_run("pipeline-100k", seed=2))
    assert result["correct"]
    assert result["failed"] == 0


def test_corrupted_answer_raises_error_rate(monkeypatch):
    """A wrong local golden makes every served spread answer a failed op."""
    common.pin_threads()
    common.use_program_source()
    import oracle_mixed
    from repro.store.service import OracleService

    honest = OracleService.coverage_fraction
    monkeypatch.setattr(
        OracleService,
        "coverage_fraction",
        lambda self, seeds: honest(self, seeds) + 1e-12,
    )
    checks = common.Checks()
    oracle_mixed.run(1, 0.5, False, "toy", checks)
    assert checks.failed > 0
    assert checks.error_rate > 0


def test_slow_store_save_raises_oracle_total_s(monkeypatch):
    """The client's SketchStore.save is part of the oracle's gated cost."""
    common.pin_threads()
    common.use_program_source()
    import time

    import oracle_mixed
    from repro.store.sketch_store import SketchStore

    def total_s():
        metrics = oracle_mixed.run(1, 0.5, False, "toy", common.Checks())
        return metrics.values["total_s"]["value"]

    baseline = total_s()
    honest = SketchStore.save

    def slow_save(self, *args, **kwargs):
        time.sleep(0.2)
        return honest(self, *args, **kwargs)

    monkeypatch.setattr(SketchStore, "save", slow_save)
    # One write in 100 requests; 0.2 s each adds ~0.2 s per 100 requests.
    assert total_s() > baseline + 0.1


def test_corrupted_welfare_is_caught():
    checks = common.Checks()
    from outputs import check_welfare, reference_welfare

    ref = reference_welfare("welfare-20k", "toy")
    seed, value, stderr = ref["seed"], ref["value"], ref["stderr"]
    check_welfare(checks, "welfare-20k", "toy", seed, value, stderr)
    assert checks.failed == 0
    check_welfare(checks, "welfare-20k", "toy", seed, value * 1.5, stderr)
    check_welfare(checks, "welfare-20k", "toy", seed + 1, value * 2, 0.0)
    check_welfare(checks, "welfare-20k", "toy", seed + 1, float("nan"), 0.0)
    assert checks.failed == 3


def test_fold_self_times_sum_to_root_durations():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent}

    spans = [
        span(0, "bench", 0.0, 10.0, None),
        span(1, "core.bundle_grd", 1.0, 7.0, 0),
        span(2, "rrset.sample", 2.0, 4.0, 1),
        span(3, "rrset.sample", 4.5, 5.0, 1),
        span(4, "diffusion.forward", 8.0, 9.5, 0),
        span(5, "bench", 0.0, 3.0, None),  # a second client thread
    ]
    layers = tracing.fold(spans)
    assert layers["rrset.sample"] == {"self_s": 2.5, "calls": 2}
    assert layers["core.bundle_grd"]["self_s"] == pytest.approx(3.5)
    assert layers["bench"]["self_s"] == pytest.approx(2.5 + 3.0)
    total = sum(entry["self_s"] for entry in layers.values())
    assert total == pytest.approx(tracing.traced_total(spans))


def test_benchmark_json_lists_every_layer_metric():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == tracing.PER_LAYER


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("welfare-20k", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
