"""The benchmark's own tests: tracer accounting and every workload at smoke size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import run as bench_run
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_bookkeeping():
    clock = _FakeClock()
    spans = tracer.Tracer("t", clock=clock)
    with spans.span("benchmark.run", tracer.ROOT_LAYER):
        clock.now = 1.0
        with spans.span("harness.run_scenario", "harness"):
            clock.now = 2.0
            with spans.span("checkpoint.annotate_batch", "checkpoint"):
                clock.now = 5.0
            with spans.span("trace.count", tracer.BOOKKEEPING_LAYER):
                clock.now = 5.5
            clock.now = 6.0
        clock.now = 6.25
    times = spans.self_times()
    assert times == {
        tracer.ROOT_LAYER: 1.25, "harness": 1.5, "checkpoint": 3.0,
        tracer.BOOKKEEPING_LAYER: 0.5,
    }
    assert sum(times.values()) == 6.25
    assert spans.spans[2]["parent"] == spans.spans[1]["id"]
    assert {s["run"] for s in spans.spans} == {"t"}


def test_install_rebinds_imported_names_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from ontoguard import cli, harness, model

    original = model.read_records
    spans = tracer.Tracer("t")
    uninstall = tracer.install(spans)
    try:
        assert cli.read_records is model.read_records is not original
        assert harness.checkpoint_mod.annotate_batch.__wrapped__.__module__ == "ontoguard.checkpoint"
    finally:
        uninstall()
    assert cli.read_records is model.read_records is original


def test_calibrator_excludes_slices_and_restores_the_alarm_handler():
    handler = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with calibrate.Calibrator(interval=0.05) as cal:
        while time.perf_counter() - start < 0.3:
            pass
    total = time.perf_counter() - start
    assert len(cal.slices) == len(cal.segments) + 1 >= 3
    assert cal.raw_s == pytest.approx(sum(cal.segments))
    assert cal.raw_s + sum(cal.slices) == pytest.approx(total, abs=0.02)
    assert cal.scaled_s == pytest.approx(sum(
        calibrate.scale_to_reference(seg, before, after)
        for seg, before, after in zip(cal.segments, cal.slices, cal.slices[1:])))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failed_check_or_crash_fails_the_run():
    child = {"checks": [["ok", True], ["bad", False]], "digest": "d", "traced": False,
             "wall_s": 1.0, "wall_raw_s": 1.2, "reference_s": 0.09, "records_in": 10,
             "peak_rss_mb": 5.0}
    result = bench_run.aggregate("walkthrough", [child], 0.1, [], trace=False)["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    crashed = bench_run.aggregate("walkthrough", [child], 0.1, ["child exited 1"],
                                  trace=False)
    assert crashed["result"]["failed"] == crashed["result"]["attempted"] == 2


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    result = _smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    accounted = sum(metrics[m] for m in tracer.TIME_METRICS.values())
    assert accounted == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    # Layer isolation.
    assert (metrics["synthgen.s"] == 0.0) == (workload == "jsonl-cli")
    assert (metrics["model.records_read"] > 0) == (workload == "jsonl-cli")
    assert (metrics["breaker.refusals"] > 0) == (workload == "drift-storm")


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    result = _smoke("walkthrough", trace=0)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "walkthrough", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
