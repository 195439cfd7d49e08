"""Pipeline benchmark for ontoguard.

    python3 perfbench/run.py --workload walkthrough --seed 42 --seconds 25 --trace 0

Runs one workload (or ``all``) against the package under ``src/``. Every
execution is a fresh child process, one at a time, single-threaded. Children
are started while the next one would end nearer to ``--seconds`` than
stopping does; each metric is the median over the children. Times are in
reference-scaled seconds: a fixed reference slice, timed every 0.8 s inside
the timed region and around each set-up, corrects them for the speed of the
shared CPU at that moment (``calibrate.py``). With ``--trace 1``, untraced
and traced children alternate: the traced ones give the per-layer metrics,
the untraced ones the tracing overhead, and both must write identical
outputs.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Output checks that fail, or a child that crashes,
make the run incorrect and the exit code 1; a crash fails every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("walkthrough", "drift-storm", "jsonl-cli")
# Workloads whose inputs are files written, untimed, before measuring.
NEEDS_INPUT_FILES = ("jsonl-cli",)
RUN_TIMEOUT_S = 170.0
# Set-up-only children per run, besides one set-up per measuring child.
# setup_s is the median raw set-up, scaled by the median of the reference
# slices timed around every set-up: one 0.3 s set-up spreads too much to
# be scaled on its own.
SETUP_SAMPLES = 8

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "records_per_ref_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _child(phase: str, workload: str, seed: int, smoke: bool, work: Path,
           timeout: float, trace: bool = False, index: int = 0) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--phase", phase,
           "--workload", workload, "--seed", str(seed), "--work", str(work),
           "--spans-dir", str(WORK_ROOT / "spans"), "--index", str(index)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    cmd += ["--spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{phase} child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"{phase} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, f"{phase} child printed no result:\n{proc.stderr[-4000:]}"
    return json.loads(lines[-1]), ""


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Run children for about ``seconds`` and aggregate them into one result."""
    started = time.monotonic()
    (WORK_ROOT / "spans").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    children: list[dict] = []
    # Raw set-up seconds of every child, and the reference slices timed
    # just before and just after each set-up.
    setup_samples: list[float] = []
    setup_slices: list[float] = []
    errors: list[str] = []
    try:
        # Byte-compile first so no child pays for it; users pay it once.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                        str(BENCH_DIR)], cwd=ROOT, check=False, capture_output=True)
        if workload in NEEDS_INPUT_FILES:
            _, error = _child("prepare", workload, seed, smoke, work, RUN_TIMEOUT_S)
            if error:
                errors.append(error)
        calibrate.warm_slice()
        for index in range(SETUP_SAMPLES):
            slice_before = calibrate.reference_slice()
            result, error = _child("setup", workload, seed, smoke, work, RUN_TIMEOUT_S,
                                   index=index)
            if error:
                errors.append(error)
                break
            setup_samples.append(result["setup_raw_s"])
            setup_slices += [slice_before, result["setup_slice_s"]]
        measure_start = time.monotonic()
        longest = 0.0
        while not errors:
            traced = trace and len(children) % 2 == 1
            slice_before = calibrate.reference_slice()
            child_start = time.monotonic()
            remaining = RUN_TIMEOUT_S - (child_start - started)
            result, error = _child("measure", workload, seed, smoke, work, remaining,
                                   trace=traced, index=len(children))
            if error:
                errors.append(error)
                break
            result["traced"] = traced
            children.append(result)
            setup_samples.append(result["setup_raw_s"])
            setup_slices += [slice_before, result["setup_slice_s"]]
            # Start another child while it would end nearer to ``seconds``
            # than stopping now does.
            longest = max(longest, time.monotonic() - child_start)
            enough = len(children) >= (2 if trace else 1)
            if enough and time.monotonic() - measure_start + longest / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = 0.0
    if setup_samples:
        setup_s = calibrate.scale_to_reference(_median(setup_samples), _median(setup_slices))
    return aggregate(workload, children, setup_s, errors, trace)


def aggregate(workload: str, children: list[dict], setup_s: float,
              errors: list[str], trace: bool) -> dict:
    checks: list[tuple[str, bool]] = []
    for child in children:
        checks += [tuple(c) for c in child["checks"]]
    if children:
        first = children[0]["digest"]
        checks += [(f"child {i}: outputs byte-identical to child 0", c["digest"] == first)
                   for i, c in enumerate(children[1:], start=1)]
    attempted = max(len(checks), 1)
    failed = attempted if errors else sum(1 for _, ok in checks if not ok)
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    metrics: dict[str, dict] = {}
    if plain and not trace:
        metrics = {
            "wall_ref_s": _median([c["wall_s"] for c in plain]),
            "records_per_ref_s": _median([c["records_in"] / c["wall_s"] for c in plain]),
            "setup_s": setup_s,
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    elif plain and traced:
        layers = {name: _median([c["layers"][name] for c in traced])
                  for name in traced[0]["layers"]}
        units = {name: _layer_unit(name) for name in layers}
        traced_wall = _median([c["wall_s"] for c in traced])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - _median([c["wall_s"] for c in plain])
        layers["machine.reference_s"] = _median([c["reference_s"] for c in children])
        layers["machine.raw_wall_s"] = _median([c["wall_raw_s"] for c in plain])
        units.update({name: "s" for name in ("trace.wall_s", "trace.overhead_s",
                                             "machine.reference_s", "machine.raw_wall_s")})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    return {
        "workload": workload,
        "children": len(children),
        "walls": [c["wall_s"] for c in children],
        "raw_walls": [c["wall_raw_s"] for c in children],
        "errors": errors,
        "failed_checks": [name for name, ok in checks if not ok],
        "result": {
            "correct": not errors and failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("model.bytes"):
        return "bytes"
    return "count"


def report(summary: dict) -> None:
    result = summary["result"]
    print(f"# {summary['workload']}: {summary['children']} children, "
          f"walls {', '.join(f'{w:.3f}' for w in summary['walls'])} reference-scaled s, "
          f"raw {', '.join(f'{w:.3f}' for w in summary['raw_walls'])} s")
    for name, metric in result["metrics"].items():
        print(f"{summary['workload']:12s} {name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{summary['workload']:12s} error_rate {result['failed']}/{result['attempted']} checks failed")
    for name in summary["failed_checks"]:
        print(f"FAILED CHECK: {name}", file=sys.stderr)
    for error in summary["errors"]:
        print(f"ERROR: {error}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "ontoguard" / "__init__.py").is_file():
        print(f"error: no ontoguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.size == "smoke")
        report(summary)
        summaries.append(summary)
    if len(summaries) == 1:
        final = summaries[0]["result"]
    else:
        final = {
            "correct": all(s["result"]["correct"] for s in summaries),
            "attempted": sum(s["result"]["attempted"] for s in summaries),
            "failed": sum(s["result"]["failed"] for s in summaries),
            "metrics": {f"{s['workload']}.{k}": v for s in summaries
                        for k, v in s["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
