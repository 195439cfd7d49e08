"""One execution of one workload, in a fresh process started by ``run.py``.

Prints a single JSON object on stdout: raw set-up seconds with a reference
slice timed right after, raw and reference-scaled wall seconds of the timed
region (see ``calibrate.py``), peak RSS, the output checks and a digest of
the outputs, plus the per-layer metrics when traced. ``--phase prepare``
instead writes the workload's input files, and ``--phase setup`` only sets
up and reports how long that took.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> None:
    """Import ontoguard from this checkout's sources, never from elsewhere."""
    if not (SRC / "ontoguard" / "__init__.py").is_file():
        raise SystemExit(f"error: no ontoguard sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ontoguard

    if not Path(ontoguard.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: ontoguard imported from {ontoguard.__file__}, not {SRC}")


def _trace_checks(ctx, layer: dict[str, float]) -> list[tuple[str, bool]]:
    """Cross-check the trace's counters against what the workload fed in."""
    checks = [("trace: checkpoint.records_in == checkpoint.records_out",
               layer["checkpoint.records_in"] == layer["checkpoint.records_out"])]
    if ctx.workload == "jsonl-cli":
        checks.append(("trace: model.records_read == records fed to the chain",
                       layer["model.records_read"] == ctx.records_in))
    else:
        checks.append(("trace: synthgen.records_out == records generated",
                       layer["synthgen.records_out"] == ctx.records_in))
    return checks


def _setup(args: argparse.Namespace, out: Path):
    """Set up the workload; time it from process spawn, with a slice after."""
    import workloads

    ctx = workloads.setup(args.workload, args.seed, args.smoke, args.work, out)
    setup_raw_s = time.monotonic() - args.spawn
    return ctx, {"setup_raw_s": setup_raw_s, "setup_slice_s": calibrate.warm_slice()}


def measure(args: argparse.Namespace) -> dict:
    import workloads

    out = args.work / f"out-{args.index}"
    out.mkdir()
    ctx, result = _setup(args, out)
    result["records_in"] = ctx.records_in
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{args.index}"
        with calibrate.Calibrator() as cal:
            # Spans read a clock that stops during reference slices.
            spans = tracer.Tracer(run_id, clock=cal.active_clock)
            uninstall = tracer.install(spans)
            try:
                with spans.span("benchmark.run", tracer.ROOT_LAYER) as root:
                    workloads.run(ctx)
            finally:
                uninstall()
        # Every span is rescaled by the run's overall reference scale.
        result["layers"] = {
            name: value * cal.scale if name in tracer.TIME_METRICS.values() else value
            for name, value in spans.metrics().items()
        }
        result["wall_s"] = (root["end"] - root["start"]) * cal.scale
        spans.write(args.spans_dir / f"{run_id}.jsonl")
    else:
        with calibrate.Calibrator() as cal:
            workloads.run(ctx)
        result["wall_s"] = cal.scaled_s
    result["wall_raw_s"] = cal.raw_s
    result["reference_s"] = statistics.median(cal.slices)
    # ru_maxrss is in KiB on Linux; read before the checks parse outputs.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workloads.check(ctx)
    if args.trace:
        checks += _trace_checks(ctx, result["layers"])
    result["checks"] = checks
    result["digest"] = workloads.output_digest(ctx)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", choices=("prepare", "setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans-dir", type=Path)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--spawn", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    args = parser.parse_args()
    _import_package()
    import workloads

    if args.phase == "prepare":
        workloads.prepare(args.workload, args.seed, args.smoke, args.work)
        print(json.dumps({"prepared": True}))
        return 0
    if args.phase == "setup":
        print(json.dumps(_setup(args, args.work)[1]))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
