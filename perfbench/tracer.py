"""Span tracer that times ontoguard's layers from outside the package.

``install`` replaces the stage-boundary functions of each module with
wrappers. Every call becomes a span carrying its name, start, end, parent
span and run id; spans stay in memory and are written out when the run
ends. Counters read each call's arguments and result at the same boundary,
inside a bookkeeping span of their own, so their cost is visible instead of
being charged to the caller.

Only stage-boundary functions are wrapped. Per-record helpers such as
``checkpoint.annotate``, ``dual_ontology.infer_clinical_code`` and
``model.record_from_dict`` run inside them: a span per record would cost
more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

# Layer name -> (ontoguard module, stage-boundary functions of that module).
LAYERS: Mapping[str, tuple[str, tuple[str, ...]]] = {
    "synthgen": ("synthgen", ("generate_batch", "generate_quarter_series", "write_ground_truth")),
    "version_gate": ("version_gate", (
        "gate_batch", "validate_migration", "write_quarantine", "read_quarantine",
    )),
    "checkpoint": ("checkpoint", (
        "build_reference_model", "annotate_batch", "fidelity_report", "write_fidelity_report",
    )),
    "dual_ontology": ("dual_ontology", (
        "infer_clinical_layer", "divergence", "write_divergence_csv",
        "apply_clinical_overrides", "read_overrides",
    )),
    "dormancy": ("dormancy", (
        "classify_features", "store_dormant", "check_activation",
        "write_store", "read_store", "write_prune_log",
    )),
    "breaker": ("breaker", (
        "compute_stats", "evaluate", "retrain_gate", "write_influence_csv",
        "write_refusal_packet", "read_history",
    )),
    "sentinel": ("sentinel", ("scan", "build_fingerprints", "write_alerts")),
    "compliance": ("compliance", ("compose", "load_adapter", "write_decision")),
    "kernels": ("kernels", ("jsd_base2", "jsd_rows")),
    "model.read": ("model", ("read_records", "load_code_system", "load_config")),
    # canonical_dumps serialises reports, stores and decision packets.
    "model.write": ("model", ("write_records", "canonical_dumps")),
    "harness": ("harness", ("run_scenario", "load_scenario")),
    "cli": ("cli", ("main",)),
}

ROOT_LAYER = "benchmark"
BOOKKEEPING_LAYER = "trace"

# Self-time metric name per layer. Orchestration layers report self time
# under an explicit name, because their spans enclose the stages they call.
TIME_METRICS: Mapping[str, str] = {
    **{layer: f"{layer}.s" for layer in LAYERS},
    "harness": "harness.self_s",
    "cli": "cli.self_s",
    BOOKKEEPING_LAYER: "trace.bookkeeping_s",
    ROOT_LAYER: "trace.unattributed_s",
}

# Counters that report the last value seen instead of a running sum.
LAST_VALUE_COUNTERS = frozenset({"dormancy.entries"})


def _file_size(path: Any) -> int:
    return os.path.getsize(path)


def _line_count(path: Any) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _infer_counts(args: Mapping[str, Any], result: Any) -> dict[str, float]:
    # Candidates are the records that reach the co-code likelihood loop.
    cutoff = args["cfg"].inference_fidelity_cutoff
    candidates = sum(
        1 for r in result
        if r.fidelity is not None and r.fidelity.score < cutoff and r.co_codes
    )
    rewrites = sum(1 for r in result if r.clinical_code != r.primary_code)
    return {"dual_ontology.candidates": candidates, "dual_ontology.rewrites": rewrites}


def _annotate_counts(args: Mapping[str, Any], result: Any) -> dict[str, float]:
    counts = {"checkpoint.records_out": len(result)}
    if hasattr(args["batch"], "__len__"):
        counts["checkpoint.records_in"] = len(args["batch"])
    return counts


def _retrain_counts(args: Mapping[str, Any], result: Any) -> dict[str, float]:
    refusal = sys.modules["ontoguard.breaker"].Refusal
    return {"breaker.refusals": int(isinstance(result, refusal))}


# Qualified function name -> counter(bound arguments, result) -> counts.
COUNTERS: Mapping[str, Callable[[Mapping[str, Any], Any], Mapping[str, float]]] = {
    "synthgen.generate_batch": lambda a, r: {"synthgen.records_out": len(r[0])},
    "version_gate.gate_batch": lambda a, r: {
        "version_gate.records_in": r.total(),
        "version_gate.reconciled": len(r.reconciled),
        "version_gate.quarantined": len(r.quarantined),
    },
    "checkpoint.annotate_batch": _annotate_counts,
    "dual_ontology.infer_clinical_layer": _infer_counts,
    "sentinel.scan": lambda a, r: {"sentinel.scans": 1, "sentinel.alerts": len(r)},
    "sentinel.build_fingerprints": lambda a, r: {
        "sentinel.fingerprinted_codes": len(r.by_code),
    },
    "kernels.jsd_base2": lambda a, r: {"sentinel.jsd_calls": 1},
    "kernels.jsd_rows": lambda a, r: {"sentinel.jsd_calls": len(r)},
    "model.read_records": lambda a, r: {
        "model.records_read": len(r), "model.bytes_read": _file_size(a["path"]),
    },
    "model.load_code_system": lambda a, r: {"model.bytes_read": _file_size(a["path"])},
    "model.load_config": lambda a, r: {"model.bytes_read": _file_size(a["path"])},
    "model.write_records": lambda a, r: {
        "model.records_written": _line_count(a["path"]),
        "model.bytes_written": _file_size(a["path"]),
    },
    "model.canonical_dumps": lambda a, r: {"model.bytes_written": len(r.encode("utf-8"))},
    "dormancy.store_dormant": lambda a, r: {"dormancy.entries": len(r.entries)},
    "breaker.retrain_gate": _retrain_counts,
    "compliance.compose": lambda a, r: {"compliance.calls": 1},
}

# Every counter the traced run reports, whether or not a workload moves it.
COUNTER_NAMES = (
    "synthgen.records_out",
    "version_gate.records_in", "version_gate.reconciled", "version_gate.quarantined",
    "checkpoint.records_in", "checkpoint.records_out",
    "dual_ontology.candidates", "dual_ontology.rewrites",
    "sentinel.scans", "sentinel.jsd_calls", "sentinel.fingerprinted_codes", "sentinel.alerts",
    "model.records_read", "model.records_written", "model.bytes_read", "model.bytes_written",
    "dormancy.entries", "breaker.refusals", "compliance.calls",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict[str, Any]] = []

    def open(self, name: str, layer: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "layer": layer,
            "run": self.run_id,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        span["end"] = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict[str, Any]]:
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, counts: Mapping[str, float]) -> None:
        for key, value in counts.items():
            if key in LAST_VALUE_COUNTERS:
                self.counts[key] = value
            else:
                self.counts[key] += value

    def wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(qualname, layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span("trace.count", BOOKKEEPING_LAYER):
                    bound = signature.bind(*args, **kwargs).arguments
                    self.count(counter(bound, result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["layer"]] += span["end"] - span["start"] - child_time[span["id"]]
        return dict(totals)

    def metrics(self) -> dict[str, float]:
        """Every per-layer time and counter; layers never called read 0."""
        times = self.self_times()
        out = {metric: times.get(layer, 0.0) for layer, metric in TIME_METRICS.items()}
        for name in COUNTER_NAMES:
            out[name] = float(self.counts.get(name, 0.0))
        candidates = out["dual_ontology.candidates"]
        out["dual_ontology.rewrite_ratio"] = (
            out["dual_ontology.rewrites"] / candidates if candidates else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every stage-boundary function; returns a function that undoes it.

    Rebinding covers module attributes (``harness`` calls stages through
    ``checkpoint_mod.annotate_batch``) and names imported with ``from ...
    import`` (``cli`` holds its own ``read_records``), so every caller in
    the package goes through the wrapper.
    """
    replacements: dict[int, tuple[Callable, Callable]] = {}
    for layer, (module_name, names) in LAYERS.items():
        module = importlib.import_module(f"ontoguard.{module_name}")
        for name in names:
            original = getattr(module, name)
            replacements[id(original)] = (
                original, tracer.wrap(layer, f"{module_name}.{name}", original),
            )
    undo: list[tuple[Any, str, Callable]] = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "ontoguard" or module_name.startswith("ontoguard.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def uninstall() -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    return uninstall
