"""Scenario harness composing all pipeline stages over simulated quarters.

Per quarter the stages run in layer order: ingestion (version gate, then
fidelity annotation), storage (clinical-layer inference and divergence,
dormancy classification), training (influence stats, breaker, gated
retraining), then monitoring (drift scan against the first quarter).
Compliance wraps the external-facing operations: every ingest, the final
deployment decision, and the report export. Quarters are causally chained
through the breaker history and the model, so they run sequentially.
Every stage call goes through ``run_stage``, as every CLI command does: it
names the stage and quarter in any fault that is not the machine's, and
appends the stage's ordering-trace entry. A fault of the input, such as a
quarter whose every record is quarantined, stops the run with exit code 1.

All timestamps in run artifacts come from the simulated calendar, which
keeps outputs byte-identical for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, datetime, time as dtime
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from . import breaker as breaker_mod
from . import checkpoint as checkpoint_mod
from . import compliance as compliance_mod
from . import dormancy as dormancy_mod
from . import dual_ontology as dual_mod
from . import sentinel as sentinel_mod
from . import synthgen as synthgen_mod
from . import version_gate as gate_mod
from .model import (
    BatchProfile,
    Layer,
    StageError,
    TimeWindow,
    ValidationError,
    from_json,
    load_code_system,
    load_config,
    load_json,
    profile_batch,
    to_json,
    write_json,
)

# Layer of each stage module, the part of a stage name before the dot.
STAGE_LAYERS = {"gate": 1, "checkpoint": 1, "dual_ontology": 2, "dormancy": 2, "breaker": 3,
                "sentinel": 4, "compliance": 5, "deploy": 5, "export": 5}


# The fields each assertion kind reads besides its quarter, with their types;
# an absent field is null, so only a field that may be null may be left out.
_ASSERTIONS: Mapping[str, Mapping[str, Any]] = {
    "gate_counts": {"accepted": int, "reconciled": int, "quarantined": int},
    "dormant_entry": {"code": str, "count": int, "conditions": int},
    "breaker": {"ratio": float, "state": str},
    "drift_alert": {"code": str, "drift_type": str, "evidence_billing_category": str | None},
    "deploy_verdict": {"verdict": str, "condition_contains": str | None},
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario file. Its file references resolve against the file's
    directory; ``layer_notes`` is free text on what each distortion
    exercises, which the run never reads."""

    name: str
    code_system_path: Path = field(metadata={"json": "code_system"})
    config_path: Path = field(metadata={"json": "config"})
    adapter_paths: tuple[Path, ...] = field(metadata={"json": "adapters"})
    quarters: int
    n_per_quarter: int
    start: date
    target_version: str
    distortion: synthgen_mod.DistortionSpec
    significance: Mapping[str, str] = field(default_factory=dict,
                                            metadata={"json": "significance_list"})
    activation_conditions: dormancy_mod.Conditions = field(default_factory=dict)
    ingest_context: Mapping[str, compliance_mod.ContextValue] = field(default_factory=dict)
    deploy_context: Mapping[str, compliance_mod.ContextValue] = field(default_factory=dict)
    assertions: tuple[Mapping[str, Any], ...] = ()
    layer_notes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("quarters", "n_per_quarter"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not all(type(a.get("kind")) is str for a in self.assertions):
            raise ValidationError("assertions must be a list of objects, each with a string kind")
        for i, assertion in enumerate(self.assertions):
            kind = assertion["kind"]
            if kind not in _ASSERTIONS:
                raise ValidationError(f"assertions[{i}].kind must be one of "
                                      f"{sorted(_ASSERTIONS)}, got {kind!r}")
            quarter = assertion.get("quarter", 1 if kind == "deploy_verdict" else None)
            if type(quarter) is not int or not 1 <= quarter <= self.quarters:
                raise ValidationError(f"assertions[{i}].quarter must be an integer in "
                                      f"1..{self.quarters}, got {quarter!r}")
            for key, tp in _ASSERTIONS[kind].items():
                try:
                    from_json(tp, assertion.get(key))
                except ValidationError as exc:
                    raise ValidationError(f"assertions[{i}].{key} {exc}") from None
        for code in self.significance:
            if not self.activation_conditions.get(code):
                raise ValidationError(
                    f"significance_list code {code!r} has no activation_conditions entry")


@dataclass
class RunReport:
    scenario: str
    seed: int
    target_version: str
    quarters: list[dict[str, Any]]
    trace: list[dict[str, Any]]
    deploy: dict[str, Any]
    assertions: list[dict[str, Any]]


def fixture_dir() -> Path:
    return Path(str(resources.files("ontoguard") / "fixtures"))


def load_scenario(name_or_path: str | Path) -> ScenarioSpec:
    """Load a scenario spec by bundled name or filesystem path.

    Relative file references resolve against the spec file's directory, and
    every referenced file must exist at load time. The codes of
    ``significance_list`` and ``activation_conditions`` must be defined by
    the code system, which is loaded here to check them.
    """
    path = Path(name_or_path)
    if not path.exists():
        candidate = fixture_dir() / f"{str(name_or_path).replace('-', '_')}.json"
        if candidate.exists():
            path = candidate
        else:
            raise ValidationError(f"scenario not found: {name_or_path}")
    spec = _resolve_files(load_json(path, "scenario file", ScenarioSpec), path)
    system = load_code_system(spec.code_system_path)
    defined = {code for codes in system.codes_by_version.values() for code in codes}
    for name, codes in (("significance_list", spec.significance),
                        ("activation_conditions", spec.activation_conditions)):
        if unknown := sorted(codes.keys() - defined):
            raise ValidationError(f"scenario file {path} {name} lists unknown code {unknown[0]!r}")
    return spec


def _resolve_files(spec: ScenarioSpec, path: Path) -> ScenarioSpec:
    """``spec``, its file references resolved beside scenario file ``path``."""
    def resolve(ref: Path) -> Path:
        if not (path.parent / ref).is_file():
            raise ValidationError(f"scenario file {path} references missing file: {ref}")
        return path.parent / ref
    return replace(spec, code_system_path=resolve(spec.code_system_path),
                   config_path=resolve(spec.config_path),
                   adapter_paths=tuple(map(resolve, spec.adapter_paths)))


class _Tracer:
    def __init__(self) -> None:
        self.entries: list[dict[str, Any]] = []
        self.quarter = 0

    def add(self, stage: str, detail: Mapping[str, Any]) -> None:
        self.entries.append({"seq": len(self.entries), "quarter": self.quarter, "stage": stage,
                             "layer": STAGE_LAYERS[stage.partition(".")[0]],
                             "detail": dict(detail)})


def run_stage(trace: _Tracer | None, name: str, fn: Callable[..., Any], /, *args: Any,
              detail: Callable[[Any], Mapping[str, Any]] | None = None, **kwargs: Any) -> Any:
    """``fn(*args, **kwargs)`` as stage ``name`` of the trace's quarter, or of a
    command when ``trace`` is None; its leading parameters are positional-only,
    so any other keyword reaches ``fn``. Faults of the machine pass unchanged,
    as does a ``StageError``. A ``ValidationError`` stays one, naming the stage
    and quarter in a run; a command's passes unchanged, as its files are named
    there. Any other exception becomes a ``StageError`` naming the stage.
    ``detail(result)`` is its trace entry."""
    try:
        result = fn(*args, **kwargs)
    except (OSError, MemoryError, StageError):
        raise
    except Exception as exc:
        if trace is None and isinstance(exc, ValidationError):
            raise
        where = "" if trace is None else f" in quarter {trace.quarter}"
        error = ValidationError if isinstance(exc, ValidationError) else StageError
        raise error(f"stage {name} failed{where}: {exc}") from exc
    if detail is not None:
        trace.add(name, detail(result))
    return result


def _simulated_now(window: TimeWindow) -> datetime:
    return datetime.combine(window.end, dtime(23, 59, 59))


def _period_label(window: TimeWindow) -> str:
    return f"{window.start.year}Q{(window.start.month - 1) // 3 + 1}"


def _verdict(decision: tuple[compliance_mod.Verdict, Any]) -> dict[str, str]:
    return {"verdict": decision[0].kind.value}


def run_scenario(
    spec: ScenarioSpec, seed: int, out_dir: str | Path
) -> RunReport:
    """Run the full pipeline over the scenario's quarters, on the code system,
    config and adapters that its files name; deterministic for a fixed seed.
    Every stage runs through ``run_stage``, so a stage failure surfaces with
    its name and quarter. A denied ingest or export stops the run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = load_code_system(spec.code_system_path)
    cfg = load_config(spec.config_path)
    adapters = [compliance_mod.load_adapter(p) for p in spec.adapter_paths]
    tracer = _Tracer()

    # Reference history, run as quarter 0 with no trace entry: the quarter
    # before the scenario starts, carrying only the standing institutional
    # habits (no onset distortions). No stage reads the ground truth; only
    # the batch is kept.
    history_window = synthgen_mod.quarter_window(spec.start, -1)
    history = run_stage(tracer, "synthgen", synthgen_mod.generate_batch,
                        system, spec.distortion.without_onset_distortions(), spec.n_per_quarter,
                        seed=[seed, 10_007], window=history_window, id_prefix="H")[0]
    ref = run_stage(tracer, "checkpoint.reference", checkpoint_mod.build_reference_model,
                    history, system)
    del history  # no stage reads the history records again

    model = breaker_mod.ToyRiskModel(model_version="toy-risk-1", weights={})
    ratios: tuple[tuple[str, float], ...] = ()
    store: dormancy_mod.DormantStore | None = None
    baseline: BatchProfile | None = None
    prior_alerts: list[sentinel_mod.DriftAlert] = []
    dashboard_rows: list[tuple[str, breaker_mod.InfluenceStats, breaker_mod.BreakerState]] = []
    quarter_summaries: list[dict[str, Any]] = []

    for q in range(1, spec.quarters + 1):
        tracer.quarter = q
        window = synthgen_mod.quarter_window(spec.start, q - 1)
        period = _period_label(window)
        now = _simulated_now(window)
        qdir = out / f"q{q}"
        qdir.mkdir(exist_ok=True)

        batch = run_stage(tracer, "synthgen", synthgen_mod.generate_batch,
                          system, spec.distortion, spec.n_per_quarter, seed=[seed, q - 1],
                          window=window, id_prefix=f"Q{q}", quarter_index=q - 1)[0]

        ingest_op = compliance_mod.DataOperation(
            op_kind=compliance_mod.OpKind.INGEST, context=dict(spec.ingest_context)
        )
        ingest_verdict, ingest_audit = run_stage(
            tracer, "compliance.ingest", compliance_mod.compose, adapters, ingest_op, now=now,
            detail=_verdict)
        if ingest_verdict.kind is compliance_mod.VerdictKind.DENY:
            raise StageError(
                f"stage compliance.ingest denied in quarter {q}: {ingest_verdict.reason}"
            )

        migration = None
        if q == 1:
            lagging: dict[str, set[str]] = {}
            for version, code in batch.groups("version", "code")[0]:
                lagging.setdefault(version, set()).add(code)
            for from_version in sorted(lagging.keys() - {spec.target_version}):
                migration = run_stage(
                    tracer, "gate.validate_migration", gate_mod.validate_migration,
                    system, from_version, spec.target_version, lagging[from_version],
                    detail=lambda m: {"from": m.from_version, "coverage": m.mapping_coverage,
                                      "verdict": m.verdict.value})

        outcome = run_stage(tracer, "gate.batch", gate_mod.gate_batch, batch, system,
                            spec.target_version, detail=gate_mod.GateOutcome.counts)
        gate_mod.write_quarantine(qdir / "quarantine.jsonl", outcome)
        gate_counts = outcome.counts()

        # Each batch is freed after its last reader, so a quarter holds at
        # most two batches of its records and none of the last quarter's.
        processed = outcome.processed_records()
        del batch, outcome
        annotated = run_stage(tracer, "checkpoint.annotate", checkpoint_mod.annotate_batch,
                              processed, ref, cfg, detail=lambda a: {"n": len(a)})
        del processed
        fid_report = run_stage(tracer, "checkpoint.fidelity_report",
                               checkpoint_mod.fidelity_report, annotated)
        checkpoint_mod.write_fidelity_report(fid_report, qdir / "fidelity_report.csv")

        inferred = run_stage(tracer, "dual_ontology.infer", dual_mod.infer_clinical_layer,
                             annotated, ref, cfg, detail=lambda i: {"n": len(i)})
        del annotated
        div_report = run_stage(tracer, "dual_ontology.divergence", dual_mod.divergence, inferred,
                               detail=lambda d: {"disagreement_rate": d.disagreement_rate})
        dual_mod.write_divergence_csv(div_report, qdir / "divergence.csv")

        # Dormancy and the drift scan read one profile of the quarter; the
        # first quarter's profile is the scan baseline for the whole run.
        profile = run_stage(tracer, "profile", profile_batch, inferred, Layer.ADMINISTRATIVE)
        classification = run_stage(
            tracer, "dormancy.classify", dormancy_mod.classify_features,
            profile, spec.significance.keys(), cfg,
            detail=lambda c: {cls.value: sum(v is cls for v in c.values())
                              for cls in dormancy_mod.FeatureClass})
        store = run_stage(tracer, "dormancy.store", dormancy_mod.store_dormant, classification,
                          profile, spec.activation_conditions, spec.significance, store,
                          detail=lambda s: {"entries": len(s.entries)})
        dormancy_mod.write_store(store, out / "dormant_store.json")
        dormancy_mod.write_prune_log(store, out / "prune_log.csv")
        events = [
            dormancy_mod.ActivationCondition(
                kind=dormancy_mod.ActivationKind.OUTBREAK_SIGNAL, signal_code=alert.code
            )
            for alert in prior_alerts
            if alert.drift_type is sentinel_mod.DriftType.TYPE_A
        ]
        activations = run_stage(
            tracer, "dormancy.activation", dormancy_mod.check_activation, store, profile, events,
            detail=lambda a: {"activated": sorted({c for c, _ in a})})

        stats = run_stage(tracer, "breaker.stats", breaker_mod.compute_stats, inferred, ratios,
                          cohort_id=f"cohort-{period}", period=period,
                          detail=lambda s: {"ratio": s.ratio})
        ratios = stats.history
        state = run_stage(tracer, "breaker.evaluate", breaker_mod.evaluate, stats, cfg,
                          detail=lambda s: {"state": s.state.value})
        dashboard_rows.append((period, stats, state))
        gate_result = run_stage(tracer, "breaker.retrain", breaker_mod.retrain_gate,
                                state, inferred, model, stats)
        if isinstance(gate_result, breaker_mod.Refusal):
            breaker_mod.write_refusal_packet(gate_result, qdir / "refusal.json")
            tracer.add("breaker.refusal", {"reason": gate_result.reason})
        else:
            model = gate_result
            tracer.add("breaker.retrain", {"model_version": model.model_version})
        del inferred

        if baseline is None:
            baseline = profile
        alerts = run_stage(
            tracer, "sentinel.scan", sentinel_mod.scan, baseline, profile, system, cfg,
            detail=lambda a: {"baseline_quarter": 1, "current_quarter": q, "alerts": len(a)})
        sentinel_mod.write_alerts(alerts, qdir / "alerts.jsonl")
        prior_alerts = alerts

        quarter_summaries.append({
            "quarter": q,
            "period": period,
            "window": window,
            "migration": None if migration is None else {
                "from_version": migration.from_version,
                "to_version": migration.to_version,
                "coverage": migration.mapping_coverage,
                "verdict": migration.verdict.value,
            },
            "gate": gate_counts,
            "fidelity_by_institution": {
                row.institution_id: {"n": row.n, "mean": row.mean}
                for row in fid_report
            },
            "divergence": {
                "disagreement_rate": div_report.disagreement_rate,
                "n": div_report.n,
            },
            "dormancy": {
                "classes": {
                    code: cls.value for code, cls in sorted(classification.items())
                    if cls is not dormancy_mod.FeatureClass.ACTIVE
                },
                "entries": {
                    code: {
                        "count": entry.count,
                        "conditions": len(entry.activation_conditions),
                    }
                    for code, entry in sorted(store.entries.items())
                },
                "activations": [
                    {"code": code, "condition": condition.kind.value}
                    for code, condition in activations
                ],
            },
            "breaker": {
                "ratio": stats.ratio,
                "tagged": stats.tagged_count,
                "total": stats.total_count,
                "state": state.state.value,
                "reason": state.reason,
                "model_version": model.model_version,
                "refused": isinstance(gate_result, breaker_mod.Refusal),
            },
            "alerts": [
                {
                    "code": alert.code,
                    "divergence": alert.divergence,
                    "drift_type": alert.drift_type.value,
                    "confidence": alert.confidence,
                    "billing_category": alert.evidence.get("billing_category"),
                    "clinical_group": alert.evidence.get("clinical_group"),
                    "co_drifting_codes": alert.evidence.get("co_drifting_codes"),
                }
                for alert in alerts
            ],
            "compliance": {
                "ingest_verdict": ingest_verdict.kind.value,
                "ingest_audit_entries": len(ingest_audit),
            },
        })

    breaker_mod.write_influence_csv(dashboard_rows, out / "influence_dashboard.csv")

    final_now = _simulated_now(synthgen_mod.quarter_window(spec.start, spec.quarters - 1))
    deploy_op = compliance_mod.DataOperation(
        op_kind=compliance_mod.OpKind.DEPLOY, context=dict(spec.deploy_context)
    )
    deploy_verdict, deploy_audit = run_stage(tracer, "compliance.deploy", compliance_mod.compose,
                                             adapters, deploy_op, now=final_now, detail=_verdict)
    compliance_mod.write_decision(deploy_verdict, deploy_audit, out / "deploy_decision.json")
    deployed = deploy_verdict.kind is not compliance_mod.VerdictKind.DENY
    tracer.add("deploy", {"model_version": model.model_version, "deployed": deployed})

    export_op = compliance_mod.DataOperation(
        op_kind=compliance_mod.OpKind.EXPORT,
        context={**spec.ingest_context, "artifact": "run-report"},
    )
    export_verdict, _ = run_stage(tracer, "compliance.export", compliance_mod.compose,
                                  adapters, export_op, now=final_now, detail=_verdict)
    if export_verdict.kind is compliance_mod.VerdictKind.DENY:
        raise StageError(f"stage compliance.export denied: {export_verdict.reason}")
    tracer.add("export", {"path": "report.json"})

    report = RunReport(
        scenario=spec.name,
        seed=seed,
        target_version=spec.target_version,
        quarters=quarter_summaries,
        trace=tracer.entries,
        deploy={
            "verdict": to_json(deploy_verdict),
            "audit_entries": len(deploy_audit),
            "audit_adapters": [entry.adapter_id for entry in deploy_audit],
            "model_version": model.model_version,
            "deployed": deployed,
        },
        assertions=[],
    )
    report.assertions = [_check_assertion(a, report) for a in spec.assertions]
    write_json(out / "report.json", report)
    (out / "report.txt").write_text(_text_summary(report), encoding="utf-8")
    return report


def _check_assertion(assertion: Mapping[str, Any], report: RunReport) -> dict[str, Any]:
    """The result of one assertion, whose fields ``ScenarioSpec`` checked."""
    kind = assertion["kind"]
    if kind == "gate_counts":
        gate = report.quarters[assertion["quarter"] - 1]["gate"]
        passed = all(gate[k] == assertion[k] for k in ("accepted", "reconciled", "quarantined"))
        detail = (f"accepted={gate['accepted']} reconciled={gate['reconciled']} "
                  f"quarantined={gate['quarantined']}")
    elif kind == "dormant_entry":
        entries = report.quarters[assertion["quarter"] - 1]["dormancy"]["entries"]
        entry = entries.get(assertion["code"])
        passed = entry == {"count": assertion["count"], "conditions": assertion["conditions"]}
        detail = f"entry={entry}"
    elif kind == "breaker":
        breaker = report.quarters[assertion["quarter"] - 1]["breaker"]
        passed = (abs(breaker["ratio"] - assertion["ratio"]) < 1e-9
                  and breaker["state"] == assertion["state"])
        detail = f"ratio={breaker['ratio']} state={breaker['state']}"
    elif kind == "drift_alert":
        alerts = report.quarters[assertion["quarter"] - 1]["alerts"]
        matches = [
            a for a in alerts
            if a["code"] == assertion["code"]
            and a["drift_type"] == assertion["drift_type"]
            and a["billing_category"] == assertion.get(
                "evidence_billing_category", a["billing_category"])
        ]
        passed = bool(matches)
        detail = f"matching_alerts={len(matches)} of {len(alerts)}"
    else:  # deploy_verdict
        verdict = report.deploy["verdict"]
        passed = verdict["kind"] == assertion["verdict"] and any(
            (assertion.get("condition_contains") or "") in c
            for c in verdict["conditions"]
        ) and report.deploy["audit_entries"] == len(report.deploy["audit_adapters"])
        detail = f"verdict={verdict['kind']} conditions={verdict['conditions']}"
    return {"assertion": dict(assertion), "passed": passed, "detail": detail}


def _text_summary(report: RunReport) -> str:
    lines = [
        f"scenario: {report.scenario} (seed {report.seed}, "
        f"target version {report.target_version})",
        "",
    ]
    for quarter in report.quarters:
        gate = quarter["gate"]
        breaker = quarter["breaker"]
        lines.append(
            f"{quarter['period']}: gate accepted={gate['accepted']} "
            f"reconciled={gate['reconciled']} quarantined={gate['quarantined']}; "
            f"divergence={quarter['divergence']['disagreement_rate']:.4f}; "
            f"influence ratio={breaker['ratio']:.4f} state={breaker['state']}; "
            f"alerts={len(quarter['alerts'])}"
        )
        for alert in quarter["alerts"]:
            lines.append(
                f"  alert {alert['code']}: divergence={alert['divergence']:.4f} "
                f"type={alert['drift_type']} confidence={alert['confidence']:.2f}"
            )
    verdict = report.deploy["verdict"]
    lines.append("")
    lines.append(
        f"deploy: {verdict['kind']} "
        f"(audit entries: {report.deploy['audit_entries']})"
    )
    for condition in verdict["conditions"]:
        lines.append(f"  condition: {condition}")
    if report.assertions:
        lines.append("")
        for result in report.assertions:
            status = "PASS" if result["passed"] else "FAIL"
            lines.append(f"{status} {result['assertion']['kind']}: {result['detail']}")
    return "\n".join(lines) + "\n"
