"""Scenario harness composing all pipeline stages over simulated quarters.

Per quarter the stages run in layer order: ingestion (version gate, then
fidelity annotation), storage (clinical-layer inference and divergence,
dormancy classification), training (influence stats, breaker, gated
retraining), then monitoring (drift scan against the first quarter).
Compliance wraps the external-facing operations: every ingest, the final
deployment decision, and the report export. Quarters are causally chained
through the breaker history and the model, so they run sequentially.

All timestamps in run artifacts come from the simulated calendar, which
keeps outputs byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime, time as dtime
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import breaker as breaker_mod
from . import checkpoint as checkpoint_mod
from . import compliance as compliance_mod
from . import dormancy as dormancy_mod
from . import dual_ontology as dual_mod
from . import sentinel as sentinel_mod
from . import synthgen as synthgen_mod
from . import version_gate as gate_mod
from .model import (
    CodedRecord,
    Layer,
    PipelineConfig,
    StageError,
    TimeWindow,
    ValidationError,
    canonical_dumps,
    load_code_system,
    load_config,
)

STAGE_LAYERS = {
    "compliance.ingest": 5,
    "gate.validate_migration": 1,
    "gate.batch": 1,
    "checkpoint.annotate": 1,
    "dual_ontology.infer": 2,
    "dual_ontology.divergence": 2,
    "dormancy.classify": 2,
    "dormancy.store": 2,
    "dormancy.activation": 2,
    "breaker.stats": 3,
    "breaker.evaluate": 3,
    "breaker.retrain": 3,
    "breaker.refusal": 3,
    "sentinel.scan": 4,
    "compliance.deploy": 5,
    "deploy": 5,
    "compliance.export": 5,
    "export": 5,
}

EXTERNAL_STAGES = {
    "gate.batch": "compliance.ingest",
    "deploy": "compliance.deploy",
    "export": "compliance.export",
}


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    code_system_path: Path
    config_path: Path
    adapter_paths: tuple[Path, ...]
    quarters: int
    n_per_quarter: int
    start: date
    target_version: str
    distortion: synthgen_mod.DistortionSpec
    significance: Mapping[str, str] = field(default_factory=dict)
    activation_conditions: Mapping[str, tuple[dormancy_mod.ActivationCondition, ...]] = field(
        default_factory=dict
    )
    ingest_context: Mapping[str, Any] = field(default_factory=dict)
    deploy_context: Mapping[str, Any] = field(default_factory=dict)
    assertions: tuple[Mapping[str, Any], ...] = ()


@dataclass
class RunReport:
    scenario: str
    seed: int
    target_version: str
    quarters: list[dict[str, Any]]
    trace: list[dict[str, Any]]
    deploy: dict[str, Any]
    assertion_results: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "target_version": self.target_version,
            "quarters": self.quarters,
            "trace": self.trace,
            "deploy": self.deploy,
            "assertions": self.assertion_results,
        }

    def all_assertions_passed(self) -> bool:
        return all(result["passed"] for result in self.assertion_results)


def fixture_dir() -> Path:
    return Path(str(resources.files("ontoguard") / "fixtures"))


def load_scenario(name_or_path: str | Path) -> ScenarioSpec:
    """Load a scenario spec by bundled name or filesystem path.

    Relative file references resolve against the spec file's directory, and
    every referenced file must exist at load time.
    """
    path = Path(name_or_path)
    if not path.exists():
        candidate = fixture_dir() / f"{str(name_or_path).replace('-', '_')}.json"
        if candidate.exists():
            path = candidate
        else:
            raise ValidationError(f"scenario not found: {name_or_path}")
    data = json.loads(path.read_text(encoding="utf-8"))
    base = path.parent

    def resolve(ref: str) -> Path:
        resolved = (base / ref) if not Path(ref).is_absolute() else Path(ref)
        if not resolved.exists():
            raise ValidationError(f"scenario references missing file: {ref}")
        return resolved

    conditions = {
        code: tuple(dormancy_mod.ActivationCondition.from_dict(c) for c in conds)
        for code, conds in data.get("activation_conditions", {}).items()
    }
    return ScenarioSpec(
        name=data["name"],
        code_system_path=resolve(data["code_system"]),
        config_path=resolve(data["config"]),
        adapter_paths=tuple(resolve(p) for p in data["adapters"]),
        quarters=int(data["quarters"]),
        n_per_quarter=int(data["n_per_quarter"]),
        start=date.fromisoformat(data["start"]),
        target_version=data["target_version"],
        distortion=synthgen_mod.spec_from_dict(data["distortion"]),
        significance=dict(data.get("significance_list", {})),
        activation_conditions=conditions,
        ingest_context=dict(data.get("ingest_context", {})),
        deploy_context=dict(data.get("deploy_context", {})),
        assertions=tuple(data.get("assertions", ())),
    )


class _Tracer:
    def __init__(self) -> None:
        self.entries: list[dict[str, Any]] = []

    def add(self, quarter: int, stage: str, detail: Mapping[str, Any] | None = None) -> None:
        entry = {
            "seq": len(self.entries),
            "quarter": quarter,
            "stage": stage,
            "layer": STAGE_LAYERS[stage],
        }
        if detail:
            entry["detail"] = dict(detail)
        self.entries.append(entry)


def _simulated_now(window: TimeWindow) -> datetime:
    return datetime.combine(window.end, dtime(23, 59, 59))


def _period_label(window: TimeWindow) -> str:
    return f"{window.start.year}Q{(window.start.month - 1) // 3 + 1}"


def run_scenario(
    spec: ScenarioSpec, seed: int, out_dir: str | Path
) -> RunReport:
    """Run the full pipeline over the scenario's quarters; deterministic for
    a fixed seed. Any stage failure surfaces with its stage name and quarter.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = load_code_system(spec.code_system_path)
    cfg = load_config(spec.config_path)
    adapters = [compliance_mod.load_adapter(p) for p in spec.adapter_paths]
    tracer = _Tracer()

    # Reference history: the quarter before the scenario starts, carrying
    # only the standing institutional habits (no onset distortions).
    history_window = synthgen_mod.quarter_window(spec.start, -1)
    history, _ = synthgen_mod.generate_batch(
        system,
        spec.distortion.without_onset_distortions(),
        spec.n_per_quarter,
        seed=[seed, 10_007],
        window=history_window,
        id_prefix="H",
    )
    ref = checkpoint_mod.build_reference_model(history, system, spec.target_version)

    model = breaker_mod.ToyRiskModel(
        model_version="toy-risk-1", weights={}, training_cohort_id="bootstrap"
    )
    ratios: tuple[tuple[str, float], ...] = ()
    store = dormancy_mod.DormantStore(entries={}, prune_log=[], path=out / "dormant_store.json")
    baseline_batch: list[CodedRecord] | None = None
    baseline_window: TimeWindow | None = None
    prior_alerts: list[sentinel_mod.DriftAlert] = []
    dashboard_rows: list[tuple[str, breaker_mod.InfluenceStats, breaker_mod.BreakerState]] = []
    quarter_summaries: list[dict[str, Any]] = []

    for q in range(1, spec.quarters + 1):
        window = synthgen_mod.quarter_window(spec.start, q - 1)
        period = _period_label(window)
        now = _simulated_now(window)
        qdir = out / f"q{q}"
        qdir.mkdir(exist_ok=True)

        def stage(name: str, fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ValidationError:
                raise
            except Exception as exc:  # surface with stage context
                raise StageError(f"stage {name} failed in quarter {q}: {exc}") from exc

        batch, _ = stage(
            "synthgen", synthgen_mod.generate_batch,
            system, spec.distortion, spec.n_per_quarter,
            seed=[seed, q - 1], window=window, id_prefix=f"Q{q}",
            quarter_index=q - 1,
        )

        ingest_op = compliance_mod.DataOperation(
            op_kind=compliance_mod.OpKind.INGEST, context=dict(spec.ingest_context)
        )
        ingest_verdict, ingest_audit = stage(
            "compliance.ingest", compliance_mod.compose, adapters, ingest_op, now=now
        )
        tracer.add(q, "compliance.ingest", {"verdict": ingest_verdict.kind.value})
        if ingest_verdict.kind is compliance_mod.VerdictKind.DENY:
            raise StageError(
                f"stage compliance.ingest denied in quarter {q}: {ingest_verdict.reason}"
            )

        migration = None
        if q == 1:
            lagging = sorted({
                r.version_tag for r in batch if r.version_tag != spec.target_version
            })
            for from_version in lagging:
                migration = stage(
                    "gate.validate_migration", gate_mod.validate_migration,
                    system, from_version, spec.target_version,
                    {r.primary_code for r in batch if r.version_tag == from_version},
                )
                tracer.add(q, "gate.validate_migration", {
                    "from": from_version, "coverage": migration.mapping_coverage,
                    "verdict": migration.verdict.value,
                })

        outcome = stage(
            "gate.batch", gate_mod.gate_batch, batch, system, spec.target_version, cfg
        )
        gate_mod.write_quarantine(qdir / "quarantine.jsonl", outcome.quarantined)
        tracer.add(q, "gate.batch", {
            "accepted": len(outcome.accepted),
            "reconciled": len(outcome.reconciled),
            "quarantined": len(outcome.quarantined),
        })

        processed = outcome.processed_records()
        annotated = stage(
            "checkpoint.annotate", checkpoint_mod.annotate_batch, processed, ref, cfg
        )
        fid_report = checkpoint_mod.fidelity_report(annotated)
        checkpoint_mod.write_fidelity_report(fid_report, qdir / "fidelity_report.csv")
        tracer.add(q, "checkpoint.annotate", {"n": len(annotated)})

        inferred = stage(
            "dual_ontology.infer", dual_mod.infer_clinical_layer,
            annotated, ref, system, cfg,
        )
        tracer.add(q, "dual_ontology.infer", {"n": len(inferred)})
        div_reports = stage(
            "dual_ontology.divergence", dual_mod.divergence,
            inferred, dual_mod.DivergenceScope.POPULATION,
        )
        dual_mod.write_divergence_csv(div_reports, qdir / "divergence.csv")
        tracer.add(q, "dual_ontology.divergence", {
            "disagreement_rate": div_reports[0].disagreement_rate,
        })

        classification = stage(
            "dormancy.classify", dormancy_mod.classify_features,
            inferred, spec.significance.keys(), cfg, Layer.ADMINISTRATIVE,
        )
        tracer.add(q, "dormancy.classify", {
            "active": sum(1 for c in classification.values()
                          if c is dormancy_mod.FeatureClass.ACTIVE),
            "dormant": sum(1 for c in classification.values()
                           if c is dormancy_mod.FeatureClass.DORMANT),
            "pruned": sum(1 for c in classification.values()
                          if c is dormancy_mod.FeatureClass.PRUNED),
        })
        store = stage(
            "dormancy.store", dormancy_mod.store_dormant,
            classification, inferred, spec.activation_conditions,
            Layer.ADMINISTRATIVE, notes_by_code=spec.significance, store=store,
        )
        dormancy_mod.write_prune_log(store, out / "prune_log.csv")
        tracer.add(q, "dormancy.store", {"entries": len(store.entries)})
        events = [
            dormancy_mod.Event(
                kind=dormancy_mod.ActivationKind.OUTBREAK_SIGNAL, signal_code=alert.code
            )
            for alert in prior_alerts
            if alert.drift_type is sentinel_mod.DriftType.TYPE_A
        ]
        activations = stage(
            "dormancy.activation", dormancy_mod.check_activation,
            store, inferred, events, Layer.ADMINISTRATIVE,
        )
        tracer.add(q, "dormancy.activation", {"activated": sorted({c for c, _ in activations})})

        stats = stage(
            "breaker.stats", breaker_mod.compute_stats,
            inferred, ratios, cohort_id=f"cohort-{period}", period=period,
        )
        ratios = stats.history
        tracer.add(q, "breaker.stats", {"ratio": stats.ratio})
        state = breaker_mod.evaluate(stats, cfg)
        tracer.add(q, "breaker.evaluate", {"state": state.state.value})
        dashboard_rows.append((period, stats, state))
        gate_result = stage(
            "breaker.retrain", breaker_mod.retrain_gate, state, inferred, model, stats
        )
        if isinstance(gate_result, breaker_mod.Refusal):
            breaker_mod.write_refusal_packet(gate_result, qdir / "refusal.json")
            tracer.add(q, "breaker.refusal", {"reason": gate_result.reason})
        else:
            model = gate_result
            tracer.add(q, "breaker.retrain", {"model_version": model.model_version})

        if baseline_batch is None:
            baseline_batch = inferred
            baseline_window = window
        alerts = stage(
            "sentinel.scan", sentinel_mod.scan,
            baseline_batch, inferred, system, system.release_calendar(), cfg,
            Layer.ADMINISTRATIVE,
            baseline_window=baseline_window, current_window=window,
        )
        sentinel_mod.write_alerts(alerts, qdir / "alerts.jsonl")
        tracer.add(q, "sentinel.scan", {
            "baseline_quarter": 1, "current_quarter": q, "alerts": len(alerts),
        })
        prior_alerts = alerts

        quarter_summaries.append({
            "quarter": q,
            "period": period,
            "window": window.to_dict(),
            "migration": None if migration is None else {
                "from_version": migration.from_version,
                "to_version": migration.to_version,
                "coverage": migration.mapping_coverage,
                "verdict": migration.verdict.value,
            },
            "gate": {
                "accepted": len(outcome.accepted),
                "reconciled": len(outcome.reconciled),
                "quarantined": len(outcome.quarantined),
            },
            "fidelity_by_institution": {
                row.institution_id: {"n": row.n, "mean": row.mean}
                for row in fid_report.rows
            },
            "divergence": {
                "disagreement_rate": div_reports[0].disagreement_rate,
                "n": div_reports[0].n,
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

    final_window = synthgen_mod.quarter_window(spec.start, spec.quarters - 1)
    final_now = _simulated_now(final_window)
    deploy_op = compliance_mod.DataOperation(
        op_kind=compliance_mod.OpKind.DEPLOY, context=dict(spec.deploy_context)
    )
    deploy_verdict, deploy_audit = compliance_mod.compose(adapters, deploy_op, now=final_now)
    compliance_mod.write_decision(deploy_verdict, deploy_audit, out / "deploy_decision.json")
    tracer.add(spec.quarters, "compliance.deploy", {"verdict": deploy_verdict.kind.value})
    deployed = deploy_verdict.kind is not compliance_mod.VerdictKind.DENY
    tracer.add(spec.quarters, "deploy", {
        "model_version": model.model_version, "deployed": deployed,
    })

    export_op = compliance_mod.DataOperation(
        op_kind=compliance_mod.OpKind.EXPORT,
        context={**spec.ingest_context, "artifact": "run-report"},
    )
    export_verdict, _export_audit = compliance_mod.compose(adapters, export_op, now=final_now)
    tracer.add(spec.quarters, "compliance.export", {"verdict": export_verdict.kind.value})
    tracer.add(spec.quarters, "export", {"path": "report.json"})

    report = RunReport(
        scenario=spec.name,
        seed=seed,
        target_version=spec.target_version,
        quarters=quarter_summaries,
        trace=tracer.entries,
        deploy={
            "verdict": compliance_mod.verdict_to_dict(deploy_verdict),
            "audit_entries": len(deploy_audit),
            "audit_adapters": [entry.adapter_id for entry in deploy_audit],
            "model_version": model.model_version,
            "deployed": deployed,
        },
        assertion_results=[],
    )
    report.assertion_results = [
        _check_assertion(a, report) for a in spec.assertions
    ]
    (out / "report.json").write_text(canonical_dumps(report.to_dict()), encoding="utf-8")
    (out / "report.txt").write_text(_text_summary(report), encoding="utf-8")
    return report


def _check_assertion(assertion: Mapping[str, Any], report: RunReport) -> dict[str, Any]:
    kind = assertion["kind"]
    passed = False
    detail = ""
    try:
        if kind == "gate_counts":
            gate = report.quarters[assertion["quarter"] - 1]["gate"]
            passed = all(gate[k] == assertion[k]
                         for k in ("accepted", "reconciled", "quarantined"))
            detail = (f"accepted={gate['accepted']} reconciled={gate['reconciled']} "
                      f"quarantined={gate['quarantined']}")
        elif kind == "dormant_entry":
            entries = report.quarters[assertion["quarter"] - 1]["dormancy"]["entries"]
            entry = entries.get(assertion["code"])
            passed = (entry is not None
                      and entry["count"] == assertion["count"]
                      and entry["conditions"] == assertion["conditions"])
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
        elif kind == "deploy_verdict":
            verdict = report.deploy["verdict"]
            passed = verdict["kind"] == assertion["verdict"] and any(
                assertion.get("condition_contains", "") in c
                for c in verdict["conditions"]
            ) and report.deploy["audit_entries"] == len(report.deploy["audit_adapters"])
            detail = f"verdict={verdict['kind']} conditions={verdict['conditions']}"
        else:
            detail = f"unknown assertion kind {kind!r}"
    except (KeyError, IndexError) as exc:
        detail = f"assertion lookup failed: {exc!r}"
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
    if report.assertion_results:
        lines.append("")
        for result in report.assertion_results:
            status = "PASS" if result["passed"] else "FAIL"
            lines.append(f"{status} {result['assertion']['kind']}: {result['detail']}")
    return "\n".join(lines) + "\n"
