"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on stdout.
"""

import itertools
import json
import statistics
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import SEED, read_rows, row, rows, tiny_system
from ontoguard import cli
from ontoguard.breaker import (
    BreakerStateKind,
    InfluenceStats,
    Refusal,
    ToyRiskModel,
    evaluate,
    retrain_gate,
)
from ontoguard.compliance import (
    RESTRICTIVENESS,
    AdapterRuleSet,
    DataOperation,
    OpKind,
    VerdictKind,
    compose,
)
from ontoguard.model import PipelineConfig, from_json
from ontoguard.oracles import jsd_oracle, partition_oracle
from ontoguard.sentinel import aligned_jsd
from ontoguard.synthgen import DistortionSpec, InstitutionWeight, spec_to_dict
from ontoguard.version_gate import gate_batch
from recounts import accuracy_recount


@contextmanager
def criterion(name: str):
    try:
        yield
        print(f"{name}: PASS")
    except BaseException:
        print(f"{name}: FAIL")
        raise


def test_a1_walkthrough_reproduction(scenario_run):
    with criterion("A1 walkthrough reproduction"):
        assert scenario_run["elapsed"] < 60.0
        report = scenario_run["report"]

        gate = report.quarters[0]["gate"]
        assert gate["accepted"] == 46_800
        assert gate["reconciled"] == 3_200
        assert gate["quarantined"] == 0
        assert gate["accepted"] + gate["reconciled"] == 50_000

        entry = report.quarters[0]["dormancy"]["entries"]["DM-OTHER"]
        assert entry["count"] == 47
        assert entry["conditions"] == 2

        ratios = [q["breaker"]["ratio"] for q in report.quarters]
        assert ratios == pytest.approx([0.04, 0.08, 0.12])
        q3 = report.quarters[2]["breaker"]
        assert q3["ratio"] == pytest.approx(0.12)
        assert q3["ratio"] < 0.15
        assert q3["state"] == "warning"

        type_b = [
            a for a in report.quarters[2]["alerts"]
            if a["code"] == "DM2-HYPER" and a["drift_type"] == "type_b"
        ]
        assert type_b
        assert type_b[0]["billing_category"] == "bc-chronic-specific"

        verdict = report.deploy["verdict"]
        assert verdict["kind"] == "permit_with_conditions"
        assert any("90th percentile" in c for c in verdict["conditions"])
        assert report.deploy["audit_entries"] == 3
        assert len(report.deploy["audit_adapters"]) == 3


def test_a2_checkpoint_separation(q1_products):
    with criterion("A2 checkpoint separation"):
        truth = q1_products["truth"]
        catch, clean = [], []
        for record in rows(q1_products["annotated"]):
            labels = truth[record["record_id"]].distortion_labels
            if "catch_all" in labels:
                catch.append(record["fidelity"]["score"])
            elif not labels:
                clean.append(record["fidelity"]["score"])
        assert len(catch) > 100
        assert statistics.mean(clean) - statistics.mean(catch) >= 0.05


def test_a3_jsd_correctness():
    with criterion("A3 JSD correctness"):
        rng = np.random.default_rng(SEED)
        for _ in range(1_000):
            dim = int(rng.integers(2, 40))
            p = rng.random(dim)
            q = rng.random(dim)
            p /= p.sum()
            q /= q.sum()
            keys = [f"k{i}" for i in range(dim)]
            dp, dq = dict(zip(keys, p)), dict(zip(keys, q))
            observed = aligned_jsd(dp, dq)
            assert abs(observed - jsd_oracle(p.tolist(), q.tolist())) <= 1e-9
            assert 0.0 <= observed <= 1.0
            assert observed == pytest.approx(aligned_jsd(dq, dp), abs=1e-12)
            assert aligned_jsd(dp, dp) == 0.0
            if not np.allclose(p, q):
                assert observed > 0.0


def test_a4_gate_conservation():
    with criterion("A4 gate conservation"):
        system = tiny_system(
            versions=[
                {"label": "v0", "release_date": "2023-01-01", "validated": False},
                {"label": "v1", "release_date": "2024-01-01", "validated": True},
                {"label": "v2", "release_date": "2025-01-01", "validated": True},
            ],
            codes={
                "v0": [{"code": "OLD", "clinical_group": "g",
                        "billing_category": "b", "description": ""}],
                "v1": [
                    {"code": c, "clinical_group": "g", "billing_category": "b",
                     "description": ""}
                    for c in ("KEEP", "RENAME-1", "GONE")
                ],
                "v2": [
                    {"code": c, "clinical_group": "g", "billing_category": "b",
                     "description": ""}
                    for c in ("KEEP", "RENAME-2")
                ],
            },
            transitions=[{
                "from": "v1", "to": "v2",
                "mappings": [
                    {"from_code": "KEEP", "to_code": "KEEP"},
                    {"from_code": "RENAME-1", "to_code": "RENAME-2"},
                ],
                "unmappable": ["GONE"],
            }],
        )
        rng = np.random.default_rng(SEED)
        codes = ["KEEP", "RENAME-1", "GONE", "OLD", "UNKNOWN-CODE"]
        versions = ["v0", "v1", "v2", "v-unregistered"]
        for trial in range(200):
            batch = [
                row(
                    f"T{trial}-{i}",
                    code=codes[rng.integers(len(codes))],
                    version=versions[rng.integers(len(versions))],
                )
                for i in range(int(rng.integers(0, 60)))
            ]
            outcome = gate_batch(read_rows(batch), system, "v2")
            assert partition_oracle(
                [r["record_id"] for r in batch],
                outcome.accepted.record_id.tolist(),
                outcome.reconciled.record_id.tolist(),
                outcome.quarantined.record_id.tolist(),
            )
            assert outcome.total() == len(batch)


def test_a5_breaker_boundary():
    with criterion("A5 breaker boundary"):
        cfg = PipelineConfig()
        at_threshold = InfluenceStats("c", 0.15, 15, 100, (("p", 0.15),))
        assert evaluate(at_threshold, cfg).state is not BreakerStateKind.OPEN
        just_above = InfluenceStats("c", 0.150001, 15, 100, (("p", 0.150001),))
        assert evaluate(just_above, cfg).state is BreakerStateKind.OPEN

        rng = np.random.default_rng(SEED)
        model = ToyRiskModel("toy-risk-1", {})
        cohort = read_rows([row(f"R-{i}") for i in range(10)])
        for _ in range(1_000):
            ratio = float(rng.random())
            history = tuple(
                (f"p{i}", float(rng.random()))
                for i in range(int(rng.integers(0, 6)))
            ) + (("now", ratio),)
            stats = InfluenceStats("c", ratio, int(100 * ratio), 100, history)
            state = evaluate(stats, cfg)
            assert (state.state is BreakerStateKind.OPEN) == (ratio > 0.15)
            result = retrain_gate(state, cohort, model, stats)
            if state.state is BreakerStateKind.OPEN:
                assert isinstance(result, Refusal)


def test_a6_compliance_algebra():
    with criterion("A6 compliance algebra"):
        def stub(adapter_id, key):
            return from_json(AdapterRuleSet, {
                "adapter_id": adapter_id, "jurisdiction": "T",
                "regulation_id": f"R-{adapter_id}", "regulation_version": "1",
                "rules": [
                    {"when": [{"key": key, "op": "eq", "value": "deny"}],
                     "verdict": "deny", "reason": f"{adapter_id} deny",
                     "provision": "p1"},
                    {"when": [{"key": key, "op": "eq", "value": "conditions"}],
                     "verdict": "permit_with_conditions",
                     "conditions": [f"{adapter_id} cond"], "provision": "p2"},
                    {"when": [], "verdict": "permit", "provision": "p3"},
                ],
            })

        adapters = [stub(f"a{i}", f"k{i}") for i in range(3)]
        class_of = {
            "permit": VerdictKind.PERMIT,
            "conditions": VerdictKind.PERMIT_WITH_CONDITIONS,
            "deny": VerdictKind.DENY,
        }
        for combo in itertools.product(("permit", "conditions", "deny"), repeat=3):
            op = DataOperation(
                op_kind=OpKind.EXPORT,
                context={f"k{i}": value for i, value in enumerate(combo)},
            )
            verdict, audit = compose(adapters, op)
            expected = max((class_of[v] for v in combo), key=RESTRICTIVENESS.get)
            assert verdict.kind is expected
            assert len(audit) == len(adapters)


def test_a7_dual_layer_lift(q3_products):
    with criterion("A7 dual-layer lift"):
        truth = q3_products["truth"]
        inferred = rows(q3_products["inferred"])
        admin = accuracy_recount(
            [(r["primary_code"], truth[r["record_id"]].true_clinical_code)
             for r in inferred]
        )
        clinical = accuracy_recount(
            [(r["clinical_code"], truth[r["record_id"]].true_clinical_code)
             for r in inferred]
        )
        assert clinical > admin


def test_a8_cli_determinism(tmp_path, capsys, walkthrough_spec):
    with criterion("A8 CLI determinism"):
        system_path = str(walkthrough_spec.code_system_path)
        spec_dict = spec_to_dict(DistortionSpec(
            institutions=(InstitutionWeight("I-A", 0.6), InstitutionWeight("I-B", 0.4)),
            current_version="2025",
        ))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict), encoding="utf-8")

        def run(args):
            status = cli.main(args)
            capsys.readouterr()
            assert status == 0

        for tag in ("x", "y"):
            run([
                "synth", "generate", "--system", system_path,
                "--spec", str(spec_path), "--n", "2000", "--seed", "9",
                "--out", str(tmp_path / f"{tag}.jsonl"),
                "--truth", str(tmp_path / f"{tag}.truth.jsonl"),
            ])
        assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()
        assert (tmp_path / "x.truth.jsonl").read_bytes() \
            == (tmp_path / "y.truth.jsonl").read_bytes()

        for tag in ("x", "y"):
            run([
                "drift-scan", "--baseline", str(tmp_path / "x.jsonl"),
                "--current", str(tmp_path / "y.jsonl"),
                "--system", system_path,
                "--out", str(tmp_path / f"alerts-{tag}.jsonl"),
            ])
        assert (tmp_path / "alerts-x.jsonl").read_bytes() \
            == (tmp_path / "alerts-y.jsonl").read_bytes()

        for tag in ("x", "y"):
            run([
                "comply-check", "--op", "deploy",
                "--context", "model_card_present=true",
                "training_docs_complete=true", "risk_class=high",
                "initiates_treatment=false", "data_authorization=valid",
                "purpose=demo",
                "--out", str(tmp_path / f"decision-{tag}.json"),
            ])
        assert (tmp_path / "decision-x.json").read_bytes() \
            == (tmp_path / "decision-y.json").read_bytes()

        for tag in ("x", "y"):
            run([
                "gate", "--records", str(tmp_path / "x.jsonl"),
                "--system", system_path, "--target-version", "2025",
                "--out-dir", str(tmp_path / f"gated-{tag}"),
            ])
        for name in ("accepted.jsonl", "reconciled.jsonl", "quarantine.jsonl"):
            assert (tmp_path / "gated-x" / name).read_bytes() \
                == (tmp_path / "gated-y" / name).read_bytes()
