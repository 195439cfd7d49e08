"""Scenario harness: wiring order, compliance wrapping, determinism, CLI."""

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest

from ontoguard import cli, harness, synthgen
from ontoguard.model import (
    PipelineConfig,
    StageError,
    ValidationError,
    canonical_dumps,
    code_system_from_dict,
    config_to_dict,
    serialize_code_system,
    serialize_config,
)

NULL_SYSTEM = {
    "system_id": "NULL-SYS",
    "versions": [
        {"label": "v1", "release_date": "2024-06-01", "validated": True},
        {"label": "v2", "release_date": "2024-12-01", "validated": True},
    ],
    "codes": {
        label: [
            {"code": code, "clinical_group": group, "billing_category": billing,
             "description": ""}
            for code, group, billing in (
                ("NA", "gA", "b1"), ("NB", "gA", "b2"), ("NC", "gB", "b2"),
                ("MA1", "marks", "b9"), ("MA2", "marks", "b9"),
                ("MB1", "marks", "b9"), ("MB2", "marks", "b9"),
                ("MC1", "marks", "b9"), ("MC2", "marks", "b9"),
            )
        ]
        for label in ("v1", "v2")
    },
    "transitions": [{
        "from": "v1", "to": "v2",
        "mappings": [
            {"from_code": c, "to_code": c}
            for c in ("NA", "NB", "NC", "MA1", "MA2", "MB1", "MB2", "MC1", "MC2")
        ],
        "unmappable": [],
    }],
    "base_prevalence": {"NA": 0.5, "NB": 0.3, "NC": 0.2},
    "cooccurrence_profiles": {
        "NA": {"MA1": 0.6, "MA2": 0.4},
        "NB": {"MB1": 0.6, "MB2": 0.4},
        "NC": {"MC1": 0.6, "MC2": 0.4},
    },
}


def write_null_scenario(root: Path, *, n=8_000, quarters=2, distortion=None) -> Path:
    system = code_system_from_dict(NULL_SYSTEM)
    (root / "system.json").write_text(serialize_code_system(system), encoding="utf-8")
    cfg = PipelineConfig(
        fidelity_weights=(0.3, 0.4, 0.3),
        drift_threshold=0.03,
        fingerprint_min_support=200,
        inference_fidelity_cutoff=0.8,
    )
    (root / "config.json").write_text(serialize_config(cfg), encoding="utf-8")
    if distortion is None:
        distortion = {
            "institutions": [
                {"institution_id": "I-A", "weight": 0.5},
                {"institution_id": "I-B", "weight": 0.5},
            ],
            "current_version": "v2",
        }
    adapter_dir = harness.fixture_dir() / "adapters"
    scenario = {
        "name": "null-case",
        "code_system": "system.json",
        "config": "config.json",
        "adapters": [str(adapter_dir / name) for name in
                     ("ai_act_demo.json", "mdr_demo.json", "ehds_demo.json")],
        "quarters": quarters,
        "n_per_quarter": n,
        "start": "2025-01-01",
        "target_version": "v2",
        "distortion": distortion,
        "significance_list": {},
        "activation_conditions": {},
        "ingest_context": {"data_authorization": "valid", "purpose": "training"},
        "deploy_context": {
            "model_card_present": True, "training_docs_complete": True,
            "risk_class": "high", "initiates_treatment": False,
            "data_authorization": "valid", "purpose": "demo",
        },
        "assertions": [],
    }
    path = root / "scenario.json"
    path.write_text(canonical_dumps(scenario), encoding="utf-8")
    return path


class TestNullScenario:
    def test_clean_data_produces_no_signals(self, tmp_path):
        spec = harness.load_scenario(write_null_scenario(tmp_path))
        report = harness.run_scenario(spec, 7, tmp_path / "out")
        for quarter in report.quarters:
            assert quarter["alerts"] == []
            assert quarter["breaker"]["state"] == "closed"
            assert quarter["divergence"]["disagreement_rate"] == 0.0
            assert quarter["gate"]["quarantined"] == 0

    def test_identical_seeds_produce_byte_identical_artifacts(self, tmp_path):
        spec_path = write_null_scenario(tmp_path, n=4_000)
        spec = harness.load_scenario(spec_path)
        harness.run_scenario(spec, 11, tmp_path / "a")
        harness.run_scenario(spec, 11, tmp_path / "b")
        files_a = sorted(
            p.relative_to(tmp_path / "a")
            for p in (tmp_path / "a").rglob("*") if p.is_file()
        )
        assert files_a
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() \
                == (tmp_path / "b" / rel).read_bytes(), rel

    def test_different_seeds_differ(self, tmp_path):
        spec_path = write_null_scenario(tmp_path, n=4_000)
        spec = harness.load_scenario(spec_path)
        a = harness.run_scenario(spec, 11, tmp_path / "a")
        b = harness.run_scenario(spec, 12, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() \
            != (tmp_path / "b" / "report.json").read_bytes()


class TestWiring:
    def test_layers_run_in_order_within_each_quarter(self, scenario_run):
        trace = scenario_run["report"].trace
        for quarter in (1, 2, 3):
            entries = [e for e in trace if e["quarter"] == quarter]
            for layer in (1, 2, 3):
                this_layer = [e["seq"] for e in entries if e["layer"] == layer]
                next_layers = [e["seq"] for e in entries if layer < e["layer"] <= 4]
                if this_layer and next_layers:
                    assert max(this_layer) < min(next_layers)

    def test_sentinel_references_completed_quarters_only(self, scenario_run):
        for entry in scenario_run["report"].trace:
            if entry["stage"] == "sentinel.scan":
                assert entry["detail"]["current_quarter"] <= entry["quarter"]
                assert entry["detail"]["baseline_quarter"] <= entry["quarter"]

    def test_external_stages_preceded_by_compliance(self, scenario_run):
        trace = scenario_run["report"].trace
        by_stage = {}
        for entry in trace:
            by_stage.setdefault((entry["quarter"], entry["stage"]), []).append(entry["seq"])
        for (quarter, stage), seqs in by_stage.items():
            wrapper = harness.EXTERNAL_STAGES.get(stage)
            if wrapper is None:
                continue
            wrapper_seqs = by_stage.get((quarter, wrapper), [])
            assert wrapper_seqs, f"{stage} in quarter {quarter} lacks {wrapper}"
            assert min(wrapper_seqs) < min(seqs)

    def test_denied_ingest_surfaces_stage_and_quarter(self, tmp_path):
        spec_path = write_null_scenario(tmp_path, n=500)
        raw = json.loads(spec_path.read_text())
        raw["ingest_context"] = {"data_authorization": "expired", "purpose": "training"}
        spec_path.write_text(canonical_dumps(raw), encoding="utf-8")
        spec = harness.load_scenario(spec_path)
        with pytest.raises(StageError, match="compliance.ingest denied in quarter 1"):
            harness.run_scenario(spec, 3, tmp_path / "out")

    def test_missing_referenced_file_rejected(self, tmp_path):
        spec_path = write_null_scenario(tmp_path)
        raw = json.loads(spec_path.read_text())
        raw["code_system"] = "missing.json"
        spec_path.write_text(canonical_dumps(raw), encoding="utf-8")
        with pytest.raises(ValidationError, match="missing file"):
            harness.load_scenario(spec_path)

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ValidationError, match="scenario not found"):
            harness.load_scenario("no-such-scenario")


class TestCli:
    def test_scenario_run_bundled(self, tmp_path, capsys):
        status = cli.main([
            "scenario", "run", "diabetes-walkthrough",
            "--seed", "42", "--out-dir", str(tmp_path / "run"),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "PASS gate_counts" in out
        assert (tmp_path / "run" / "report.json").exists()

    def test_gate_unknown_version_is_validation_error(self, tmp_path, capsys,
                                                      walkthrough_spec):
        records = tmp_path / "records.jsonl"
        records.write_text("", encoding="utf-8")
        status = cli.main([
            "gate", "--records", str(records),
            "--system", str(walkthrough_spec.code_system_path),
            "--target-version", "2026", "--out-dir", str(tmp_path / "gated"),
        ])
        err = capsys.readouterr().err
        assert status == 1
        assert "unknown version" in err

    def test_drift_scan_identical_files_zero_alerts(self, tmp_path, capsys,
                                                    walkthrough_spec):
        spec_dict = synthgen.spec_to_dict(synthgen.DistortionSpec(
            institutions=(("I-A", 1.0),), current_version="2025",
        ))
        (tmp_path / "spec.json").write_text(json.dumps(spec_dict), encoding="utf-8")
        status = cli.main([
            "synth", "generate",
            "--system", str(walkthrough_spec.code_system_path),
            "--spec", str(tmp_path / "spec.json"),
            "--n", "2000", "--seed", "5",
            "--out", str(tmp_path / "q.jsonl"),
            "--truth", str(tmp_path / "truth.jsonl"),
        ])
        assert status == 0
        capsys.readouterr()
        status = cli.main([
            "drift-scan",
            "--baseline", str(tmp_path / "q.jsonl"),
            "--current", str(tmp_path / "q.jsonl"),
            "--system", str(walkthrough_spec.code_system_path),
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "layer: administrative" in out
        assert "no drift alerts" in out

    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        status = cli.main(["drift-scan", "--bogus-flag", "x"])
        captured = capsys.readouterr()
        assert status == 1
        assert "usage" in captured.err.lower()

    def test_comply_check_prints_verdict_and_audit(self, capsys):
        status = cli.main([
            "comply-check", "--op", "deploy",
            "--context", "model_card_present=true", "training_docs_complete=true",
            "risk_class=high", "initiates_treatment=false",
            "data_authorization=valid", "purpose=demo",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "verdict: permit_with_conditions" in out
        assert out.count("audit [") == 3

    def test_oracle_jsd_subcommand(self, capsys):
        status = cli.main(["oracle", "jsd", "--p", "1,0", "--q", "0,1"])
        assert status == 0
        assert capsys.readouterr().out.strip() == "1.000000000000"

    @pytest.mark.parametrize("argv, named", [
        (["breaker", "sweep", "--thresholds", "0.05:0.3:0"], "0.05:0.3:0"),
        (["breaker", "sweep", "--thresholds", "0.3:0.05:0.05"], "0.3:0.05:0.05"),
        (["breaker", "check", "--history", "0.1,abc"], "'abc'"),
        (["breaker", "check", "--history", '[["q1", "x"]]'], "[period, ratio]"),
        (["dormancy", "activate", "--store", "missing.json"], "missing.json"),
        (["dormancy", "activate", "--store", "bad.json"], "bad.json"),
        (["breaker", "sweep", "--thresholds", "0.05:0.3:1e-12"], "0.05:0.3:1e-12"),
        (["breaker", "sweep", "--thresholds", "0.05:inf:0.05"], "0.05:inf:0.05"),
        (["dormancy", "activate", "--store", "partial.json"],
         "partial.json entry 0 is missing key 'count'"),
        (["dormancy", "activate", "--store", "object.json"],
         "object.json must be a JSON list"),
        (["breaker", "check", "--records", "trunc.jsonl"], "trunc.jsonl:1 is not valid JSON"),
    ], ids=[
        "zero-step", "start-after-stop", "bad-history", "bad-json-history",
        "missing-store", "bad-store", "tiny-step", "infinite-stop",
        "store-entry-missing-key", "store-not-a-list", "truncated-jsonl",
    ])
    def test_bad_flag_or_store_exits_one_without_traceback(self, tmp_path, argv, named):
        # A child process with a timeout, so a flag that loops forever fails
        # the test instead of hanging the suite.
        (tmp_path / "records.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "partial.json").write_text('[{"code": "X"}]', encoding="utf-8")
        (tmp_path / "object.json").write_text("{}", encoding="utf-8")
        (tmp_path / "trunc.jsonl").write_text('{"record_id": "a",\n', encoding="utf-8")
        if "--records" not in argv:
            argv = [*argv, "--records", "records.jsonl"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "ontoguard.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr and named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, status", [
        (["oracle", "jsd", "--p", "1,0", "--q", "0,1"], 0),
        (["comply-check", "--op", "deploy", "--context", "no-equals-sign"], 1),
        (["drift-scan", "--bogus-flag", "x"], 1),
    ], ids=["exit-0", "validation-error", "usage-error"])
    def test_main_pauses_and_restores_gc(self, monkeypatch, enabled, argv, status):
        seen = []
        real_jsd = cli._cmd_oracle_jsd

        def recording_jsd(args):
            seen.append(gc.isenabled())
            return real_jsd(args)

        monkeypatch.setattr(cli, "_cmd_oracle_jsd", recording_jsd)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert cli.main(argv) == status
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == ([False] if status == 0 else [])

    def test_cyclic_garbage_does_not_grow_with_input(self, walkthrough_spec, tmp_path):
        # The collector is paused inside cli.main; that is safe only while
        # the cyclic garbage a run leaves is independent of its size.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            counts = []
            for i, n in enumerate((1000, 1000, 3000)):
                gc.collect()
                spec = replace(walkthrough_spec, n_per_quarter=n)
                harness.run_scenario(spec, 42, tmp_path / f"run-{i}")
                counts.append(gc.collect())
        finally:
            if was_enabled:
                gc.enable()
        # The first run warms module-level caches.
        assert counts[1] == counts[2]

    def test_report_and_dormancy_subcommands(self, tmp_path, capsys, walkthrough_spec):
        # One small corpus driven through fidelity-report, infer-clinical,
        # dormancy classify/activate, breaker sweep, and the partition oracle.
        spec_dict = synthgen.spec_to_dict(synthgen.DistortionSpec(
            institutions=(("I-A", 0.5), ("I-B", 0.5)),
            current_version="2025",
        ))
        (tmp_path / "spec.json").write_text(json.dumps(spec_dict), encoding="utf-8")
        system = str(walkthrough_spec.code_system_path)
        assert cli.main([
            "synth", "generate", "--system", system,
            "--spec", str(tmp_path / "spec.json"), "--n", "3000", "--seed", "3",
            "--out", str(tmp_path / "batch.jsonl"),
            "--truth", str(tmp_path / "truth.jsonl"),
            "--quarters", "2",
        ]) == 0
        q1 = tmp_path / "batch.q1.jsonl"
        assert q1.exists() and (tmp_path / "batch.q2.jsonl").exists()
        capsys.readouterr()

        assert cli.main([
            "fidelity-report", "--records", str(q1), "--history", str(q1),
            "--system", system, "--out", str(tmp_path / "fidelity.csv"),
        ]) == 0
        assert "layer: administrative" in capsys.readouterr().out
        assert (tmp_path / "fidelity.csv").exists()

        assert cli.main([
            "infer-clinical", "--records", str(q1), "--history", str(q1),
            "--system", system, "--out", str(tmp_path / "clinical.jsonl"),
            "--divergence-out", str(tmp_path / "divergence.csv"),
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "divergence.csv").exists()

        (tmp_path / "significance.json").write_text(
            json.dumps({"DM-OTHER": "rare subtype"}), encoding="utf-8"
        )
        (tmp_path / "conditions.json").write_text(json.dumps({
            "DM-OTHER": [{"kind": "prevalence_exceeds", "threshold": 0.005},
                         {"kind": "domain_transfer_request",
                          "domain": "endocrinology"}],
        }), encoding="utf-8")
        assert cli.main([
            "dormancy", "classify", "--records", str(q1),
            "--significance", str(tmp_path / "significance.json"),
            "--conditions", str(tmp_path / "conditions.json"),
            "--store", str(tmp_path / "store.json"),
            "--prune-log", str(tmp_path / "prune.csv"),
        ]) == 0
        out = capsys.readouterr().out
        assert "DM-OTHER: dormant" in out

        assert cli.main([
            "dormancy", "activate", "--store", str(tmp_path / "store.json"),
            "--records", str(q1), "--domain-transfer", "endocrinology",
        ]) == 0
        assert "activated DM-OTHER: domain_transfer_request" in capsys.readouterr().out

        assert cli.main([
            "breaker", "sweep", "--records", str(q1),
            "--thresholds", "0.1:0.2:0.05",
        ]) == 0
        sweep_out = capsys.readouterr().out
        assert sweep_out.count("threshold") == 3

        assert cli.main([
            "gate", "--records", str(q1), "--system", system,
            "--target-version", "2025", "--out-dir", str(tmp_path / "gated"),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "oracle", "partition", "--input", str(q1),
            "--accepted", str(tmp_path / "gated" / "accepted.jsonl"),
            "--reconciled", str(tmp_path / "gated" / "reconciled.jsonl"),
            "--quarantine", str(tmp_path / "gated" / "quarantine.jsonl"),
        ]) == 0
        assert "partition holds" in capsys.readouterr().out

    def test_breaker_check_subcommand(self, tmp_path, capsys, walkthrough_spec):
        spec_dict = synthgen.spec_to_dict(synthgen.DistortionSpec(
            institutions=(("I-A", 1.0),), current_version="2025",
            ai_influence=synthgen.AIInfluenceSpec("m1", (0.12,)),
        ))
        (tmp_path / "spec.json").write_text(json.dumps(spec_dict), encoding="utf-8")
        cli.main([
            "synth", "generate",
            "--system", str(walkthrough_spec.code_system_path),
            "--spec", str(tmp_path / "spec.json"),
            "--n", "1000", "--seed", "5",
            "--out", str(tmp_path / "q.jsonl"),
            "--truth", str(tmp_path / "truth.jsonl"),
        ])
        capsys.readouterr()
        status = cli.main([
            "breaker", "check", "--records", str(tmp_path / "q.jsonl"),
            "--history", "0.04,0.08",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "ratio: 0.1200" in out
        assert "state: warning" in out
