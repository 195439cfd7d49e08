"""Scenario harness: wiring order, compliance wrapping, determinism, CLI."""

import gc
import json
import math
import os
import resource
import subprocess
import sys
import weakref
from dataclasses import replace
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED, annotation, row, run_digests, tag
from ontoguard import (
    breaker,
    checkpoint,
    cli,
    compliance,
    dormancy,
    dual_ontology,
    harness,
    sentinel,
    synthgen,
    version_gate,
)
from ontoguard.model import (
    FidelityAnnotation,
    RecordBatch,
    StageError,
    ValidationError,
    canonical_dumps,
    jsonl_dumps,
    read_records,
    write_records,
)
from ontoguard.synthgen import InstitutionWeight

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
    (root / "system.json").write_text(canonical_dumps(NULL_SYSTEM), encoding="utf-8")
    cfg = {
        "fidelity_weights": [0.3, 0.4, 0.3],
        "drift_threshold": 0.03,
        "fingerprint_min_support": 200,
        "inference_fidelity_cutoff": 0.8,
    }
    (root / "config.json").write_text(canonical_dumps(cfg), encoding="utf-8")
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

    def test_run_files_do_not_depend_on_hash_seed(self, tmp_path):
        # String hashing is randomised per process, so only separate
        # processes can show output that depends on set or dict order.
        spec_path = write_null_scenario(tmp_path, n=4_000)
        src = str(Path(cli.__file__).resolve().parents[1])
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "ontoguard.cli", "scenario", "run", str(spec_path),
                 "--seed", "11", "--out-dir", str(tmp_path / hash_seed)],
                env=env, capture_output=True, check=True, timeout=300,
            )
        files = sorted(
            p.relative_to(tmp_path / "0") for p in (tmp_path / "0").rglob("*") if p.is_file()
        )
        assert files
        for rel in files:
            assert (tmp_path / "0" / rel).read_bytes() == (tmp_path / "1" / rel).read_bytes(), rel

    def test_different_seeds_differ(self, tmp_path):
        spec_path = write_null_scenario(tmp_path, n=4_000)
        spec = harness.load_scenario(spec_path)
        a = harness.run_scenario(spec, 11, tmp_path / "a")
        b = harness.run_scenario(spec, 12, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() \
            != (tmp_path / "b" / "report.json").read_bytes()


# sha256 of every file of the walkthrough run directory at the acceptance seed.
WALKTHROUGH_DIGESTS = {
    "deploy_decision.json": "5eff0c9aaf2979be6fc66b87038541238377e0f2a4d29c9c5de6980b9fd98310",
    "dormant_store.json": "45fd0d6cfb7fa6dec6321982c07f5fbce58c16079c71511ea3f98bee521d1edd",
    "influence_dashboard.csv": "7321256cac5aaf6cc168ca6dd9e3562778b6475aa773ce2eca6cde86e10379a6",
    "prune_log.csv": "8c548ba88af74a941407cdcda863567d44e6b77077fac33c8abd4f2c5195008b",
    "q1/alerts.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q1/divergence.csv": "fe945f439070170327db4414684d608633f97abbd1bc52a2810df00cb3f2f680",
    "q1/fidelity_report.csv": "ff7deeb946bb36ee3172375d4ac09da653c0539b17e130093ab8573efe1c154a",
    "q1/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q2/alerts.jsonl": "cfdb8a7953337330e12eb070dedf36d2f1b5f65b49190092ae0c0cd96bdb3442",
    "q2/divergence.csv": "77beb3c7f0be2f862a6217e75dd948d6e88adfb9181bb4db043957c622e61cfc",
    "q2/fidelity_report.csv": "a205bddecd9210f6454c161ec0c76bc06e5f81e157c79c21ff6e8236d044e2c1",
    "q2/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q3/alerts.jsonl": "ee14a4b8e15745124c9cc85daea7d9df5ff472e3233df2b7c0ab280ce8ed70d7",
    "q3/divergence.csv": "97d326399bdd808caede51e2de8acc7fa4862109358a53fb718fc17ed9e2c1e4",
    "q3/fidelity_report.csv": "98c12c679ec21af2a3404cc79424212f13e4778ba5381e0b5ad5695e46dfe8a3",
    "q3/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report.json": "671478f972bd0343ef1a8599cc80c5119315d3e28e2b66362c5356557c340ceb",
    "report.txt": "c83ecf4cb2fee934f7c734af756d84858d7f25fbb72a5821c2727d74698b4412",
}


# sha256 of every file of the drift-storm run directory (perfbench's second
# scenario workload) at the acceptance seed.
DRIFT_STORM_DIGESTS = {
    "deploy_decision.json": "f3260471cb55456dc44d6f4f83b2529748ffe1a56eace76aa064adbd9c2cf8a1",
    "dormant_store.json": "3ce65eed0931adba72e1681b855f437814eacc0542508c45ac020bbed82885ec",
    "influence_dashboard.csv": "a5930787a647ddde2dba39db753136c462b5fa1cdd00b8039f20c84fdb08a514",
    "prune_log.csv": "8c548ba88af74a941407cdcda863567d44e6b77077fac33c8abd4f2c5195008b",
    "q1/alerts.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q1/divergence.csv": "dd36d4ffdfd0bda52594dd5ae5672ca124e44272f0de19530474514d0ac510cb",
    "q1/fidelity_report.csv": "a5c04a50e8be3796b2d4ea4f3dd6621cfb324b828d66d2eb933ecbc616e2b83b",
    "q1/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q2/alerts.jsonl": "1eddbfe2c3a91e4b20566c100b64fdd30f608085b3075c371e6552aa7171e959",
    "q2/divergence.csv": "eda6453d7f917940c6737d80df1180fbc9d0a87168bac283aab41a42529cd15a",
    "q2/fidelity_report.csv": "54c014a003398ab79e28cc5dd977074ed784b450c1dc1abce534f21ab90ea5b8",
    "q2/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q3/alerts.jsonl": "88d70aada2ad7b2b3858c316f719eec009cdc24cdddf5971b249b01a8cb79321",
    "q3/divergence.csv": "2d0d1d66e20b0cce1b77def3a1d7cd2113d34b7b8ad80faefed9f02f0f4698f9",
    "q3/fidelity_report.csv": "5dda9455c58dd7e84316e039aee3d75dd3364a194d8836fcb7e1c9981166282e",
    "q3/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q4/alerts.jsonl": "aa0e9a8c09238ff81656bdef36304e9f1a85b6f18f18187af6c9e91b86169692",
    "q4/divergence.csv": "c72c1036e2d6189cf42315173c83596a9e95508309015ec35134db75ddc2daba",
    "q4/fidelity_report.csv": "169f15d7fda09c3678b8a9cf2780a11afe5ec5829c27896095b3f5205af83416",
    "q4/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q4/refusal.json": "e6f13a7a6f0398efb3bb421bc6ee1e7c913cf538ece97386b8e10697a785da60",
    "q5/alerts.jsonl": "2136dbdbaf22a671403840c41104f5ab11d8452c1710fdf2970f52ed3dc79a0e",
    "q5/divergence.csv": "b1d4680e924aa77879ca2e98e72564047c7e2d62d9f280442d42b5e95ce6a2ec",
    "q5/fidelity_report.csv": "43be2998cc0fc4ef358ffa423935ed44c9f72313f7e229b23f41d02a9eaec1c4",
    "q5/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q5/refusal.json": "8dbac4cc987e9e2c8680e5d60105fa5907293e8b225f62dd51c40c4e3296ac5c",
    "q6/alerts.jsonl": "71b1b88143e8798d46e12901df0bcdbfccc18c5446dca3020846d2828e812d16",
    "q6/divergence.csv": "9c30a006a67c3ddbf9582b0347be57b5c68a5702cb294a3a144a231d744b705a",
    "q6/fidelity_report.csv": "fb19fb0fab216fbc5ce0517d5b32b49c29262a096865d13c4237d04aba6be6c4",
    "q6/quarantine.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "q6/refusal.json": "b4b8e734a0ca23cbd8dca499350930f431b5f5b3da2f4e645cb51cf86a72fc9b",
    "report.json": "c22f20596961089bab945f3236a27bc14e16475892ca68e56b7bb2a5ea40442d",
    "report.txt": "97cc3f55391612223f2f7602b5bd335477789108712f2baa9b3b7e3c69bc0737",
}


class TestGolden:
    def test_walkthrough_run_files(self, scenario_run):
        """Pins every byte the walkthrough writes, so a serialisation change shows."""
        assert run_digests(scenario_run["out_dir"]) == WALKTHROUGH_DIGESTS

    def test_drift_storm_run_files(self, tmp_path):
        """Pins every byte of the drift-storm run, which onsets every distortion
        and opens the breaker."""
        spec = harness.load_scenario(Path(__file__).parents[1] / "perfbench" / "drift_storm.json")
        harness.run_scenario(spec, SEED, tmp_path)
        assert run_digests(tmp_path) == DRIFT_STORM_DIGESTS


def test_a_run_builds_no_fidelity_annotation(walkthrough_spec, tmp_path, monkeypatch):
    # Annotations live in the fidelity column and the annotation table;
    # only iterating a batch builds a FidelityAnnotation.
    def refuse(*args):
        raise AssertionError("a FidelityAnnotation was built")

    monkeypatch.setattr(FidelityAnnotation, "__post_init__", refuse)
    report = harness.run_scenario(replace(walkthrough_spec, n_per_quarter=2000), SEED, tmp_path)
    assert all(sum(row["n"] for row in quarter["fidelity_by_institution"].values()) > 0
               for quarter in report.quarters)


def test_a_quarantining_run_and_gate_iterate_no_batch(walkthrough_spec, bundled_system, tmp_path,
                                                     monkeypatch):
    # Behind the generated version 2025 the gate quarantines most of each
    # quarter. The quarantine file is written by column, like every records
    # file, so neither a run nor the gate command turns a batch into rows.
    def refuse(self):
        raise AssertionError("a RecordBatch was iterated")

    monkeypatch.setattr(RecordBatch, "__iter__", refuse)
    spec = tmp_path / "behind.json"
    spec.write_text(walkthrough_text(target_version="2024", n_per_quarter=2000, assertions=[]),
                    encoding="utf-8")
    assert cli.main(["scenario", "run", str(spec), "--seed", str(SEED),
                     "--out-dir", str(tmp_path / "run")]) == 0
    assert [len((tmp_path / "run" / f"q{q}" / "quarantine.jsonl").read_text(
        encoding="utf-8").splitlines()) for q in (1, 2, 3)] == [1872] * 3
    batch, _ = synthgen.generate_batch(
        bundled_system, walkthrough_spec.distortion, 2000, seed=[SEED, 2000],
        window=synthgen.quarter_window(walkthrough_spec.start, 0), quarter_index=0)
    write_records(tmp_path / "quarter.jsonl", batch)
    assert cli.main(["gate", "--records", str(tmp_path / "quarter.jsonl"), "--system", SYSTEM,
                     "--target-version", "2024", "--out-dir", str(tmp_path / "gated")]) == 0
    lines = {name: len((tmp_path / "gated" / f"{name}.jsonl").read_text(
        encoding="utf-8").splitlines()) for name in ("accepted", "reconciled", "quarantine")}
    assert lines["quarantine"] > 0 and sum(lines.values()) == len(batch)


class TestRecordOrder:
    def test_shuffled_batches_write_a_byte_identical_run(self, scenario_run, walkthrough_spec,
                                                         tmp_path, monkeypatch):
        # Metamorphic relation: the order of a batch's records, the history
        # batch included, changes no byte of the run directory.
        generate_batch = synthgen.generate_batch
        rng = np.random.default_rng(2024)

        def shuffled_generate_batch(*args, **kwargs):
            batch, truth = generate_batch(*args, **kwargs)
            return batch.select(rng.permutation(len(batch))), truth

        monkeypatch.setattr(harness.synthgen_mod, "generate_batch", shuffled_generate_batch)
        harness.run_scenario(walkthrough_spec, SEED, tmp_path)
        files = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(scenario_run["out_dir"])
                               for p in scenario_run["out_dir"].rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / rel).read_bytes() \
                == (scenario_run["out_dir"] / rel).read_bytes(), rel


class TestInstitutionRenaming:
    def test_renamed_institutions_permute_fidelity_rows_and_change_nothing_else(
            self, walkthrough_spec, bundled_system, tmp_path, capsys):
        # Metamorphic relation: a one-to-one renaming of institution ids that
        # does not keep their order permutes the fidelity report's rows and
        # changes no inferred record but its institution id. drift-scan is
        # left out: its institutional component sums JSD terms over the
        # institution keys in sorted order, so a renaming reorders a float sum.
        history, _ = synthgen.generate_batch(
            bundled_system, walkthrough_spec.distortion.without_onset_distortions(), 2000,
            seed=[SEED, 10_007], window=synthgen.quarter_window(walkthrough_spec.start, -1),
            id_prefix="H")
        batch, _ = synthgen.generate_batch(
            bundled_system, walkthrough_spec.distortion, 2000, seed=[SEED, 2],
            window=synthgen.quarter_window(walkthrough_spec.start, 2), id_prefix="Q3",
            quarter_index=2)
        names = sorted({*history.institutions, *batch.institutions})
        assert len(names) > 2
        rename = {name: f"renamed-{new}" for name, new in zip(names, reversed(names))}
        back = {new: name for name, new in rename.items()}
        common = ["--system", str(walkthrough_spec.code_system_path),
                  "--config", str(walkthrough_spec.config_path)]
        for run, table in (("plain", dict(zip(names, names))), ("renamed", rename)):
            out = tmp_path / run
            out.mkdir()
            for name, records in (("history", history), ("quarter", batch)):
                write_records(out / f"{name}.jsonl", replace(
                    records, institutions=tuple(map(table.__getitem__, records.institutions))))
            annotating = ["--records", str(out / "quarter.jsonl"),
                          "--history", str(out / "history.jsonl"), *common]
            assert cli.main(["fidelity-report", *annotating,
                             "--out", str(out / "fidelity_report.csv")]) == 0
            assert cli.main(["infer-clinical", *annotating,
                             "--out", str(out / "inferred.jsonl")]) == 0
        capsys.readouterr()

        def read(run, name):
            return (tmp_path / run / name).read_text(encoding="utf-8").splitlines()

        plain = read("plain", "fidelity_report.csv")
        renamed = read("renamed", "fidelity_report.csv")
        assert renamed[:2] == plain[:2]  # the preamble and the header
        institution = [row.split(",", 1) for row in renamed[2:]]
        assert [name for name, _ in institution] == sorted(back)
        assert sorted(f"{back[name]},{rest}" for name, rest in institution) == plain[2:]
        inferred = [json.loads(line) for line in read("renamed", "inferred.jsonl")]
        for record in inferred:
            record["institution_id"] = back[record["institution_id"]]
        assert inferred == [json.loads(line) for line in read("plain", "inferred.jsonl")]


class TestCliChain:
    @pytest.mark.parametrize("scenario, changes", [
        ("diabetes-walkthrough", {}),
        (Path(__file__).parents[1] / "perfbench" / "drift_storm.json", {}),
        # A target behind the history's dominant version, 2025.
        ("diabetes-walkthrough", {"target_version": "2024", "n_per_quarter": 2000}),
        # Quarters whose encounters do not span the calendar quarter.
        ("diabetes-walkthrough", {"n_per_quarter": 60}),
    ], ids=["walkthrough", "drift-storm", "target-behind-history", "sparse-quarter"])
    def test_cli_chain_reproduces_run_quarters(self, scenario, changes, tmp_path, monkeypatch,
                                               capsys):
        # The CLI commands, run on a quarter's batch and the history batch
        # written as records files, give the run directory's quarter files
        # and its deploy decision byte for byte. The harness annotates the
        # gate's processed records: accepted plus reconciled, in record-id order.
        spec = replace(harness.load_scenario(scenario), **changes)
        generate_batch = synthgen.generate_batch

        def writing_generate_batch(*args, **kwargs):
            batch, truth = generate_batch(*args, **kwargs)
            if kwargs["id_prefix"] in ("H", "Q1", "Q3"):
                write_records(tmp_path / f"{kwargs['id_prefix']}.jsonl", batch)
            return batch, truth

        monkeypatch.setattr(harness.synthgen_mod, "generate_batch", writing_generate_batch)
        run = tmp_path / "run"
        harness.run_scenario(spec, SEED, run)
        common = ["--system", str(spec.code_system_path),
                  "--config", str(spec.config_path)]
        for quarter in ("Q1", "Q3"):
            out = tmp_path / quarter
            assert cli.main(["gate", "--records", str(tmp_path / f"{quarter}.jsonl"), *common,
                             "--target-version", spec.target_version,
                             "--out-dir", str(out)]) == 0
            lines = [line for name in ("accepted.jsonl", "reconciled.jsonl")
                     for line in (out / name).read_text(encoding="utf-8").splitlines(True)]
            lines.sort(key=lambda line: json.loads(line)["record_id"])
            (out / "processed.jsonl").write_text("".join(lines), encoding="utf-8")
            annotating = ["--records", str(out / "processed.jsonl"),
                          "--history", str(tmp_path / "H.jsonl"), *common]
            assert cli.main(["fidelity-report", *annotating,
                             "--out", str(out / "fidelity_report.csv")]) == 0
            assert cli.main(["infer-clinical", *annotating, "--out", str(out / "inferred.jsonl"),
                             "--divergence-out", str(out / "divergence.csv")]) == 0
            assert cli.main(["drift-scan", "--baseline", str(tmp_path / "Q1" / "inferred.jsonl"),
                             "--current", str(out / "inferred.jsonl"), *common,
                             "--out", str(out / "alerts.jsonl")]) == 0
            for name in ("quarantine.jsonl", "fidelity_report.csv", "divergence.csv",
                         "alerts.jsonl"):
                assert (out / name).read_bytes() == (run / quarter.lower() / name).read_bytes(), \
                    (quarter, name)
        # Booleans are written as comply-check reads them back, as JSON booleans.
        context = [f"{key}={json.dumps(value) if isinstance(value, bool) else value}"
                   for key, value in spec.deploy_context.items()]
        last = synthgen.quarter_window(spec.start, spec.quarters - 1)
        assert cli.main(["comply-check", "--op", "deploy", "--context", *context,
                         "--adapters", *map(str, spec.adapter_paths),
                         "--timestamp", f"{last.end}T23:59:59",
                         "--out", str(tmp_path / "deploy_decision.json")]) == 0
        assert (tmp_path / "deploy_decision.json").read_bytes() \
            == (run / "deploy_decision.json").read_bytes()
        capsys.readouterr()


class TestRecordLifetimes:
    def test_no_earlier_batch_is_alive_when_a_quarter_generates(self, tmp_path, monkeypatch):
        # The history batch dies once the reference model is built, and each
        # quarter's batch dies, with every column array it holds, before the
        # next quarter generates its batch.
        spec = harness.load_scenario(write_null_scenario(tmp_path, n=600, quarters=3))
        generate_batch = synthgen.generate_batch
        samples: list[list[weakref.ref]] = []
        alive: list[list[int]] = []

        def sampling_generate_batch(*args, **kwargs):
            alive.append([sum(ref() is not None for ref in refs) for refs in samples])
            batch, truth = generate_batch(*args, **kwargs)
            samples.append([weakref.ref(batch)] + [
                weakref.ref(value) for value in vars(batch).values()
                if isinstance(value, np.ndarray)])
            return batch, truth

        monkeypatch.setattr(harness.synthgen_mod, "generate_batch", sampling_generate_batch)
        harness.run_scenario(spec, 3, tmp_path / "out")
        # History, then three quarters: each batch, its 13 columns and its annotation table.
        assert [len(refs) for refs in samples] == [15] * 4
        assert alive == [[], [0], [0, 0], [0, 0, 0]]


# Each stage of a run: its name, the module function it calls, the number of
# the call of that function that runs the stage, and that call's quarter.
STAGE_CALLS = [
    ("synthgen", synthgen, "generate_batch", 1, 0),  # the reference history is quarter 0
    ("checkpoint.reference", checkpoint, "build_reference_model", 1, 0),
    ("synthgen", synthgen, "generate_batch", 2, 1),
    ("compliance.ingest", compliance, "compose", 1, 1),
    ("gate.validate_migration", version_gate, "validate_migration", 1, 1),
    ("gate.batch", version_gate, "gate_batch", 1, 1),
    ("checkpoint.annotate", checkpoint, "annotate_batch", 1, 1),
    ("checkpoint.fidelity_report", checkpoint, "fidelity_report", 1, 1),
    ("dual_ontology.infer", dual_ontology, "infer_clinical_layer", 1, 1),
    ("dual_ontology.divergence", dual_ontology, "divergence", 1, 1),
    ("profile", harness, "profile_batch", 1, 1),
    ("dormancy.classify", dormancy, "classify_features", 1, 1),
    ("dormancy.store", dormancy, "store_dormant", 1, 1),
    ("dormancy.activation", dormancy, "check_activation", 1, 1),
    ("breaker.stats", breaker, "compute_stats", 1, 1),
    ("breaker.evaluate", breaker, "evaluate", 1, 1),
    ("breaker.retrain", breaker, "retrain_gate", 1, 1),
    ("sentinel.scan", sentinel, "scan", 1, 1),
    ("compliance.deploy", compliance, "compose", 4, 3),  # after three ingests
    ("compliance.export", compliance, "compose", 5, 3),
]


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
        # Each stage that touches data outside the pipeline, and the
        # compliance check that must come first in its quarter.
        external_stages = {
            "gate.batch": "compliance.ingest",
            "deploy": "compliance.deploy",
            "export": "compliance.export",
        }
        trace = scenario_run["report"].trace
        by_stage = {}
        for entry in trace:
            by_stage.setdefault((entry["quarter"], entry["stage"]), []).append(entry["seq"])
        for (quarter, stage), seqs in by_stage.items():
            wrapper = external_stages.get(stage)
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

    def test_denied_export_stops_before_the_report(self, tmp_path, capsys):
        # As a denied ingest stops its quarter, a denied export stops the run
        # before the report is written; the deploy decision before it stays.
        spec_path = write_null_scenario(tmp_path, n=500)
        (tmp_path / "no_export.json").write_text(canonical_dumps({
            "adapter_id": "no-export", "jurisdiction": "EU", "regulation_id": "DEMO",
            "regulation_version": "1",
            "rules": [{"provision": "no export", "verdict": "deny", "reason": "export forbidden",
                       "when": [{"key": "op_kind", "op": "eq", "value": "export"}]},
                      {"provision": "default", "verdict": "permit", "when": []}],
        }), encoding="utf-8")
        raw = json.loads(spec_path.read_text())
        raw["adapters"] = [str(harness.fixture_dir() / "adapters" / "ehds_demo.json"),
                           "no_export.json"]
        spec_path.write_text(canonical_dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        status = cli.main(["scenario", "run", str(spec_path), "--seed", "3",
                           "--out-dir", str(out)])
        assert status == 2
        assert capsys.readouterr().err == ("stage error: stage compliance.export denied: "
                                           "export forbidden\n")
        assert (out / "deploy_decision.json").exists()
        assert not (out / "report.json").exists() and not (out / "report.txt").exists()

    @pytest.mark.parametrize("name, module, function, call, quarter", STAGE_CALLS,
                             ids=[name if quarter else f"{name}-history"
                                  for name, _, _, _, quarter in STAGE_CALLS])
    def test_a_stage_fault_names_the_stage_and_quarter(self, walkthrough_spec, tmp_path,
                                                       monkeypatch, name, module, function,
                                                       call, quarter):
        # An unexpected exception in any stage becomes a StageError with one
        # wording, whichever stage raised it.
        real = getattr(module, function)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, function, failing)
        with pytest.raises(StageError) as raised:
            harness.run_scenario(replace(walkthrough_spec, n_per_quarter=2000), SEED, tmp_path)
        assert str(raised.value) == f"stage {name} failed in quarter {quarter}: boom"

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


SYSTEM = str(harness.fixture_dir() / "syn_icd.json")


def walkthrough_text(**changes) -> str:
    """The walkthrough scenario with absolute file references and ``changes``."""
    spec = harness.load_scenario("diabetes-walkthrough")
    data = json.loads((harness.fixture_dir() / "diabetes_walkthrough.json").read_text())
    data.update(code_system=str(spec.code_system_path), config=str(spec.config_path),
                adapters=[str(p) for p in spec.adapter_paths])
    data.update(changes)
    return json.dumps(data)


def breaker_assertion_text(**changes) -> str:
    """The walkthrough at 500 records a quarter whose one assertion is its
    quarter-3 breaker assertion with ``changes``."""
    return walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "breaker", "quarter": 3, "ratio": 0.12, "state": "warning", **changes}])


def _system_with_string_validated() -> dict:
    data = json.loads(Path(SYSTEM).read_text(encoding="utf-8"))
    data["versions"][-1]["validated"] = "false"
    return data


def _system_with_string_prevalence() -> dict:
    data = json.loads(Path(SYSTEM).read_text(encoding="utf-8"))
    data["base_prevalence"]["DM-OTHER"] = str(data["base_prevalence"]["DM-OTHER"])
    return data


def _system_with_string_cooccurrence() -> dict:
    data = json.loads(Path(SYSTEM).read_text(encoding="utf-8"))
    data["cooccurrence_profiles"]["DM-OTHER"]["LAB-GLU-HI"] = "0.3"
    return data


def _system_with_misspelt_transitions() -> dict:
    data = json.loads(Path(SYSTEM).read_text(encoding="utf-8"))
    data["transitons"] = data.pop("transitions")
    return data


def _system_with_prevalence(rates: dict) -> dict:
    data = json.loads(Path(SYSTEM).read_text(encoding="utf-8"))
    data["base_prevalence"].update(rates)
    return data


# A JSON array nested deeper than the json module's recursion limit.
DEEP = "[" * 5000 + "]" * 5000

# A records-file line as write_records writes it, whose fidelity score holds DEEP.
DEEP_FIDELITY_LINE = jsonl_dumps(row(
    fidelity=annotation(0.5, 0.5, 0.5, 0.5, "r"))).replace('"score":0.5', '"score":' + DEEP)


def _adapter_text(**rule) -> str:
    """One conditional-permit adapter whose only rule takes ``rule``'s fields."""
    return json.dumps({
        "adapter_id": "a", "jurisdiction": "x", "regulation_id": "r",
        "regulation_version": "1", "rules": [{
            "verdict": "permit_with_conditions", "conditions": ["pseudonymise"],
            "provision": "p", **rule,
        }],
    })


# Input files of the bad-input CLI cases, by name.
CLI_INPUT_FILES = {
    "records.jsonl": "",
    "one.jsonl": json.dumps(row()) + "\n",
    "bad.json": "{not json",
    "partial.json": '[{"code": "X"}]',
    "object.json": "{}",
    "trunc.jsonl": '{"record_id": "a",\n',
    "badtype.jsonl": json.dumps(
        {**row(), "encounter_time": "notatime"}) + "\n",
    "cfg-drift.json": '{"drift_threshold": [1]}',
    "cfg-weights.json": '{"fidelity_weights": 5}',
    "cfg-support.json": '{"fingerprint_min_support": 2.7}',
    "norules.json": json.dumps({k: v for k, v in json.loads(_adapter_text()).items()
                                 if k != "rules"}),
    "significance.json": '{"DM2-UNSPEC": "common code"}',
    "conditions.json": '{"DM2-UNSPEC": [{"kind": "prevalence_exceeds", "threshold": 0.5}]}',
    "cond-int.json": '{"DM2-UNSPEC": 5}',
    "cond-kind.json": '{"DM2-UNSPEC": [{"kind": "bogus"}]}',
    "overrides.jsonl": '{"record_id": "R-000000"}\n',
    "no-kind.json": walkthrough_text(assertions=[{"quarter": 1}]),
    "quarters-float.json": walkthrough_text(quarters=1.9),
    "quarters-bool.json": walkthrough_text(quarters=True),
    "n-string.json": walkthrough_text(n_per_quarter="2"),
    "n-zero.json": walkthrough_text(n_per_quarter=0),
    "int-id.jsonl": '{"record_id": 5}\n',
    "spec.json": json.dumps(synthgen.spec_to_dict(synthgen.DistortionSpec(
        institutions=(InstitutionWeight("I-A", 1.0),), current_version="2025"))),
    "system-validated.json": json.dumps(_system_with_string_validated()),
    "system-prevalence.json": json.dumps(_system_with_string_prevalence()),
    "system-cooccurrence.json": json.dumps(_system_with_string_cooccurrence()),
    "context-list.json": walkthrough_text(ingest_context={"purpose": ["training"]}),
    "context-pairs.json": walkthrough_text(deploy_context=[["purpose", "demo"]]),
    "adapter-conditions.json": _adapter_text(conditions="pseudonymise"),
    "adapter-reason.json": _adapter_text(reason=5),
    "store-types.json": json.dumps([{
        "code": "DM2-UNSPEC", "count": "many", "frequency": [1], "top_co_codes": [],
        "significance_note": "", "last_observed": "2025-03-01T08:00:00",
        "activation_conditions": [{"kind": "outbreak_signal", "signal_code": "DM2-UNSPEC"}],
    }]),
    "store-negative.json": json.dumps([{
        "code": "DM2-UNSPEC", "count": -1, "frequency": 0.5, "top_co_codes": [],
        "significance_note": "", "last_observed": "2025-03-01T08:00:00",
        "activation_conditions": [{"kind": "outbreak_signal", "signal_code": "DM2-UNSPEC"}],
    }]),
    "store-stray-field.json": json.dumps([{
        "code": "DM2-UNSPEC", "count": 1, "frequency": 0.5, "top_co_codes": [],
        "significance_note": "", "last_observed": "2025-03-01T08:00:00",
        "activation_conditions": [{"kind": "domain_transfer_request", "domain": "d",
                                   "threshold": 0.5}],
    }]),
    "adapter-ids.json": json.dumps({**json.loads(_adapter_text()), "adapter_id": 5,
                                    "jurisdiction": ["x"], "regulation_version": 1}),
    "adapter-key.json": json.dumps({**json.loads(_adapter_text()), "rules": [
        {"when": [{"key": ["model_card_present"], "op": "present"}], "verdict": "permit",
         "provision": "p"},
        {"verdict": "permit", "provision": "p"},
    ]}),
    "sig-int.json": '{"DM2-UNSPEC": 5}',
    "sig-scenario.json": walkthrough_text(significance_list={"DM-OTHER": 5}),
    "spec-weight.json": json.dumps({"current_version": "2025", "institutions": [
        {"institution_id": "I-A", "weight": "1.0"}]}),
    "spec-extra.json": json.dumps({"current_version": "2025", "outbreaks": None, "institutions": [
        {"institution_id": "I-A", "weight": 1.0}]}),
    "cond-domain.json": '{"DM2-UNSPEC": [{"kind": "domain_transfer_request", "domain": 5}]}',
    "sig-typo.json": walkthrough_text(signficance_list={"DM-OTHER": "rare subtype"}),
    "system-transitons.json": json.dumps(_system_with_misspelt_transitions()),
    "adapter-wehn.json": json.dumps({**json.loads(_adapter_text()), "rules": [
        {"wehn": [{"key": "risk_class", "op": "eq", "value": "high"}], "verdict": "permit",
         "provision": "p"},
        {"verdict": "permit", "provision": "p"},
    ]}),
    "adapter-value-list.json": json.dumps({**json.loads(_adapter_text()), "rules": [
        {"when": [{"key": "risk_class", "op": "eq", "value": ["high"]}], "verdict": "permit",
         "provision": "p"},
        {"verdict": "permit", "provision": "p"},
    ]}),
    "spec-twice.json": json.dumps({"current_version": "2025", "institutions": [
        {"institution_id": "I-A", "weight": 0.5}, {"institution_id": "I-A", "weight": 0.5}]}),
    "sig-no-conditions.json": walkthrough_text(activation_conditions={}),
    "sig-unknown-code.json": walkthrough_text(
        significance_list={"DM-OTEHR": "rare subtype"},
        activation_conditions={"DM-OTEHR": [{"kind": "prevalence_exceeds", "threshold": 0.005}]}),
    "mixed-offsets.jsonl": "".join(json.dumps(r) + "\n" for r in (
        row("R-1"), row("R-2", when=datetime(2025, 2, 16, tzinfo=timezone.utc)))),
    "record-key.jsonl": json.dumps({**row(), "influence_tg": {
        "model_version": "m1", "model_confidence": 0.8, "clinician_modified": True}}) + "\n",
    "tag-key.jsonl": json.dumps({**row(), "influence_tag": {
        "model_version": "m1", "confidence": 0.8, "clinician_modified": True}}) + "\n",
    "system-dir.json": walkthrough_text(code_system=""),
    "config-dir.json": walkthrough_text(config="."),
    "deep.json": DEEP,
    "deep.jsonl": DEEP + "\n",
    "deep-fidelity.jsonl": DEEP_FIDELITY_LINE + "\n",
    "system-prevalence-negative.json": json.dumps(_system_with_prevalence({"DM-OTHER": -0.5})),
    "system-prevalence-nan.json": json.dumps(_system_with_prevalence({"DM-OTHER": math.nan})),
    "system-prevalence-inf.json": json.dumps(_system_with_prevalence({"DM-OTHER": math.inf})),
    "system-prevalence-zero.json": json.dumps(_system_with_prevalence(
        dict.fromkeys(json.loads(Path(SYSTEM).read_text(encoding="utf-8"))["base_prevalence"], 0))),
    "spec-nan-weight.json": json.dumps({"current_version": "2025", "institutions": [
        {"institution_id": "I-A", "weight": math.nan}]}),
    "catch-all-nope.json": walkthrough_text(distortion={
        **json.loads(walkthrough_text())["distortion"],
        "catch_all": [{"institution_id": "INST-07", "target_code": "NOPE", "excess_rate": 0.8}]}),
    "n-huge.json": walkthrough_text(n_per_quarter=100_000_000_000),
    "v1900.jsonl": json.dumps(row(version="1900")) + "\n",
    "store-empty.json": "[]",
    "quarter-string.json": breaker_assertion_text(quarter="1"),
    "quarter-float.json": breaker_assertion_text(quarter=1.0),
    "quarter-zero.json": breaker_assertion_text(quarter=0),
    "quarter-negative.json": breaker_assertion_text(quarter=-1),
    "quarter-bool.json": breaker_assertion_text(quarter=True),
    "quarter-missing.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "breaker", "ratio": 0.12, "state": "warning"}]),
    "ratio-string.json": breaker_assertion_text(ratio="0.12"),
    "state-missing.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "breaker", "quarter": 3, "ratio": 0.12}]),
    "count-missing.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "dormant_entry", "quarter": 1, "code": "DM-OTHER", "conditions": 2}]),
    "accepted-bool.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "gate_counts", "quarter": 1, "accepted": True, "reconciled": 0,
         "quarantined": 0}]),
    "category-int.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "drift_alert", "quarter": 3, "code": "DM2-HYPER", "drift_type": "type_b",
         "evidence_billing_category": 5}]),
    "verdict-missing.json": walkthrough_text(n_per_quarter=500, assertions=[
        {"kind": "deploy_verdict", "condition_contains": "90th percentile"}]),
    "kind-unknown.json": breaker_assertion_text(kind="breakr"),
    "target-2026.json": walkthrough_text(target_version="2026"),
}


# The bad-input CLI cases: each argv, and a text that its error must name.
BAD_INPUT_CASES = [
    (["breaker", "sweep", "--thresholds", "0.05:0.3:0"], "0.05:0.3:0"),
    (["breaker", "sweep", "--thresholds", "0.3:0.05:0.05"], "0.3:0.05:0.05"),
    (["breaker", "check", "--history", "0.1,abc"], "'abc'"),
    (["breaker", "check", "--history", '[["q1", "x"]]'],
     """history entry '[["q1"' is not a number"""),
    (["dormancy", "activate", "--store", "missing.json"], "missing.json"),
    (["dormancy", "activate", "--store", "bad.json"], "bad.json"),
    (["breaker", "sweep", "--thresholds", "0.05:0.3:1e-12"], "0.05:0.3:1e-12"),
    (["breaker", "sweep", "--thresholds", "0.05:inf:0.05"], "0.05:inf:0.05"),
    (["dormancy", "activate", "--store", "partial.json"],
     "partial.json [0] is missing key 'count'"),
    (["dormancy", "activate", "--store", "object.json"],
     "object.json must be a list of objects, got {}"),
    (["breaker", "check", "--records", "trunc.jsonl"], "trunc.jsonl:1 is not valid JSON"),
    (["oracle", "jsd", "--p", "1,x", "--q", "0,1"], "--p"),
    (["comply-check", "--op", "deploy", "--timestamp", "notatime"], "--timestamp"),
    (["dormancy", "classify", "--significance", "missing.json"], "missing.json"),
    (["breaker", "check", "--records", "badtype.jsonl"], "badtype.jsonl:1"),
    (["scenario", "run", "bad.json", "--seed", "1"], "bad.json is not valid JSON"),
    (["scenario", "run", "object.json", "--seed", "1"], "object.json is missing key 'name'"),
    (["breaker", "check", "--config", "cfg-drift.json"], "cfg-drift.json drift_threshold"),
    (["breaker", "check", "--config", "cfg-weights.json"],
     "cfg-weights.json fidelity_weights"),
    (["breaker", "check", "--config", "cfg-support.json"],
     "cfg-support.json fingerprint_min_support"),
    (["gate", "--records", "records.jsonl", "--system", "object.json",
      "--target-version", "2025", "--out-dir", "gated"], "object.json is missing key 'system_id'"),
    (["comply-check", "--op", "deploy", "--adapters", "norules.json"],
     "norules.json is missing key 'rules'"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "object.json", "--n", "10",
      "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "object.json is missing key 'institutions'"),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "significance.json",
      "--conditions", "cond-int.json", "--store", "store.json"], "cond-int.json"),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "significance.json",
      "--conditions", "cond-kind.json", "--store", "store.json"], "cond-kind.json"),
    (["infer-clinical", "--records", "one.jsonl", "--history", "one.jsonl", "--system", SYSTEM,
      "--out", "inferred.jsonl", "--overrides", "overrides.jsonl"],
     "overrides.jsonl:1: is missing key 'clinical_code'"),
    (["breaker", "check", "--records", "missing.jsonl"], "missing.jsonl"),
    (["infer-clinical", "--records", "one.jsonl", "--history", "one.jsonl", "--system", SYSTEM,
      "--out", "nodir/inferred.jsonl"], "nodir/inferred.jsonl"),
    (["drift-scan", "--baseline", "one.jsonl", "--current", "one.jsonl", "--system", SYSTEM,
      "--out", "nodir/alerts.jsonl"], "nodir/alerts.jsonl"),
    (["breaker", "check", "--config", "cfgdir"], "cfgdir"),
    (["oracle", "partition", "--input", "records.jsonl", "--accepted", "missing.jsonl",
      "--reconciled", "records.jsonl", "--quarantine", "records.jsonl"], "missing.jsonl"),
    (["oracle", "jsd", "--p", "nan,1", "--q", "0,1"], "--p"),
    (["scenario", "run", "no-kind.json", "--seed", "1"],
     "no-kind.json assertions must be a list of objects, each with a string kind"),
    (["scenario", "run", "quarters-float.json", "--seed", "1"],
     "quarters-float.json quarters must be an integer, got 1.9"),
    (["scenario", "run", "quarters-bool.json", "--seed", "1"],
     "quarters-bool.json quarters must be an integer, got True"),
    (["scenario", "run", "n-string.json", "--seed", "1"],
     "n-string.json n_per_quarter must be an integer, got '2'"),
    (["scenario", "run", "n-zero.json", "--seed", "1"],
     "n-zero.json n_per_quarter must be an integer >= 1, got 0"),
    (["oracle", "partition", "--input", "records.jsonl", "--accepted", "trunc.jsonl",
      "--reconciled", "records.jsonl", "--quarantine", "records.jsonl"], "trunc.jsonl:1"),
    (["oracle", "partition", "--input", "one.jsonl", "--accepted", "one.jsonl",
      "--reconciled", "int-id.jsonl", "--quarantine", "records.jsonl"],
     "int-id.jsonl:1 is not a JSON record: record_id 5 is not a string"),
    (["fidelity-report", "--records", "one.jsonl", "--history", "one.jsonl",
      "--system", SYSTEM, "--out", "fidelity.csv", "--layer", "clinical"],
     "unrecognized arguments: --layer clinical"),
    (["dormancy", "classify", "--records", "mixed-offsets.jsonl",
      "--significance", "significance.json", "--store", "store.json"],
     "mixed-offsets.jsonl: record 'R-2': encounter times of code 'DM2-UNSPEC' mix naive "
     "and UTC-offset"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec.json", "--n", "10",
      "--seed", "-1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    (["scenario", "run", "diabetes-walkthrough", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec.json", "--n", "10",
      "--seed", "1", "--quarters", "2", "--start", "notadate",
      "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "argument --start: must be an ISO 8601 date"),
    (["breaker", "check", "--history", "nan"], "history entry 'nan' is not a ratio in [0,1]"),
    (["breaker", "check", "--history", "5,inf"], "history entry '5' is not a ratio in [0,1]"),
    (["breaker", "check", "--history", "[[1,2]]"], "history entry '[[1' is not a number"),
    (["gate", "--records", "records.jsonl", "--system", "system-validated.json",
      "--target-version", "2025", "--out-dir", "gated"],
     "system-validated.json versions[1].validated must be true or false, got 'false'"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-conditions.json"],
     "adapter-conditions.json rules[0].conditions must be a list of strings, "
     "got 'pseudonymise'"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-reason.json"],
     "adapter-reason.json rules[0].reason must be a string, got 5"),
    (["dormancy", "activate", "--store", "store-types.json", "--records", "one.jsonl"],
     "store-types.json [0].count must be an integer, got 'many'"),
    (["dormancy", "activate", "--store", "store-negative.json", "--records", "one.jsonl"],
     "store-negative.json [0]: count must be >= 0, got -1"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-ids.json"],
     "adapter-ids.json adapter_id must be a string, got 5"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-key.json"],
     "adapter-key.json rules[0].when[0].key must be a string, got ['model_card_present']"),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "sig-int.json",
      "--store", "store.json"],
     "sig-int.json ['DM2-UNSPEC'] must be a string, got 5"),
    (["scenario", "run", "sig-scenario.json", "--seed", "1"],
     "sig-scenario.json significance_list['DM-OTHER'] must be a string, got 5"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec-weight.json", "--n", "10",
      "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "spec-weight.json institutions[0].weight must be a number, got '1.0'"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec-extra.json", "--n", "10",
      "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "spec-extra.json has unknown keys ['outbreaks']"),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "significance.json",
      "--conditions", "cond-domain.json", "--store", "store.json"],
     "cond-domain.json ['DM2-UNSPEC'][0].domain must be a string or null, got 5"),
    (["synth", "generate", "--system", "system-prevalence.json", "--spec", "spec.json",
      "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "system-prevalence.json base_prevalence['DM-OTHER'] must be a number, got '0."),
    (["synth", "generate", "--system", "system-cooccurrence.json", "--spec", "spec.json",
      "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "system-cooccurrence.json cooccurrence_profiles['DM-OTHER']['LAB-GLU-HI'] must be a "
     "number, got '0.3'"),
    (["scenario", "run", "context-list.json", "--seed", "1"],
     "context-list.json ingest_context['purpose'] must be a string, an integer, a number "
     "or true or false, got ['training']"),
    (["scenario", "run", "context-pairs.json", "--seed", "1"],
     "context-pairs.json deploy_context must be an object of strings, integers, numbers "
     "or booleans, got [['purpose', 'demo']]"),
    (["scenario", "run", "sig-typo.json", "--seed", "1"],
     "sig-typo.json has unknown keys ['signficance_list']"),
    (["gate", "--records", "records.jsonl", "--system", "system-transitons.json",
      "--target-version", "2025", "--out-dir", "gated"],
     "system-transitons.json has unknown keys ['transitons']"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-wehn.json"],
     "adapter-wehn.json rules[0] has unknown keys ['wehn']"),
    (["comply-check", "--op", "deploy", "--adapters", "adapter-value-list.json"],
     "adapter-value-list.json rules[0].when[0].value must be a string, an integer, a number "
     "or true or false or null, got ['high']"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec-twice.json", "--n", "10",
      "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "spec lists institution 'I-A' more than once"),
    (["scenario", "run", "sig-no-conditions.json", "--seed", "1"],
     "sig-no-conditions.json significance_list code 'DM-OTHER' has no "
     "activation_conditions entry"),
    (["scenario", "run", "sig-unknown-code.json", "--seed", "1"],
     "sig-unknown-code.json significance_list lists unknown code 'DM-OTEHR'"),
    (["breaker", "check", "--records", "record-key.jsonl"],
     "record-key.jsonl:1: has unknown keys ['influence_tg']"),
    (["breaker", "check", "--records", "tag-key.jsonl"],
     "tag-key.jsonl:1: influence_tag has unknown keys ['confidence']"),
    (["scenario", "run", "system-dir.json", "--seed", "1", "--out-dir", "run"],
     "system-dir.json references missing file: ."),
    (["scenario", "run", "config-dir.json", "--seed", "1", "--out-dir", "run"],
     "config-dir.json references missing file: ."),
    (["breaker", "check", "--records", "deep.jsonl"], "deep.jsonl:1: "),
    (["breaker", "check", "--records", "deep-fidelity.jsonl"], "deep-fidelity.jsonl:1: "),
    (["comply-check", "--op", "deploy", "--adapters", "deep.json"],
     "deep.json is not valid JSON"),
    (["scenario", "run", "deep.json", "--seed", "1"], "deep.json is not valid JSON"),
    (["oracle", "partition", "--input", "deep.jsonl", "--accepted", "records.jsonl",
      "--reconciled", "records.jsonl", "--quarantine", "records.jsonl"],
     "deep.jsonl:1 is not a JSON record"),
    (["synth", "generate", "--system", "system-prevalence-negative.json", "--spec",
      "spec.json", "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "system-prevalence-negative.json base_prevalence['DM-OTHER'] must be a number >= 0, "
     "got -0.5"),
    (["synth", "generate", "--system", "system-prevalence-nan.json", "--spec",
      "spec.json", "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "system-prevalence-nan.json base_prevalence['DM-OTHER'] must be a number >= 0, got nan"),
    (["synth", "generate", "--system", "system-prevalence-inf.json", "--spec",
      "spec.json", "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "system-prevalence-inf.json base_prevalence['DM-OTHER'] must be a number >= 0, got inf"),
    (["synth", "generate", "--system", "system-prevalence-zero.json", "--spec",
      "spec.json", "--n", "10", "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "code system declares no positive base_prevalence"),
    (["synth", "generate", "--system", SYSTEM, "--spec", "spec-nan-weight.json", "--n", "10",
      "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
     "spec-nan-weight.json: institution weights must sum to 1, got nan"),
    (["scenario", "run", "catch-all-nope.json", "--seed", "1", "--out-dir", "run"],
     "scenario file catch-all-nope.json catch_all references unknown code 'NOPE'"),
    (["fidelity-report", "--records", "one.jsonl", "--history", "mixed-offsets.jsonl",
      "--system", SYSTEM, "--out", "fidelity.csv"],
     "mixed-offsets.jsonl: record 'R-2': encounter times of code 'DM2-UNSPEC' mix"),
    (["infer-clinical", "--records", "one.jsonl", "--history", "mixed-offsets.jsonl",
      "--system", SYSTEM, "--out", "out.jsonl"],
     "mixed-offsets.jsonl: record 'R-2': encounter times of code 'DM2-UNSPEC' mix"),
    (["drift-scan", "--baseline", "one.jsonl", "--current", "mixed-offsets.jsonl",
      "--system", SYSTEM],
     "mixed-offsets.jsonl: record 'R-2': encounter times of code 'DM2-UNSPEC' mix"),
    (["dormancy", "activate", "--records", "mixed-offsets.jsonl",
      "--store", "store-empty.json"],
     "mixed-offsets.jsonl: record 'R-2': encounter times of code 'DM2-UNSPEC' mix"),
    (["infer-clinical", "--records", "one.jsonl", "--history", "v1900.jsonl",
      "--system", SYSTEM, "--out", "out.jsonl"], "v1900.jsonl: unknown version: '1900'"),
    (["drift-scan", "--baseline", "one.jsonl", "--current", "v1900.jsonl",
      "--system", SYSTEM], "v1900.jsonl: unknown version: '1900'"),
    (["fidelity-report", "--records", "one.jsonl", "--history", "records.jsonl",
      "--system", SYSTEM, "--out", "fidelity.csv"],
     "records.jsonl: reference history must be non-empty"),
    *((["scenario", "run", f"quarter-{name}.json", "--seed", "1"],
       f"quarter-{name}.json assertions[0].quarter must be an integer in 1..3, got {value}")
      for name, value in (("string", "'1'"), ("float", "1.0"), ("zero", "0"),
                          ("negative", "-1"), ("bool", "True"))),
    *((["scenario", "run", name, "--seed", "1"], f"{name} assertions[0].{fault}")
      for name, fault in (
          ("quarter-missing.json", "quarter must be an integer in 1..3, got None"),
          ("ratio-string.json", "ratio must be a number, got '0.12'"),
          ("state-missing.json", "state must be a string, got None"),
          ("count-missing.json", "count must be an integer, got None"),
          ("accepted-bool.json", "accepted must be an integer, got True"),
          ("category-int.json", "evidence_billing_category must be a string or null, got 5"),
          ("verdict-missing.json", "verdict must be a string, got None"),
          ("kind-unknown.json", "kind must be one of ['breaker', 'deploy_verdict', "
           "'dormant_entry', 'drift_alert', 'gate_counts'], got 'breakr'"))),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "significance.json",
      "--conditions", "conditions.json"], "--conditions needs --store"),
    (["dormancy", "classify", "--records", "one.jsonl", "--significance", "significance.json",
      "--prune-log", "prune.csv"], "--prune-log needs --store"),
    (["dormancy", "activate", "--store", "store-stray-field.json", "--records", "one.jsonl"],
     "store-stray-field.json [0].activation_conditions[0]: domain_transfer_request "
     "condition must not set threshold"),
    (["scenario", "run", "target-2026.json", "--seed", "1"],
     "scenario file target-2026.json target_version '2026' is not a validated version of the "
     "code system"),
]
BAD_INPUT_IDS = [
    "zero-step", "start-after-stop", "bad-history", "bad-json-history",
    "missing-store", "bad-store", "tiny-step", "infinite-stop",
    "store-entry-missing-key", "store-not-a-list", "truncated-jsonl",
    "jsd-not-a-number", "bad-timestamp", "missing-significance", "record-bad-time",
    "scenario-not-json", "scenario-no-name", "config-list-threshold", "config-number-weights",
    "config-float-support", "system-empty", "adapter-no-rules",
    "spec-empty", "conditions-not-lists", "conditions-bad-kind", "override-missing-code",
    "records-missing", "infer-out-dir-missing", "scan-out-dir-missing", "config-is-directory",
    "partition-missing", "jsd-nan", "assertion-no-kind", "quarters-float",
    "quarters-bool", "n-per-quarter-string", "n-per-quarter-zero", "partition-bad-line",
    "partition-int-id", "fidelity-layer", "mixed-utc-offsets", "synth-negative-seed",
    "scenario-negative-seed", "synth-bad-start", "history-nan", "history-out-of-range",
    "history-int-period", "system-string-validated", "adapter-string-conditions",
    "adapter-int-reason", "store-entry-types", "store-entry-negative-count",
    "adapter-int-fields", "adapter-list-clause-key", "significance-int-note",
    "scenario-significance-int-note", "spec-string-weight", "spec-unknown-key",
    "conditions-int-domain", "system-string-prevalence", "system-string-cooccurrence",
    "scenario-context-list-value",
    "scenario-context-not-object", "scenario-misspelt-key", "system-misspelt-key",
    "adapter-misspelt-rule-key", "adapter-list-clause-value", "spec-repeated-institution",
    "scenario-significance-without-conditions", "scenario-unknown-dormancy-code",
    "record-misspelt-key", "record-misspelt-tag-key",
    "scenario-code-system-directory", "scenario-config-directory",
    "records-deeply-nested", "records-deeply-nested-fidelity", "adapter-deeply-nested",
    "scenario-deeply-nested", "partition-deeply-nested", "system-negative-prevalence",
    "system-nan-prevalence", "system-infinite-prevalence", "system-zero-prevalence",
    "spec-nan-weight", "scenario-catch-all-unknown-code", "fidelity-history-mixed-offsets",
    "infer-history-mixed-offsets", "scan-current-mixed-offsets", "activate-mixed-offsets",
    "infer-history-unknown-version", "scan-current-unknown-version", "fidelity-history-empty",
    "assertion-quarter-string", "assertion-quarter-float",
    "assertion-quarter-zero", "assertion-quarter-negative", "assertion-quarter-bool",
    "assertion-quarter-missing", "assertion-ratio-string", "assertion-state-missing",
    "assertion-count-missing", "assertion-accepted-bool", "assertion-category-int",
    "assertion-verdict-missing", "assertion-kind-unknown", "conditions-without-store",
    "prune-log-without-store", "store-condition-stray-field", "scenario-unknown-target-version",
]


# Runs the cases of a JSON file, ``[argvs, files]``, one after another in this
# process: each calls ``cli.main(argv)`` in a fresh directory under the third
# argument holding ``files`` and a ``cfgdir`` directory, and appends a JSON
# line to the results file, its exit status and stderr. An exception that
# escapes ``main`` has status null and its traceback as stderr; an interrupt
# or exit ends the child, which fails every case it did not finish.
_BAD_INPUT_RUNNER = """
import contextlib, io, json, os, sys, traceback
from pathlib import Path
from ontoguard import cli
argvs, files = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
with open(sys.argv[2], "w", encoding="utf-8") as results:
    for i, argv in enumerate(argvs):
        case = Path(sys.argv[3]) / str(i)
        (case / "cfgdir").mkdir(parents=True)
        for name, text in files.items():
            (case / name).write_text(text, encoding="utf-8")
        os.chdir(case)
        status, err = None, io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except Exception:
                err.write(traceback.format_exc())
        results.write(json.dumps([status, err.getvalue()]) + "\\n")
        results.flush()
"""


@pytest.fixture(scope="module")
def bad_input_results(tmp_path_factory):
    """Each bad-input case's exit status and stderr by its id, from one child
    process under one timeout, and the child's own stderr. A case that the
    child did not finish, by a hang or a crash, has no result."""
    root = tmp_path_factory.mktemp("bad-input")
    argvs = [[*argv, "--records", "records.jsonl"]
             if argv[0] in ("breaker", "dormancy") and "--records" not in argv else argv
             for argv, _ in BAD_INPUT_CASES]
    (root / "cases.json").write_text(json.dumps([argvs, CLI_INPUT_FILES]), encoding="utf-8")
    results = root / "results.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        child_stderr = subprocess.run(
            [sys.executable, "-c", _BAD_INPUT_RUNNER, str(root / "cases.json"), str(results),
             str(root / "cases")], env=env, capture_output=True, text=True, timeout=120,
        ).stderr
    except subprocess.TimeoutExpired:
        child_stderr = "timed out after 120 s"
    done = results.read_text(encoding="utf-8").split("\n")[:-1] if results.exists() else []
    return dict(zip(BAD_INPUT_IDS, map(json.loads, done))), child_stderr


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

    def test_assertion_of_the_wrong_type_fails_before_the_run(self, tmp_path, capsys):
        # A ratio that is not a number cannot be compared with the run's, so
        # the scenario is refused before any quarter runs.
        spec = tmp_path / "ratio-string.json"
        spec.write_text(breaker_assertion_text(ratio="0.12"), encoding="utf-8")
        status = cli.main(["scenario", "run", str(spec), "--seed", "1",
                           "--out-dir", str(tmp_path / "run")])
        assert status == 1
        assert ("assertions[0].ratio must be a number, got '0.12'"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_fully_quarantined_quarter_completes(self, tmp_path, capsys, n):
        # Behind the generated version 2025, a batch this small has every
        # record quarantined; each stage gives its result for no rows.
        spec = tmp_path / "all-quarantined.json"
        spec.write_text(walkthrough_text(target_version="2024", n_per_quarter=n, assertions=[]),
                        encoding="utf-8")
        status = cli.main(["scenario", "run", str(spec), "--seed", "1",
                           "--out-dir", str(tmp_path / "run")])
        assert status == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "run" / "report.json").exists()
        quarantine = tmp_path / "run" / "q1" / "quarantine.jsonl"
        assert len(quarantine.read_text(encoding="utf-8").splitlines()) == n

    def test_breaker_sweep_evaluates_each_threshold_as_written(self, tmp_path, capsys):
        # Summed as floats, 0.7 + 0.1 is 0.7999999999999999, which a ratio of
        # 0.8 exceeds; the sweep's second threshold is 0.8, which it does not.
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text("".join(
            jsonl_dumps(row(f"R-{i}", influence_tag=tag("m-1", 0.9, False) if i else None)) + "\n"
            for i in range(5)), encoding="utf-8")
        assert cli.main(["breaker", "sweep", "--records", str(cohort),
                         "--thresholds", "0.7:0.9:0.1"]) == 0
        assert capsys.readouterr().out == ("ratio: 0.8000\nthreshold 0.700: open\n"
                                           "threshold 0.800: closed\nthreshold 0.900: closed\n")

    @pytest.mark.parametrize("thresholds", ["0:0.3:0.1", "0.5:1.5:0.5"])
    def test_breaker_sweep_out_of_range_fails_before_any_output(self, tmp_path, capsys,
                                                                thresholds):
        # A threshold of 0 or from 1 up is no breaker threshold; the whole
        # range is checked before the ratio or any threshold is printed.
        cohort = tmp_path / "cohort.jsonl"
        cohort.write_text(jsonl_dumps(row()) + "\n", encoding="utf-8")
        assert cli.main(["breaker", "sweep", "--records", str(cohort),
                         "--thresholds", thresholds]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --thresholds must lie in (0,1), got {thresholds!r}\n"

    def test_a_reused_out_dir_keeps_no_stale_refusal(self, tmp_path):
        # A run into a directory that an earlier run wrote holds what a fresh
        # run holds: after a run that refuses retraining in q1, and after a
        # run of more quarters.
        spec = harness.load_scenario("diabetes-walkthrough")
        small = replace(spec, n_per_quarter=2000)
        ai = replace(small.distortion.ai_influence, schedule=(0.5,))
        refusing = replace(small, distortion=replace(small.distortion, ai_influence=ai))
        one_quarter = replace(small, quarters=1, assertions=())
        for i, (earlier, later, kept) in enumerate([(refusing, small, "q1/refusal.json"),
                                                    (small, one_quarter, "q3")]):
            reused, fresh = tmp_path / f"reused-{i}", tmp_path / f"fresh-{i}"
            harness.run_scenario(earlier, SEED, reused)
            assert (reused / kept).exists()
            harness.run_scenario(later, SEED, reused)
            harness.run_scenario(later, SEED, fresh)
            assert run_digests(reused) == run_digests(fresh)

    @pytest.mark.parametrize("command, out", [
        (["dormancy", "classify", "--records", "empty.jsonl", "--significance", "sig.json"], ""),
        (["drift-scan", "--baseline", "one.jsonl", "--current", "empty.jsonl",
          "--system", SYSTEM], "no drift alerts\n"),
        (["drift-scan", "--baseline", "empty.jsonl", "--current", "one.jsonl",
          "--system", SYSTEM], "no drift alerts\n"),
    ], ids=["classify", "scan-current", "scan-baseline"])
    def test_an_empty_records_file_is_an_empty_batch(self, tmp_path, monkeypatch, capsys,
                                                    command, out):
        monkeypatch.chdir(tmp_path)
        for name, text in (("empty.jsonl", ""), ("one.jsonl", json.dumps(row()) + "\n"),
                           ("sig.json", "{}")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert cli.main(command) == 0
        assert capsys.readouterr() == ("layer: administrative\n" + out, "")

    def test_drift_scan_matches_a_release_from_the_first_of_the_month(self, tmp_path, capsys):
        # The current batch's first encounter, 2025-03-16, is 91 days after
        # the 2025 release of 2024-12-15, one more than the correlation
        # window; its window starts on 2025-03-01, 76 days after the release.
        for name, institution, when in (("baseline", "I-1", datetime(2025, 1, 10, 8, 0)),
                                        ("current", "I-2", datetime(2025, 3, 16, 8, 0))):
            (tmp_path / f"{name}.jsonl").write_text("".join(
                jsonl_dumps(row(f"{name}-{i}", institution=institution, when=when)) + "\n"
                for i in range(3)), encoding="utf-8")
        (tmp_path / "config.json").write_text(canonical_dumps(
            {"fingerprint_min_support": 1, "drift_threshold": 0.01}), encoding="utf-8")
        status = cli.main(["drift-scan", "--baseline", str(tmp_path / "baseline.jsonl"),
                           "--current", str(tmp_path / "current.jsonl"), "--system", SYSTEM,
                           "--config", str(tmp_path / "config.json"),
                           "--out", str(tmp_path / "alerts.jsonl")])
        capsys.readouterr()
        assert status == 0
        [alert] = map(json.loads, (tmp_path / "alerts.jsonl").read_text(encoding="utf-8")
                      .splitlines())
        assert alert["code"] == "DM2-UNSPEC"
        assert alert["evidence"]["release_match"] == {"version": "2025",
                                                      "release_date": "2024-12-15"}

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
            institutions=(InstitutionWeight("I-A", 1.0),), current_version="2025",
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

    @pytest.mark.parametrize("command, message", [
        ("fidelity-report", "stage fidelity-report failed: boom"),
        # A run's own stage error already names its stage and is not wrapped again.
        ("scenario", "stage checkpoint.annotate failed in quarter 1: boom"),
    ], ids=["fidelity-report", "scenario-run"])
    def test_an_unexpected_fault_in_a_command_exits_two(self, walkthrough_spec, bundled_system,
                                                        tmp_path, monkeypatch, capsys, command,
                                                        message):
        # Every command runs through harness.run_stage, as every stage of
        # `scenario run` does: a fault that is neither the input's nor the
        # machine's exits 2 with one `stage error:` line, not a traceback.
        batch, _ = synthgen.generate_batch(bundled_system, walkthrough_spec.distortion, 500, SEED)
        records = str(tmp_path / "batch.jsonl")
        write_records(records, batch)
        argv = {
            "fidelity-report": ["fidelity-report", "--records", records, "--history", records,
                                "--system", str(walkthrough_spec.code_system_path),
                                "--out", str(tmp_path / "fidelity.csv")],
            "scenario": ["scenario", "run", "diabetes-walkthrough", "--seed", "1",
                         "--out-dir", str(tmp_path / "run")],
        }[command]

        def failing(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(checkpoint, "annotate_batch", failing)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"stage error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, named", BAD_INPUT_CASES, ids=BAD_INPUT_IDS)
    def test_bad_flag_or_store_exits_one_without_traceback(self, bad_input_results, request,
                                                           argv, named):
        # All cases run in one child process under one timeout (the fixture),
        # so a flag that loops forever fails the cases left instead of hanging
        # the suite.
        results, child_stderr = bad_input_results
        case = request.node.callspec.id
        assert case in results, f"the child process did not finish the case: {child_stderr}"
        status, stderr = results[case]
        assert status == 1
        assert "error:" in stderr and named in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [
        ["synth", "generate", "--system", SYSTEM, "--spec", "spec.json", "--n", "100000000000",
         "--seed", "1", "--out", "out.jsonl", "--truth", "truth.jsonl"],
        ["scenario", "run", "n-huge.json", "--seed", "1", "--out-dir", "run"],
    ], ids=["synth-generate", "scenario-run"])
    def test_size_no_machine_holds_exits_one_without_traceback(self, tmp_path, argv):
        # The child's address space is capped at about 3 GB, so the first
        # array of 10^11 rows fails to allocate and nothing of that size is
        # ever reserved.
        def cap_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024, hard))

        for name in ("spec.json", "n-huge.json"):
            (tmp_path / name).write_text(CLI_INPUT_FILES[name], encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "ontoguard.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "allocate" in result.stderr
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
            institutions=(InstitutionWeight("I-A", 0.5), InstitutionWeight("I-B", 0.5)),
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

    def test_synth_generate_without_quarters_falls_in_the_quarter_start_begins(
            self, tmp_path, capsys, walkthrough_spec):
        spec_dict = synthgen.spec_to_dict(synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 1.0),), current_version="2025"))
        (tmp_path / "spec.json").write_text(json.dumps(spec_dict), encoding="utf-8")
        assert cli.main([
            "synth", "generate", "--system", str(walkthrough_spec.code_system_path),
            "--spec", str(tmp_path / "spec.json"), "--n", "500", "--seed", "3",
            "--out", str(tmp_path / "batch.jsonl"), "--truth", str(tmp_path / "truth.jsonl"),
            "--start", "2026-04-01",
        ]) == 0
        times = read_records(tmp_path / "batch.jsonl").times
        assert times.min() >= np.datetime64("2026-04-01")
        assert times.max() < np.datetime64("2026-07-01")

    def test_dormancy_classify_carries_an_existing_store_forward(self, tmp_path, capsys):
        # DM-OTHER goes dormant in the first batch and is absent from the
        # second; classifying the second into the same store keeps it.
        common = [row(f"C-{i}") for i in range(1000)]
        batches = {"q1.jsonl": common + [row("R-1", code="DM-OTHER")],
                   "q2.jsonl": common}
        for name, batch in batches.items():
            (tmp_path / name).write_text(
                "".join(json.dumps(r) + "\n" for r in batch), encoding="utf-8")
        (tmp_path / "significance.json").write_text('{"DM-OTHER": "rare"}', encoding="utf-8")
        (tmp_path / "conditions.json").write_text(
            '{"DM-OTHER": [{"kind": "prevalence_exceeds", "threshold": 0.005}]}',
            encoding="utf-8")
        store = tmp_path / "store.json"
        for name in batches:
            assert cli.main([
                "dormancy", "classify", "--records", str(tmp_path / name),
                "--significance", str(tmp_path / "significance.json"),
                "--conditions", str(tmp_path / "conditions.json"), "--store", str(store),
            ]) == 0
        capsys.readouterr()
        entries = json.loads(store.read_text(encoding="utf-8"))
        assert [(e["code"], e["count"]) for e in entries] == [("DM-OTHER", 1)]

    def test_breaker_check_subcommand(self, tmp_path, capsys, walkthrough_spec):
        spec_dict = synthgen.spec_to_dict(synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 1.0),), current_version="2025",
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
