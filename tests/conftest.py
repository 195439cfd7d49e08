"""Shared fixtures: bundled walkthrough artifacts and small hand-built systems."""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from datetime import date, datetime
from pathlib import Path

import pytest

from ontoguard import checkpoint, dual_ontology, harness, model, synthgen, version_gate
from ontoguard.model import (
    Layer,
    CodeSystem,
    RecordBatch,
    from_json,
    jsonl_dumps,
    load_code_system,
    load_config,
    profile_batch,
    read_records,
    to_json,
    write_records,
)

SEED = 42


@pytest.fixture(scope="session")
def walkthrough_spec():
    return harness.load_scenario("diabetes-walkthrough")


@pytest.fixture(scope="session")
def bundled_system(walkthrough_spec):
    return load_code_system(walkthrough_spec.code_system_path)


@pytest.fixture(scope="session")
def bundled_cfg(walkthrough_spec):
    return load_config(walkthrough_spec.config_path)


@pytest.fixture(scope="session")
def scenario_run(walkthrough_spec, tmp_path_factory):
    """One full walkthrough run at the acceptance seed, with wall time."""
    out_dir = tmp_path_factory.mktemp("walkthrough")
    t0 = time.monotonic()
    report = harness.run_scenario(walkthrough_spec, SEED, out_dir)
    elapsed = time.monotonic() - t0
    return {"report": report, "out_dir": out_dir, "elapsed": elapsed}


def _quarter_products(walkthrough_spec, system, cfg, quarter: int):
    history, _ = synthgen.generate_batch(
        system,
        walkthrough_spec.distortion.without_onset_distortions(),
        walkthrough_spec.n_per_quarter,
        seed=[SEED, 10_007],
        window=synthgen.quarter_window(walkthrough_spec.start, -1),
        id_prefix="H",
    )
    ref = checkpoint.build_reference_model(history, system)
    batch, truth = synthgen.generate_batch(
        system,
        walkthrough_spec.distortion,
        walkthrough_spec.n_per_quarter,
        seed=[SEED, quarter - 1],
        window=synthgen.quarter_window(walkthrough_spec.start, quarter - 1),
        id_prefix=f"Q{quarter}",
        quarter_index=quarter - 1,
    )
    outcome = version_gate.gate_batch(batch, system, walkthrough_spec.target_version)
    annotated = checkpoint.annotate_batch(outcome.processed_records(), ref, cfg)
    inferred = dual_ontology.infer_clinical_layer(annotated, ref, cfg)
    return {
        "history": history,
        "ref": ref,
        "batch": batch,
        "truth": truth_by_id(batch, truth),
        "outcome": outcome,
        "annotated": annotated,
        "inferred": inferred,
    }


@pytest.fixture(scope="session")
def q1_products(walkthrough_spec, bundled_system, bundled_cfg):
    """Quarter-1 pipeline products at the acceptance seed (the ingestion batch)."""
    return _quarter_products(walkthrough_spec, bundled_system, bundled_cfg, 1)


@pytest.fixture(scope="session")
def q3_products(walkthrough_spec, bundled_system, bundled_cfg):
    """Quarter-3 products: the fully distorted batch (billing recoding active)."""
    return _quarter_products(walkthrough_spec, bundled_system, bundled_cfg, 3)


@pytest.fixture(scope="session")
def seeded_batch(walkthrough_spec, bundled_system):
    """A gated 2,000-record batch with every quarter-3 distortion switched on."""
    batch, _ = synthgen.generate_batch(
        bundled_system,
        walkthrough_spec.distortion,
        2000,
        seed=[SEED, 2000],
        window=synthgen.quarter_window(walkthrough_spec.start, 2),
        quarter_index=2,
    )
    outcome = version_gate.gate_batch(batch, bundled_system, walkthrough_spec.target_version)
    return outcome.processed_records()


def row(
    record_id: str = "R-000000",
    age_band: str = "50-59",
    sex: str = "female",
    institution: str = "INST-01",
    when: datetime | None = None,
    code: str = "DM2-UNSPEC",
    co_codes=(),
    version: str = "2025",
    influence_tag: dict | None = None,
    fidelity: dict | None = None,
    clinical_code: str | None = None,
) -> dict:
    """The JSON object of one records-file line."""
    return to_json({
        "record_id": record_id, "patient_age_band": age_band, "patient_sex": sex,
        "institution_id": institution, "encounter_time": when or datetime(2025, 2, 15, 12, 0, 0),
        "primary_code": code, "co_codes": frozenset(co_codes), "version_tag": version,
        "influence_tag": influence_tag, "fidelity": fidelity, "clinical_code": clinical_code,
    })


def tag(model_version: str, model_confidence, clinician_modified: bool) -> dict:
    """The JSON object of a line's influence tag."""
    return {"model_version": model_version, "model_confidence": model_confidence,
            "clinician_modified": clinician_modified}


def annotation(score, prevalence, cooccurrence, institutional, rationale: str) -> dict:
    """The JSON object of a line's fidelity annotation."""
    return {"score": score, "prevalence_subscore": prevalence,
            "cooccurrence_subscore": cooccurrence, "institutional_subscore": institutional,
            "rationale": rationale}


def admin(batch):
    """The administrative-layer profile of ``batch``, a batch or a list of rows."""
    if not isinstance(batch, RecordBatch):
        batch = read_rows(batch)
    return profile_batch(batch, Layer.ADMINISTRATIVE)


def tiny_system(
    *,
    versions=None,
    codes=None,
    transitions=None,
    base_prevalence=None,
    cooccurrence=None,
    demographics=None,
):
    """Small code system for hand-built cases."""
    if versions is None:
        versions = [
            {"label": "v1", "release_date": "2024-01-01", "validated": True},
            {"label": "v2", "release_date": "2025-01-01", "validated": True},
        ]
    if codes is None:
        base = [
            {"code": "AAA", "clinical_group": "g1", "billing_category": "b1",
             "description": "code a"},
            {"code": "BBB", "clinical_group": "g1", "billing_category": "b2",
             "description": "code b"},
            {"code": "CCC", "clinical_group": "g2", "billing_category": "b2",
             "description": "code c"},
        ]
        codes = {v["label"]: base for v in versions}
    data = {
        "system_id": "TINY",
        "versions": versions,
        "codes": codes,
        "transitions": transitions or [],
    }
    if base_prevalence is not None:
        data["base_prevalence"] = base_prevalence
    if cooccurrence is not None:
        data["cooccurrence_profiles"] = cooccurrence
    if demographics is not None:
        data["demographic_profiles"] = demographics
    return from_json(CodeSystem, data)


def truth_by_id(batch: RecordBatch, truth: synthgen.GroundTruth) -> dict:
    """Each record id of ``batch`` mapped to its entry in ``truth``, the
    batch's ground truth."""
    return dict(zip(batch.record_id.tolist(), (truth.entries[i] for i in truth.index.tolist()),
                    strict=True))


def read_rows(values) -> RecordBatch:
    """The batch ``read_records`` reads from a records file, ``records.jsonl``,
    that holds each of the JSON values ``values`` as one line. Lines are
    written by ``jsonl_dumps``, as ``write_records`` writes them, so a batch
    of valid records takes the canonical reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text("".join(jsonl_dumps(value) + "\n" for value in values), encoding="utf-8")
        return read_records(path)


def tables(batch: RecordBatch) -> dict:
    """The tables of ``batch`` as JSON values: its codes, institutions,
    versions and co-code sets, and each annotation entry as its line's
    ``fidelity`` object."""
    return to_json({
        **{name: getattr(batch, name) for name in ("codes", "institutions", "versions", "co_sets")},
        "annotations": [model._annotation_json(values, note)
                        for values, note in zip(batch.annotations.tolist(), batch.notes)]})


def run_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*") if path.is_file()
    }


def rows(batch: RecordBatch) -> list[dict]:
    """Each row of ``batch`` as the JSON object of its line in the records
    file that ``write_records`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        write_records(path, batch)
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]
