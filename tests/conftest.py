"""Shared fixtures: bundled walkthrough artifacts and small hand-built systems."""

from __future__ import annotations

import time
from datetime import date, datetime

import pytest

from ontoguard import checkpoint, dual_ontology, harness, synthgen, version_gate
from ontoguard.model import (
    CodedRecord,
    code_system_from_dict,
    load_code_system,
    load_config,
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
    ref = checkpoint.build_reference_model(history, system, walkthrough_spec.target_version)
    batch, truth = synthgen.generate_batch(
        system,
        walkthrough_spec.distortion,
        walkthrough_spec.n_per_quarter,
        seed=[SEED, quarter - 1],
        window=synthgen.quarter_window(walkthrough_spec.start, quarter - 1),
        id_prefix=f"Q{quarter}",
        quarter_index=quarter - 1,
    )
    outcome = version_gate.gate_batch(
        batch, system, walkthrough_spec.target_version, cfg
    )
    annotated = checkpoint.annotate_batch(outcome.processed_records(), ref, cfg)
    inferred = dual_ontology.infer_clinical_layer(annotated, ref, system, cfg)
    return {
        "history": history,
        "ref": ref,
        "batch": batch,
        "truth": truth,
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
def seeded_batch(walkthrough_spec, bundled_system, bundled_cfg):
    """A gated 2,000-record batch with every quarter-3 distortion switched on."""
    batch, _ = synthgen.generate_batch(
        bundled_system,
        walkthrough_spec.distortion,
        2000,
        seed=[SEED, 2000],
        window=synthgen.quarter_window(walkthrough_spec.start, 2),
        quarter_index=2,
    )
    outcome = version_gate.gate_batch(
        batch, bundled_system, walkthrough_spec.target_version, bundled_cfg
    )
    return outcome.processed_records()


def make_record(
    record_id: str = "R-000000",
    age_band: str = "50-59",
    sex: str = "female",
    institution: str = "INST-01",
    when: datetime | None = None,
    code: str = "DM2-UNSPEC",
    co_codes=(),
    version: str = "2025",
    **kwargs,
) -> CodedRecord:
    return CodedRecord(
        record_id=record_id,
        patient_age_band=age_band,
        patient_sex=sex,
        institution_id=institution,
        encounter_time=when or datetime(2025, 2, 15, 12, 0, 0),
        primary_code=code,
        co_codes=frozenset(co_codes),
        version_tag=version,
        **kwargs,
    )


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
    return code_system_from_dict(data)
