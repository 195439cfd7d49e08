"""Dual administrative/clinical layers: inference, overrides, divergence."""

from dataclasses import replace
from datetime import date

import pytest

from conftest import annotation, read_rows, row, rows, tiny_system
from ontoguard import checkpoint, synthgen
from ontoguard.dual_ontology import (
    DivergenceReport,
    apply_clinical_overrides,
    divergence,
    infer_clinical_layer,
    read_overrides,
    write_divergence_csv,
)
from ontoguard.model import PipelineConfig, ValidationError
from ontoguard.synthgen import InstitutionWeight
from recounts import accuracy_recount


def annotated(record, score):
    return {**record, "fidelity": annotation(score, score, score, score, "test")}


def clinical_codes(batch):
    """Each row's clinical code, as its records-file line holds it."""
    return [r["clinical_code"] for r in rows(batch)]


class TestInference:
    def test_high_fidelity_copies_primary(self, q1_products, bundled_cfg):
        record = annotated(row(code="HTN-ESS"), 0.95)
        out = infer_clinical_layer(read_rows([record]), q1_products["ref"], bundled_cfg)
        assert clinical_codes(out) == ["HTN-ESS"]

    def test_low_fidelity_catch_all_recovers_subtype(
        self, q1_products, bundled_cfg
    ):
        # Catch-all coded record whose co-codes carry the hyperglycaemia
        # markers: the clinical layer lands on the specific subtype.
        record = annotated(
            row(code="DM2-UNSPEC",
                        co_codes=("LAB-HBA1C-HI", "LAB-GLU-HI", "RX-INSULIN")),
            0.3,
        )
        out = infer_clinical_layer(read_rows([record]), q1_products["ref"], bundled_cfg)
        assert clinical_codes(out) == ["DM2-HYPER"]

    def test_no_co_codes_keeps_primary(self, q1_products, bundled_cfg):
        record = annotated(row(code="DM2-UNSPEC", co_codes=()), 0.1)
        out = infer_clinical_layer(read_rows([record]), q1_products["ref"], bundled_cfg)
        assert clinical_codes(out) == ["DM2-UNSPEC"]

    def test_batch_infers_each_record_as_alone(
        self, seeded_batch, q1_products, bundled_cfg
    ):
        # The likelihood winner is cached per co-code set within a batch.
        ref = q1_products["ref"]
        batch = checkpoint.annotate_batch(seeded_batch, ref, bundled_cfg)
        together = infer_clinical_layer(batch, ref, bundled_cfg)
        alone = [
            rows(infer_clinical_layer(read_rows([record]), ref, bundled_cfg))[0]
            for record in rows(batch)
        ]
        assert rows(together) == alone
        assert any(r["clinical_code"] != r["primary_code"] for r in alone)

    def test_no_candidate_codes_keeps_primary(
        self, seeded_batch, q1_products, bundled_cfg
    ):
        ref = replace(q1_products["ref"], candidate_codes=())
        batch = checkpoint.annotate_batch(seeded_batch, ref, bundled_cfg)
        low = [r for r in rows(batch)
               if r["fidelity"]["score"] < bundled_cfg.inference_fidelity_cutoff and r["co_codes"]]
        assert low
        out = infer_clinical_layer(batch, ref, bundled_cfg)
        assert clinical_codes(out) == [r["primary_code"] for r in rows(batch)]

    def test_tie_goes_to_the_smallest_candidate_code(self, q1_products, bundled_cfg):
        # Co-codes outside the reference code set add nothing to any
        # candidate's likelihood, so every candidate ties at 0.0.
        ref = q1_products["ref"]
        outside = ("NOT-A-CODE-1", "NOT-A-CODE-2")
        assert not set(outside) & set(ref.code_set) and len(ref.candidate_codes) > 1
        smallest = min(ref.candidate_codes)
        record = annotated(row(code=max(ref.candidate_codes), co_codes=outside), 0.1)
        out = infer_clinical_layer(read_rows([record]), ref, bundled_cfg)
        assert clinical_codes(out) == [smallest]

    def test_unannotated_record_rejected(self, q1_products, bundled_cfg):
        with pytest.raises(ValidationError, match="not annotated"):
            infer_clinical_layer(
                read_rows([row()]), q1_products["ref"], bundled_cfg
            )

    def test_clinical_layer_beats_administrative_accuracy(self, q3_products):
        truth = q3_products["truth"]
        inferred = rows(q3_products["inferred"])
        admin = accuracy_recount(
            [(r["primary_code"], truth[r["record_id"]].true_clinical_code) for r in inferred]
        )
        clinical = accuracy_recount(
            [(r["clinical_code"], truth[r["record_id"]].true_clinical_code) for r in inferred]
        )
        assert clinical > admin

    def test_overrides_win_over_inference(self, q1_products, bundled_cfg):
        record = annotated(row(code="HTN-ESS"), 0.95)
        out = infer_clinical_layer(read_rows([record]), q1_products["ref"], bundled_cfg)
        out = apply_clinical_overrides(out, {record["record_id"]: "MH-DEPR"})
        assert clinical_codes(out) == ["MH-DEPR"]

    def test_override_file_round_trip(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text(
            '{"record_id": "R-1", "clinical_code": "DM2-HYPER"}\n', encoding="utf-8"
        )
        assert read_overrides(path) == {"R-1": "DM2-HYPER"}

    @pytest.mark.parametrize("line, named", [
        ('{"record_id": 5, "clinical_code": "DM2-HYPER"}', "record_id must be a string, got 5"),
        ('{"record_id": "R-1", "clinical_code": "DM2-HYPER", "note": ""}',
         "has unknown keys ['note']"),
        ('{"record_id": "R-1\\u0000", "clinical_code": "DM2-HYPER"}',
         "record id 'R-1\\x00' of 4 characters must have at most 256, none of them U+0000"),
    ], ids=["int-record-id", "unknown-key", "record-id-u0000"])
    def test_override_fault_names_line_key_and_value(self, tmp_path, line, named):
        path = tmp_path / "overrides.jsonl"
        path.write_text(f'{{"record_id": "R-0", "clinical_code": "X"}}\n{line}\n',
                        encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_overrides(path)
        assert str(info.value) == f"{path}:2: {named}"


class TestDivergence:
    def test_identical_layers_give_zero(self):
        batch = read_rows([
            row(f"R-{i}", clinical_code="DM2-UNSPEC") for i in range(10)
        ])
        report = divergence(batch)
        assert report.disagreement_rate == 0.0
        assert report.n == 10

    def test_fully_rewritten_gives_one(self):
        batch = read_rows([
            row(f"R-{i}", code="DM2-UNSPEC", clinical_code="DM2-HYPER")
            for i in range(10)
        ])
        report = divergence(batch)
        assert report.disagreement_rate == 1.0

    def test_ten_percent_injection_lands_in_band(self, bundled_cfg):
        # One of two equal institutions rewrites siblings into a catch-all
        # with probability 0.4; siblings hold half the mass, so ~10 percent
        # of records are distorted. Inference runs below the clean median.
        system = tiny_system(
            codes={
                label: [
                    {"code": "CA-TARGET", "clinical_group": "g1",
                     "billing_category": "b1", "description": ""},
                    {"code": "CA-SPEC1", "clinical_group": "g1",
                     "billing_category": "b1", "description": ""},
                    {"code": "CA-SPEC2", "clinical_group": "g1",
                     "billing_category": "b1", "description": ""},
                    {"code": "M1", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                    {"code": "M2", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                    {"code": "M3", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                    {"code": "M4", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                    {"code": "M5", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                    {"code": "M6", "clinical_group": "labs",
                     "billing_category": "b2", "description": ""},
                ]
                for label in ("v1", "v2")
            },
            base_prevalence={"CA-TARGET": 0.5, "CA-SPEC1": 0.25, "CA-SPEC2": 0.25},
            cooccurrence={
                "CA-TARGET": {"M1": 0.6, "M2": 0.4},
                "CA-SPEC1": {"M3": 0.6, "M4": 0.4},
                "CA-SPEC2": {"M5": 0.6, "M6": 0.4},
            },
        )
        spec = synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 0.5), InstitutionWeight("I-B", 0.5)),
            current_version="v2",
            catch_all=(synthgen.CatchAllSpec("I-A", "CA-TARGET", 0.4),),
        )
        batch, truth = synthgen.generate_batch(system, spec, 20_000, 5)
        ref = checkpoint.build_reference_model(batch, system)
        cfg = PipelineConfig(inference_fidelity_cutoff=0.8)
        inferred = infer_clinical_layer(checkpoint.annotate_batch(batch, ref, cfg), ref, cfg)
        report = divergence(inferred)
        assert 0.05 <= report.disagreement_rate <= 0.15

    def test_transposing_layers_preserves_rate(self):
        batch = read_rows([
            row("R-1", code="AAA", clinical_code="BBB"),
            row("R-2", code="AAA", clinical_code="AAA"),
            row("R-3", code="BBB", clinical_code="AAA"),
        ])
        swapped = read_rows([
            row(r["record_id"], code=r["clinical_code"], clinical_code=r["primary_code"])
            for r in rows(batch)
        ])
        fwd, rev = divergence(batch), divergence(swapped)
        assert fwd.disagreement_rate == rev.disagreement_rate == 2 / 3

    def test_empty_batch_gives_one_report_of_zero(self):
        # `infer-clinical --divergence-out` on an empty records file writes
        # a population row of n=0 instead of failing on a missing report.
        assert divergence(read_rows([])) == DivergenceReport(disagreement_rate=0.0, n=0)

    def test_unpopulated_record_rejected(self):
        with pytest.raises(ValidationError, match="no clinical layer"):
            divergence(read_rows([row()]))

    def test_unpopulated_record_is_named_by_its_plain_id(self):
        batch = read_rows([row("R-1", clinical_code="DM2-UNSPEC"), row("R-2")])
        with pytest.raises(ValidationError) as info:
            divergence(batch)
        assert str(info.value) == "record R-2 has no clinical layer; run inference first"

    def test_csv_export(self, tmp_path):
        batch = read_rows([row("R-1", clinical_code="DM2-UNSPEC")])
        path = tmp_path / "divergence.csv"
        write_divergence_csv(divergence(batch), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scope,scope_key,n,disagreement_rate"
        assert lines[1] == "population,all,1,0.000000"
