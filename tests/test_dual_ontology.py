"""Dual administrative/clinical layers: inference, overrides, divergence."""

from dataclasses import replace
from datetime import date

import pytest

from conftest import make_record, tiny_system
from ontoguard import checkpoint, synthgen
from ontoguard.dual_ontology import (
    DivergenceScope,
    apply_clinical_overrides,
    divergence,
    infer_clinical_layer,
    read_overrides,
    write_divergence_csv,
)
from ontoguard.model import FidelityAnnotation, PipelineConfig, ValidationError
from ontoguard.oracles import accuracy_recount


def annotated(record, score):
    return record.__class__(**{
        **record.__dict__,
        "fidelity": FidelityAnnotation(score, score, score, score, "test"),
    })


class TestInference:
    def test_high_fidelity_copies_primary(self, q1_products, bundled_system, bundled_cfg):
        record = annotated(make_record(code="HTN-ESS"), 0.95)
        out = infer_clinical_layer([record], q1_products["ref"], bundled_system, bundled_cfg)
        assert out[0].clinical_code == "HTN-ESS"

    def test_low_fidelity_catch_all_recovers_subtype(
        self, q1_products, bundled_system, bundled_cfg
    ):
        # Catch-all coded record whose co-codes carry the hyperglycaemia
        # markers: the clinical layer lands on the specific subtype.
        record = annotated(
            make_record(code="DM2-UNSPEC",
                        co_codes=("LAB-HBA1C-HI", "LAB-GLU-HI", "RX-INSULIN")),
            0.3,
        )
        out = infer_clinical_layer([record], q1_products["ref"], bundled_system, bundled_cfg)
        assert out[0].clinical_code == "DM2-HYPER"

    def test_no_co_codes_keeps_primary(self, q1_products, bundled_system, bundled_cfg):
        record = annotated(make_record(code="DM2-UNSPEC", co_codes=()), 0.1)
        out = infer_clinical_layer([record], q1_products["ref"], bundled_system, bundled_cfg)
        assert out[0].clinical_code == "DM2-UNSPEC"

    def test_batch_infers_each_record_as_alone(
        self, seeded_batch, q1_products, bundled_system, bundled_cfg
    ):
        # The likelihood winner is cached per co-code set within a batch.
        ref = q1_products["ref"]
        batch = checkpoint.annotate_batch(seeded_batch, ref, bundled_cfg)
        together = infer_clinical_layer(batch, ref, bundled_system, bundled_cfg)
        alone = [
            infer_clinical_layer([record], ref, bundled_system, bundled_cfg)[0]
            for record in batch
        ]
        assert together == alone
        assert any(r.clinical_code != r.primary_code for r in together)

    def test_no_candidate_codes_keeps_primary(
        self, seeded_batch, q1_products, bundled_system, bundled_cfg
    ):
        ref = replace(q1_products["ref"], candidate_codes=())
        batch = checkpoint.annotate_batch(seeded_batch, ref, bundled_cfg)
        low = [r for r in batch
               if r.fidelity.score < bundled_cfg.inference_fidelity_cutoff and r.co_codes]
        assert low
        out = infer_clinical_layer(batch, ref, bundled_system, bundled_cfg)
        assert [r.clinical_code for r in out] == [r.primary_code for r in batch]

    def test_unannotated_record_rejected(self, q1_products, bundled_system, bundled_cfg):
        with pytest.raises(ValidationError, match="not annotated"):
            infer_clinical_layer(
                [make_record()], q1_products["ref"], bundled_system, bundled_cfg
            )

    def test_clinical_layer_beats_administrative_accuracy(self, q3_products):
        truth = q3_products["truth"]
        inferred = q3_products["inferred"]
        admin = accuracy_recount(
            [(r.primary_code, truth[r.record_id].true_clinical_code) for r in inferred]
        )
        clinical = accuracy_recount(
            [(r.clinical_code, truth[r.record_id].true_clinical_code) for r in inferred]
        )
        assert clinical > admin

    def test_overrides_win_over_inference(self, q1_products, bundled_system, bundled_cfg):
        record = annotated(make_record(code="HTN-ESS"), 0.95)
        out = infer_clinical_layer([record], q1_products["ref"], bundled_system, bundled_cfg)
        out = apply_clinical_overrides(out, {record.record_id: "MH-DEPR"})
        assert out[0].clinical_code == "MH-DEPR"

    def test_override_file_round_trip(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text(
            '{"record_id": "R-1", "clinical_code": "DM2-HYPER"}\n', encoding="utf-8"
        )
        assert read_overrides(path) == {"R-1": "DM2-HYPER"}


class TestDivergence:
    def test_identical_layers_give_zero(self):
        batch = [
            make_record(f"R-{i}", clinical_code="DM2-UNSPEC") for i in range(10)
        ]
        report = divergence(batch, DivergenceScope.POPULATION)[0]
        assert report.disagreement_rate == 0.0
        assert report.n == 10

    def test_fully_rewritten_gives_one(self):
        batch = [
            make_record(f"R-{i}", code="DM2-UNSPEC", clinical_code="DM2-HYPER")
            for i in range(10)
        ]
        report = divergence(batch, DivergenceScope.POPULATION)[0]
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
            institutions=(("I-A", 0.5), ("I-B", 0.5)),
            current_version="v2",
            catch_all=(synthgen.CatchAllSpec("I-A", "CA-TARGET", 0.4),),
        )
        batch, truth = synthgen.generate_batch(system, spec, 20_000, 5)
        ref = checkpoint.build_reference_model(batch, system, "v2")
        cfg = PipelineConfig(inference_fidelity_cutoff=0.8)
        inferred = infer_clinical_layer(
            checkpoint.annotate_batch(batch, ref, cfg), ref, system, cfg
        )
        report = divergence(inferred, DivergenceScope.POPULATION)[0]
        assert 0.05 <= report.disagreement_rate <= 0.15

    def test_transposing_layers_preserves_rate_and_transposes_confusion(self):
        batch = [
            make_record("R-1", code="AAA", clinical_code="BBB"),
            make_record("R-2", code="AAA", clinical_code="AAA"),
            make_record("R-3", code="BBB", clinical_code="AAA"),
        ]
        swapped = [
            make_record(r.record_id, code=r.clinical_code, clinical_code=r.primary_code)
            for r in batch
        ]
        fwd = divergence(batch, DivergenceScope.POPULATION)[0]
        rev = divergence(swapped, DivergenceScope.POPULATION)[0]
        assert fwd.disagreement_rate == rev.disagreement_rate
        assert {(b, a): n for (a, b), n in fwd.per_code_confusion.items()} \
            == dict(rev.per_code_confusion)

    def test_confusion_counts_sum_to_n(self, q1_products):
        report = divergence(
            q1_products["inferred"][:5000], DivergenceScope.POPULATION
        )[0]
        assert sum(report.per_code_confusion.values()) == report.n

    def test_institution_scope_groups_rows(self):
        batch = [
            make_record("R-1", institution="A", clinical_code="DM2-UNSPEC"),
            make_record("R-2", institution="B", clinical_code="DM2-HYPER"),
        ]
        reports = divergence(batch, DivergenceScope.INSTITUTION)
        assert [r.scope_key for r in reports] == ["A", "B"]
        assert reports[1].disagreement_rate == 1.0

    def test_record_scope_yields_one_row_per_record(self):
        batch = [
            make_record("R-1", clinical_code="DM2-UNSPEC"),
            make_record("R-2", code="DM2-UNSPEC", clinical_code="DM2-HYPER"),
        ]
        reports = divergence(batch, DivergenceScope.RECORD)
        assert [r.scope_key for r in reports] == ["R-1", "R-2"]
        assert [r.disagreement_rate for r in reports] == [0.0, 1.0]

    def test_unpopulated_record_rejected(self):
        with pytest.raises(ValidationError, match="no clinical layer"):
            divergence([make_record()], DivergenceScope.POPULATION)

    def test_csv_export(self, tmp_path):
        batch = [make_record("R-1", clinical_code="DM2-UNSPEC")]
        path = tmp_path / "divergence.csv"
        write_divergence_csv(divergence(batch, DivergenceScope.POPULATION), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scope,scope_key,n,disagreement_rate"
        assert lines[1] == "population,all,1,0.000000"
