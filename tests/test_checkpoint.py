"""Fidelity annotation: reference model, subscores, reports."""

import csv
import json
import statistics

import pytest

from conftest import annotation, read_rows, row, rows, tiny_system
from ontoguard import checkpoint, model, synthgen
from ontoguard.checkpoint import (
    annotate_batch,
    build_reference_model,
    fidelity_report,
    write_fidelity_report,
)
from ontoguard.model import (
    PipelineConfig,
    ValidationError,
    jsonl_dumps,
    write_records,
)
from ontoguard.synthgen import InstitutionWeight


@pytest.fixture()
def cfg():
    return PipelineConfig(fidelity_weights=(0.3, 0.4, 0.3))


class TestBuildReferenceModel:
    def test_hand_counted_prevalence(self):
        system = tiny_system()
        history = (
            [row(f"R-{i:03d}", code="AAA", version="v2") for i in range(60)]
            + [row(f"S-{i:03d}", code="BBB", version="v2") for i in range(40)]
        )
        ref = build_reference_model(read_rows(history), system)
        # 3-code smoothing support: (60 + 1) / (100 + 3)
        assert ref.expected_prevalence("AAA", "50-59", "female") == pytest.approx(61 / 103)
        assert ref.marginal_prevalence("AAA") == pytest.approx(61 / 103)

    def test_single_record_history(self):
        system = tiny_system()
        ref = build_reference_model(read_rows([row(code="AAA", version="v2")]), system)
        observed = ref.expected_prevalence("AAA", "50-59", "female")
        assert observed == pytest.approx(2 / 4)
        for band in ("0-9", "60-69"):
            assert ref.expected_prevalence("AAA", band, "female") < observed

    @pytest.mark.parametrize("n_v1, n_v2, dominant", [(3, 1, "v1"), (2, 2, "v2")],
                             ids=["most-records", "tie-to-greater-label"])
    def test_smoothing_support_is_the_dominant_versions_code_set(self, n_v1, n_v2, dominant):
        # The two versions' code sets differ, so the support shows which was read.
        system = tiny_system(codes={
            label: [{"code": code, "clinical_group": "g", "billing_category": "b",
                     "description": ""} for code in names]
            for label, names in (("v1", ("OLD", "AAA")), ("v2", ("AAA", "BBB", "NEW")))})
        history = ([row(f"R-{i}", code="AAA", version="v1") for i in range(n_v1)]
                   + [row(f"S-{i}", code="AAA", version="v2") for i in range(n_v2)])
        ref = build_reference_model(read_rows(history), system)
        assert ref.version_label == dominant
        assert ref.code_set == tuple(sorted(system.codes(dominant)))

    def test_empty_history_rejected(self, bundled_system):
        with pytest.raises(ValidationError, match="non-empty"):
            build_reference_model(read_rows([]), bundled_system)

    def test_prevalences_track_generator_base_rates(self, bundled_system, cfg):
        spec = synthgen.DistortionSpec(
            institutions=(InstitutionWeight("INST-A", 0.5), InstitutionWeight("INST-B", 0.5)),
            current_version="2025",
        )
        history, _ = synthgen.generate_batch(bundled_system, spec, 50_000, 9)
        ref = build_reference_model(history, bundled_system)
        for code, base in bundled_system.base_prevalence.items():
            assert abs(ref.marginal_prevalence(code) - base) <= 0.02

    def test_cooccurrence_distributions_normalized(self, q1_products):
        ref = q1_products["ref"]
        for code in ("DM2-UNSPEC", "DM2-HYPER", "RESP-FLU"):
            assert sum(ref.cooccurrence[code].values()) == pytest.approx(1.0, abs=1e-6)


class TestAnnotate:
    def test_inflated_institution_scores_below_half(self, cfg):
        # An institution coding the catch-all at 3x the peer baseline.
        system = tiny_system()
        history = []
        i = 0
        for inst, count in (("P1", 10), ("P2", 10), ("P3", 10), ("HOT", 30)):
            for _ in range(count):
                history.append(row(f"R-{i:04d}", institution=inst,
                                   code="AAA", version="v2"))
                i += 1
            for _ in range(70 - count if inst == "HOT" else 90 - count):
                history.append(row(f"R-{i:04d}", institution=inst,
                                   code="BBB", version="v2"))
                i += 1
        ref = build_reference_model(read_rows(history), system)
        [record] = rows(annotate_batch(
            read_rows([row(institution="HOT", code="AAA", version="v2")]), ref, cfg
        ))
        assert record["fidelity"]["institutional_subscore"] < 0.5

    def test_best_case_record_scores_high(self, cfg):
        # Code concentrated on one stratum, co-codes matching the reference
        # profile, institution at the peer rate.
        system = tiny_system(cooccurrence={"AAA": {"CCC": 1.0}})
        history = []
        for i in range(100):
            inst = f"I{i % 4}"
            history.append(row(
                f"R-{i:04d}", institution=inst, code="AAA",
                co_codes=("CCC",), version="v2",
            ))
        for i in range(1900):
            inst = f"I{i % 4}"
            history.append(row(
                f"S-{i:04d}", age_band="20-29", sex="male", institution=inst,
                code="BBB", version="v2",
            ))
        ref = build_reference_model(read_rows(history), system)
        [record] = rows(annotate_batch(
            read_rows([row(institution="I0", code="AAA", co_codes=("CCC",), version="v2")]),
            ref, cfg,
        ))
        fid = record["fidelity"]
        assert fid["prevalence_subscore"] >= 0.9
        assert fid["cooccurrence_subscore"] >= 0.9
        assert fid["institutional_subscore"] >= 0.9

    def test_unannotated_record_is_named_by_its_plain_id(self):
        batch = read_rows([row("R-1", fidelity=annotation(0.5, 0.5, 0.5, 0.5, "r")), row("R-2")])
        with pytest.raises(ValidationError) as info:
            checkpoint.annotation_scores(batch)
        assert str(info.value) == "record R-2 is not annotated"

    def test_annotation_is_idempotent(self, q1_products, cfg, bundled_cfg):
        record = q1_products["outcome"].accepted.select([0])
        ref = q1_products["ref"]
        once = annotate_batch(record, ref, bundled_cfg)
        twice = annotate_batch(once, ref, bundled_cfg)
        [once_row], [twice_row] = rows(once), rows(twice)
        assert once_row["fidelity"] == twice_row["fidelity"]
        assert once_row["record_id"] == record.record_id[0]

    def test_batch_scores_each_record_as_alone(self, seeded_batch, q1_products, bundled_cfg):
        # Subscores are cached per key within a batch; the result must not
        # depend on which other records share the batch.
        ref = q1_products["ref"]
        together = rows(annotate_batch(seeded_batch, ref, bundled_cfg))
        alone = [rows(annotate_batch(read_rows([record]), ref, bundled_cfg))[0]
                 for record in rows(seeded_batch)]
        assert len(together) == len(seeded_batch) == 2000
        assert together == alone
        assert len({json.dumps(r["fidelity"]) for r in together}) > 1

    def test_writing_a_selection_encodes_only_its_rows_annotations(
            self, seeded_batch, q1_products, bundled_cfg, tmp_path, monkeypatch):
        # A selection shares its parent's table of annotations; writing it
        # costs the rows it holds, not the table.
        annotated = annotate_batch(seeded_batch, q1_products["ref"], bundled_cfg)
        assert len(annotated.annotations) > 1000
        whole, one = tmp_path / "whole.jsonl", tmp_path / "one.jsonl"
        write_records(whole, annotated)
        encoded = []

        def counting_dumps(value):
            encoded.append(value)
            return jsonl_dumps(value)

        monkeypatch.setattr(model, "jsonl_dumps", counting_dumps)
        write_records(one, annotated.select([0]))
        assert sum(type(value) is dict and "rationale" in value for value in encoded) == 1
        assert one.read_bytes() == whole.read_bytes().splitlines(keepends=True)[0]

    def test_catch_all_records_score_lower_on_average(self, q1_products):
        truth = q1_products["truth"]
        scores = {"catch": [], "clean": []}
        for record in rows(q1_products["annotated"]):
            labels = truth[record["record_id"]].distortion_labels
            if "catch_all" in labels:
                scores["catch"].append(record["fidelity"]["score"])
            elif not labels:
                scores["clean"].append(record["fidelity"]["score"])
        assert statistics.mean(scores["catch"]) < statistics.mean(scores["clean"])

    def test_catch_all_records_sit_below_batch_median(self, q1_products):
        batch = rows(q1_products["annotated"])
        truth = q1_products["truth"]
        median = statistics.median(r["fidelity"]["score"] for r in batch)
        catch = [r["fidelity"]["score"] for r in batch
                 if "catch_all" in truth[r["record_id"]].distortion_labels]
        below = sum(1 for s in catch if s < median)
        assert below / len(catch) > 0.9

    def test_non_rejection(self, q1_products, bundled_cfg):
        batch = q1_products["outcome"].processed_records()
        assert len(annotate_batch(batch, q1_products["ref"], bundled_cfg)) == len(batch)

    def test_all_scores_bounded(self, q1_products):
        for record in rows(q1_products["annotated"]):
            fid = record["fidelity"]
            for value in (fid["score"], fid["prevalence_subscore"],
                          fid["cooccurrence_subscore"], fid["institutional_subscore"]):
                assert 0.0 <= value <= 1.0

    def test_score_monotone_in_each_subscore(self):
        # Weighted mean: raising one subscore with the others fixed never
        # lowers the score.
        weights = (0.3, 0.4, 0.3)
        base = (0.2, 0.5, 0.7)
        score = sum(w * s for w, s in zip(weights, base))
        for i in range(3):
            for bump in (0.1, 0.3):
                subs = list(base)
                subs[i] = min(1.0, subs[i] + bump)
                assert sum(w * s for w, s in zip(weights, subs)) >= score


class TestFidelityReport:
    def test_single_institution(self, cfg):
        system = tiny_system()
        history = read_rows([row(f"R-{i:03d}", code="AAA", version="v2") for i in range(30)])
        ref = build_reference_model(history, system)
        batch = annotate_batch(history, ref, cfg)
        report = fidelity_report(batch)
        assert len(report) == 1
        assert 0.0 <= report[0].mean <= 1.0
        assert len(report[0].deciles) == 9

    def test_catch_all_institution_has_lowest_mean(self, q1_products):
        report = fidelity_report(q1_products["annotated"])
        lowest = min(report, key=lambda row: row.mean)
        assert lowest.institution_id == "INST-07"

    def test_empty_batch_gives_empty_report(self):
        assert fidelity_report(read_rows([])) == ()

    def test_unannotated_record_rejected(self):
        with pytest.raises(ValidationError, match="not annotated"):
            fidelity_report(read_rows([row()]))

    def test_csv_fields_are_quoted(self, cfg, tmp_path):
        # Institution ids holding a comma or a quote read back as one field each.
        system = tiny_system()
        institutions = ['I,"X', 'say "hi"', "plain"]
        history = read_rows([row(f"R-{i:03d}", institution=institutions[i % 3],
                                 code="AAA", version="v2") for i in range(30)])
        report = fidelity_report(annotate_batch(
            history, build_reference_model(history, system), cfg))
        path = tmp_path / "fidelity.csv"
        write_fidelity_report(report, path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.readline().startswith("#")
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [12] * 4
        assert sorted(row[0] for row in rows[1:]) == sorted(institutions)

    def test_csv_header_states_ordinal_semantics(self, q1_products, tmp_path):
        report = fidelity_report(q1_products["annotated"].select(slice(100)))
        path = tmp_path / "fidelity.csv"
        write_fidelity_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "ordinal" in lines[0]
        assert lines[1].split(",")[:3] == ["institution", "n", "mean"]
