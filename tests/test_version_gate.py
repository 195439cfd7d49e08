"""Version gate: partition semantics, reconciliation, migration validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annotation, read_rows, row, rows, tag, tiny_system
from ontoguard.model import ValidationError
from ontoguard.oracles import partition_oracle
from ontoguard.version_gate import (
    MigrationVerdict,
    QuarantineReason,
    changed_codes,
    gate_batch,
    read_quarantine,
    validate_migration,
    write_quarantine,
)


def migration_system():
    """Three versions: v0 unvalidated, v1 -> v2 table with a rename, an
    unmappable code, and an ambiguous one-to-many mapping."""
    codes_v0 = [
        {"code": "OLD", "clinical_group": "g", "billing_category": "b",
         "description": ""},
    ]
    shared = [
        {"code": c, "clinical_group": "g", "billing_category": "b", "description": ""}
        for c in ("KEEP", "RENAME-1", "GONE", "SPLIT")
    ]
    codes_v2 = [
        {"code": c, "clinical_group": "g", "billing_category": "b", "description": ""}
        for c in ("KEEP", "RENAME-2", "SPLIT-A", "SPLIT-B")
    ]
    return tiny_system(
        versions=[
            {"label": "v0", "release_date": "2023-01-01", "validated": False},
            {"label": "v1", "release_date": "2024-01-01", "validated": True},
            {"label": "v2", "release_date": "2025-01-01", "validated": True},
        ],
        codes={"v0": codes_v0, "v1": shared, "v2": codes_v2},
        transitions=[{
            "from": "v1", "to": "v2",
            "mappings": [
                {"from_code": "KEEP", "to_code": "KEEP"},
                {"from_code": "RENAME-1", "to_code": "RENAME-2"},
                {"from_code": "SPLIT", "to_code": "SPLIT-A"},
                {"from_code": "SPLIT", "to_code": "SPLIT-B"},
            ],
            "unmappable": ["GONE"],
        }],
    )


def mixed_batch():
    """Accepted and reconciled rows among one row of each quarantine reason."""
    return [
        row("A-1", code="KEEP", version="v2"),
        row(
            "R-7", code="GONE", version="v1", co_codes=("ZZ", "AA"),
            influence_tag=tag("m1", 0.8, True),
            fidelity=annotation(0.25, 0.5, 0.125, 0.0, "low \u00e9"),
            clinical_code="GONE",
        ),
        row("C-1", code="RENAME-1", version="v1"),
        row("Q-2", code="OLD", version="v0", institution="INST-02"),
        row("Q-3", code="BOGUS", version="v2", sex="male"),
        row("C-2", code="KEEP", version="v1"),
        row("Q-4", code="SPLIT", version="v1", co_codes=("AA",)),
    ]


class TestGateBatch:
    def test_walkthrough_counts(self, q1_products):
        outcome = q1_products["outcome"]
        assert len(outcome.accepted) == 46_800
        assert len(outcome.reconciled) == 3_200
        assert len(outcome.quarantined) == 0

    def test_batch_already_on_target_is_identity(self):
        system = migration_system()
        batch = [row(f"R-{i}", code="KEEP", version="v2") for i in range(5)]
        outcome = gate_batch(read_rows(batch), system, "v2")
        assert rows(outcome.accepted) == batch
        assert len(outcome.reconciled) == 0
        assert len(outcome.quarantined) == 0

    def test_unmappable_code_quarantined(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="GONE", version="v1")]), system, "v2"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNMAPPABLE_CODE

    def test_one_to_many_treated_as_unmappable(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="SPLIT", version="v1")]), system, "v2"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNMAPPABLE_CODE

    def test_rename_reconciled_with_audit_fields(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="RENAME-1", version="v1")]), system, "v2"
        )
        [item] = rows(outcome.reconciled)
        assert item["primary_code"] == "RENAME-2"
        assert item["version_tag"] == "v2"
        [original] = rows(outcome.batch)
        assert original["primary_code"] == "RENAME-1"
        assert original["version_tag"] == "v1"

    def test_unknown_code_quarantined(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="BOGUS", version="v1")]), system, "v2"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNKNOWN_CODE

    def test_unvalidated_source_version_quarantined(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="OLD", version="v0")]), system, "v2"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNVALIDATED_VERSION

    def test_unknown_source_version_quarantined(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="KEEP", version="v99")]), system, "v2"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNVALIDATED_VERSION

    def test_newer_than_target_quarantined(self):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="KEEP", version="v2")]), system, "v1"
        )
        assert outcome.quarantine_reasons()[0] is QuarantineReason.UNMAPPABLE_CODE

    def test_unknown_target_refused(self):
        with pytest.raises(ValidationError, match="unknown version"):
            gate_batch(read_rows([]), migration_system(), "v9")

    def test_unvalidated_target_refused(self):
        with pytest.raises(ValidationError, match="migration validation"):
            gate_batch(read_rows([]), migration_system(), "v0")

    def test_partition_on_randomized_batches(self):
        system = migration_system()
        rng = np.random.default_rng(17)
        codes = ["KEEP", "RENAME-1", "GONE", "SPLIT", "OLD", "BOGUS"]
        versions = ["v0", "v1", "v2", "v99"]
        for trial in range(50):
            batch = [
                row(
                    f"T{trial}-{i}",
                    code=codes[rng.integers(len(codes))],
                    version=versions[rng.integers(len(versions))],
                )
                for i in range(int(rng.integers(1, 40)))
            ]
            outcome = gate_batch(read_rows(batch), system, "v2")
            assert partition_oracle(
                [r["record_id"] for r in batch],
                outcome.accepted.record_id.tolist(),
                outcome.reconciled.record_id.tolist(),
                outcome.quarantined.record_id.tolist(),
            )
            assert outcome.processed_records().record_id.tolist() == sorted(
                outcome.accepted.record_id.tolist() + outcome.reconciled.record_id.tolist()
            )

    def test_quarantine_file_round_trip(self, tmp_path):
        system = migration_system()
        outcome = gate_batch(
            read_rows([row(code="GONE", version="v1")]), system, "v2"
        )
        path = tmp_path / "quarantine.jsonl"
        write_quarantine(path, outcome)
        rows = read_quarantine(path)
        assert rows[0]["reason"] == "unmappable_code"
        assert rows[0]["original_code"] == "GONE"
        assert rows[0]["original_version"] == "v1"

    def test_mixed_batch_buckets(self):
        outcome = gate_batch(read_rows(mixed_batch()), migration_system(), "v2")
        assert outcome.accepted.record_id.tolist() == ["A-1"]
        assert [(r["record_id"], r["primary_code"], r["version_tag"])
                for r in rows(outcome.reconciled)] == [
            ("C-1", "RENAME-2", "v2"), ("C-2", "KEEP", "v2"),
        ]
        # Quarantined rows are the records as they arrived, each with its reason.
        assert [(r["record_id"], r["primary_code"], r["version_tag"])
                for r in rows(outcome.quarantined)] == [
            ("R-7", "GONE", "v1"), ("Q-2", "OLD", "v0"), ("Q-3", "BOGUS", "v2"),
            ("Q-4", "SPLIT", "v1"),
        ]
        assert outcome.quarantine_reasons() == [
            QuarantineReason.UNMAPPABLE_CODE, QuarantineReason.UNVALIDATED_VERSION,
            QuarantineReason.UNKNOWN_CODE, QuarantineReason.UNMAPPABLE_CODE,
        ]
        assert outcome.total() == 7

    def test_quarantine_line_text(self, tmp_path):
        outcome = gate_batch(read_rows(mixed_batch()), migration_system(), "v2")
        path = tmp_path / "quarantine.jsonl"
        write_quarantine(path, outcome)
        assert path.read_text(encoding="utf-8") == (
            '{"original_code":"GONE","original_version":"v1","reason":"unmappable_code",'
            '"record":{"clinical_code":"GONE","co_codes":["AA","ZZ"],'
            '"encounter_time":"2025-02-15T12:00:00","fidelity":{"cooccurrence_subscore":0.125,'
            '"institutional_subscore":0.0,"prevalence_subscore":0.5,"rationale":"low \u00e9",'
            '"score":0.25},"influence_tag":{"clinician_modified":true,"model_confidence":0.8,'
            '"model_version":"m1"},"institution_id":"INST-01","patient_age_band":"50-59",'
            '"patient_sex":"female","primary_code":"GONE","record_id":"R-7","version_tag":"v1"}}\n'
            '{"original_code":"OLD","original_version":"v0","reason":"unvalidated_version",'
            '"record":{"clinical_code":null,"co_codes":[],"encounter_time":"2025-02-15T12:00:00",'
            '"fidelity":null,"influence_tag":null,"institution_id":"INST-02",'
            '"patient_age_band":"50-59","patient_sex":"female","primary_code":"OLD",'
            '"record_id":"Q-2","version_tag":"v0"}}\n'
            '{"original_code":"BOGUS","original_version":"v2","reason":"unknown_code",'
            '"record":{"clinical_code":null,"co_codes":[],"encounter_time":"2025-02-15T12:00:00",'
            '"fidelity":null,"influence_tag":null,"institution_id":"INST-01",'
            '"patient_age_band":"50-59","patient_sex":"male","primary_code":"BOGUS",'
            '"record_id":"Q-3","version_tag":"v2"}}\n'
            '{"original_code":"SPLIT","original_version":"v1","reason":"unmappable_code",'
            '"record":{"clinical_code":null,"co_codes":["AA"],'
            '"encounter_time":"2025-02-15T12:00:00","fidelity":null,"influence_tag":null,'
            '"institution_id":"INST-01","patient_age_band":"50-59","patient_sex":"female",'
            '"primary_code":"SPLIT","record_id":"Q-4","version_tag":"v1"}}\n'
        )


class TestValidateMigration:
    def test_full_coverage_validated(self):
        report = validate_migration(
            migration_system(), "v1", "v2", {"KEEP", "RENAME-1"}
        )
        assert report.mapping_coverage == 1.0
        assert report.verdict is MigrationVerdict.VALIDATED
        assert report.changed_codes == ("RENAME-1",)

    def test_partial_coverage_blocked(self):
        # 38 of 40 observed codes covered -> coverage 0.95, blocked.
        codes = [
            {"code": f"C{i:02d}", "clinical_group": "g", "billing_category": "b",
             "description": ""}
            for i in range(40)
        ]
        system = tiny_system(
            versions=[
                {"label": "v1", "release_date": "2024-01-01", "validated": True},
                {"label": "v2", "release_date": "2025-01-01", "validated": True},
            ],
            codes={"v1": codes, "v2": codes},
            transitions=[{
                "from": "v1", "to": "v2",
                "mappings": [
                    {"from_code": f"C{i:02d}", "to_code": f"C{i:02d}"}
                    for i in range(38)
                ],
                "unmappable": [],
            }],
        )
        report = validate_migration(
            system, "v1", "v2", {f"C{i:02d}" for i in range(40)}
        )
        assert report.mapping_coverage == pytest.approx(0.95)
        assert report.verdict is MigrationVerdict.BLOCKED
        assert set(report.unmappable_codes) == {"C38", "C39"}

    def test_missing_table_blocked_with_zero_coverage(self):
        system = tiny_system(transitions=[])
        report = validate_migration(system, "v1", "v2", {"AAA"})
        assert report.mapping_coverage == 0.0
        assert report.verdict is MigrationVerdict.BLOCKED

    def test_unknown_version_rejected(self):
        with pytest.raises(ValidationError, match="unknown version"):
            validate_migration(migration_system(), "v1", "v9", set())

    def test_version_newer_than_target_blocked_with_zero_coverage(self):
        # No reverse tables exist, so the gate quarantines every v2 record
        # gated to v1; the report gives the coverage the gate enforces.
        report = validate_migration(migration_system(), "v2", "v1", {"KEEP", "RENAME-2"})
        assert report.mapping_coverage == 0.0
        assert report.verdict is MigrationVerdict.BLOCKED
        assert report.unmappable_codes == ("KEEP", "RENAME-2")
        assert report.changed_codes == ()


def chain_system():
    """Five versions, oldest first: ``m`` (validated, but the ``m -> u``
    table is missing), ``u`` (unvalidated), ``a`` (its table to the target
    maps, renames, lists ``GONE`` unmappable, splits ``SPLIT`` and leaves
    ``LOST`` out), the target ``t``, and ``n``, newer than the target."""
    def defs(*codes):
        return [{"code": c, "clinical_group": "g", "billing_category": "b", "description": ""}
                for c in codes]

    def table(source, target, *pairs, unmappable=()):
        return {"from": source, "to": target, "unmappable": list(unmappable),
                "mappings": [{"from_code": f, "to_code": t} for f, t in pairs]}

    return tiny_system(
        versions=[{"label": label, "release_date": f"202{i}-01-01", "validated": label != "u"}
                  for i, label in enumerate("muatn")],
        codes={"m": defs("KEEP", "OLD"), "u": defs("KEEP", "OLD"),
               "a": defs("KEEP", "OLD", "GONE", "SPLIT", "LOST"),
               "t": defs("KEEP", "NEW", "SPLIT-A", "SPLIT-B"), "n": defs("KEEP", "NEW")},
        transitions=[
            table("u", "a", ("KEEP", "KEEP"), ("OLD", "OLD")),
            table("a", "t", ("KEEP", "KEEP"), ("OLD", "NEW"), ("SPLIT", "SPLIT-A"),
                  ("SPLIT", "SPLIT-B"), unmappable=["GONE"]),
            table("t", "n", ("KEEP", "KEEP"), ("NEW", "NEW")),
        ],
    )


@given(st.lists(st.tuples(st.sampled_from(["KEEP", "OLD", "GONE", "SPLIT", "LOST", "NEW", "ZZZ"]),
                          st.sampled_from("muatn")), max_size=40))
@settings(max_examples=150, deadline=None)
def test_migration_report_is_the_gates_verdict(entries):
    # One rule: a migration report's uncovered codes are the codes the gate
    # quarantines, and its changed codes those the gate reconciles to
    # another code, version by version.
    system = chain_system()
    outcome = gate_batch(
        read_rows([row(f"R-{i}", code=code, version=version)
                   for i, (code, version) in enumerate(entries)]), system, "t")
    arrived = {r["record_id"]: (r["primary_code"], r["version_tag"]) for r in rows(outcome.batch)}
    quarantined = {(r["primary_code"], r["version_tag"]) for r in rows(outcome.quarantined)}
    changed = {arrived[r["record_id"]] for r in rows(outcome.reconciled)
               if r["primary_code"] != arrived[r["record_id"]][0]}
    for version in {version for _, version in entries} - {"t"}:
        report = validate_migration(system, version, "t",
                                    [code for code, v in entries if v == version])
        assert report.unmappable_codes == tuple(sorted(c for c, v in quarantined if v == version))
        assert report.changed_codes == tuple(sorted(c for c, v in changed if v == version))


def test_changed_codes_cover_renames_splits_unmappables():
    touched = changed_codes(migration_system(), "v1", "v2")
    assert touched == {"RENAME-1", "RENAME-2", "GONE", "SPLIT", "SPLIT-A", "SPLIT-B"}
