"""Dormancy: classification, persisted store, activation triggers."""

import copy
import csv
from datetime import date, datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import admin, read_rows, row, rows
from ontoguard import synthgen
from ontoguard.dormancy import (
    ActivationCondition,
    ActivationKind,
    DormantEntry,
    DormantStore,
    FeatureClass,
    check_activation,
    classify_features,
    read_store,
    store_dormant,
    write_prune_log,
    write_store,
)
from ontoguard.model import (
    Layer,
    PipelineConfig,
    ValidationError,
    from_json,
    profile_batch,
    to_json,
)
from ontoguard.sentinel import DriftType, scan
from ontoguard.synthgen import InstitutionWeight

CFG = PipelineConfig()  # dormancy threshold 0.002

PREVALENCE_HALF_PERCENT = ActivationCondition(
    kind=ActivationKind.PREVALENCE_EXCEEDS, threshold=0.005
)
ENDO_TRANSFER = ActivationCondition(
    kind=ActivationKind.DOMAIN_TRANSFER_REQUEST, domain="endocrinology"
)


def batch_with_counts(counts: dict[str, int]) -> list:
    records = []
    i = 0
    for code, count in counts.items():
        for _ in range(count):
            records.append(row(f"R-{i:06d}", code=code))
            i += 1
    return records


class TestClassifyFeatures:
    def test_rare_significant_code_goes_dormant(self, q1_products, bundled_cfg):
        classes = classify_features(admin(q1_products["inferred"]), {"DM-OTHER"}, bundled_cfg)
        assert classes["DM-OTHER"] is FeatureClass.DORMANT

    def test_common_code_is_active(self):
        batch = batch_with_counts({"AAA": 1_000, "BBB": 9_000})
        classes = classify_features(admin(batch), set(), CFG)
        assert classes["AAA"] is FeatureClass.ACTIVE

    def test_rare_unlisted_code_is_pruned(self):
        batch = batch_with_counts({"AAA": 9_999, "RARE": 1})
        classes = classify_features(admin(batch), set(), CFG)
        assert classes["RARE"] is FeatureClass.PRUNED

    def test_empty_batch_has_no_classes(self):
        assert classify_features(admin([]), {"DM-OTHER"}, CFG) == {}

    def test_no_silent_loss(self, q1_products, bundled_cfg):
        batch = q1_products["inferred"]
        classes = classify_features(admin(batch), {"DM-OTHER"}, bundled_cfg)
        assert set(classes) == {r["primary_code"] for r in rows(batch)}

    def test_clinical_layer_selector(self):
        batch = [
            row(f"R-{i}", code="AAA", clinical_code="BBB")
            for i in range(100)
        ]
        administrative = classify_features(admin(batch), set(), CFG)
        clinical = classify_features(profile_batch(read_rows(batch), Layer.CLINICAL), set(), CFG)
        assert set(administrative) == {"AAA"}
        assert set(clinical) == {"BBB"}


class TestStoreDormant:
    def test_walkthrough_entry_has_both_conditions(self, q1_products, bundled_cfg):
        profile = admin(q1_products["inferred"])
        classes = classify_features(profile, {"DM-OTHER"}, bundled_cfg)
        store = store_dormant(
            classes, profile,
            {"DM-OTHER": (PREVALENCE_HALF_PERCENT, ENDO_TRANSFER)},
            {"DM-OTHER": "rare diabetes subtype"},
        )
        entry = store.entries["DM-OTHER"]
        assert entry.count == 47
        assert len(entry.activation_conditions) == 2
        assert entry.significance_note == "rare diabetes subtype"
        assert entry.top_co_codes

    def test_no_dormant_codes_empty_store_with_prune_log(self, tmp_path):
        profile = admin(batch_with_counts({"AAA": 9_999, "RARE": 1}))
        classes = classify_features(profile, set(), CFG)
        store = store_dormant(classes, profile, {}, {})
        assert store.entries == {}
        assert [e.code for e in store.prune_log] == ["RARE"]
        write_prune_log(store, tmp_path / "prune.csv")
        lines = (tmp_path / "prune.csv").read_text().splitlines()
        assert lines[0] == "code,count,last_observed"
        assert lines[1].startswith("RARE,1,")

    def test_prune_log_fields_are_quoted(self, tmp_path):
        # Codes holding a comma or a quote read back as one field each.
        rare = ['R,"X', 'Q"']
        profile = admin(batch_with_counts({"AAA": 9_999, rare[0]: 1, rare[1]: 1}))
        store = store_dormant(classify_features(profile, set(), CFG), profile, {}, {})
        write_prune_log(store, tmp_path / "prune.csv")
        with open(tmp_path / "prune.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3] * 3
        assert sorted(row[0] for row in rows[1:]) == sorted(rare)
        assert [row[1] for row in rows[1:]] == ["1", "1"]

    def test_restore_is_idempotent(self):
        profile = admin(batch_with_counts({"AAA": 9_999, "RARE": 1}))
        classes = classify_features(profile, {"RARE"}, CFG)
        conditions = {"RARE": (PREVALENCE_HALF_PERCENT,)}
        store = store_dormant(classes, profile, conditions, {})
        store = store_dormant(classes, profile, conditions, {}, store)
        assert len(store.entries) == 1
        assert store.entries["RARE"].count == 1

    def test_dormant_code_without_condition_rejected(self):
        profile = admin(batch_with_counts({"AAA": 9_999, "RARE": 1}))
        classes = classify_features(profile, {"RARE"}, CFG)
        with pytest.raises(ValidationError, match="no configured activation condition"):
            store_dormant(classes, profile, {}, {})

    def test_store_file_round_trip(self, tmp_path):
        profile = admin(batch_with_counts({"AAA": 9_999, "RARE": 1}))
        classes = classify_features(profile, {"RARE"}, CFG)
        store = store_dormant(
            classes, profile, {"RARE": (PREVALENCE_HALF_PERCENT, ENDO_TRANSFER)}, {},
        )
        write_store(store, tmp_path / "store.json")
        loaded = read_store(tmp_path / "store.json")
        assert loaded.entries["RARE"].activation_conditions \
            == store.entries["RARE"].activation_conditions
        assert loaded.entries["RARE"].last_observed \
            == store.entries["RARE"].last_observed

    def test_input_store_left_unchanged(self):
        conditions = {"RARE": (PREVALENCE_HALF_PERCENT,)}
        first = admin(batch_with_counts({"AAA": 9_998, "RARE": 1, "GONE": 1}))
        store = store_dormant(classify_features(first, {"RARE"}, CFG), first, conditions, {})
        before = copy.deepcopy(store)
        later = admin(batch_with_counts({"AAA": 9_997, "RARE": 2, "GONE": 1}))
        updated = store_dormant(classify_features(later, {"RARE"}, CFG), later, conditions,
                                {"RARE": "rare subtype"}, store=store)
        assert store == before
        assert updated.entries["RARE"].count == 2
        assert [(e.code, e.count) for e in updated.prune_log] == [("GONE", 1)]

    def test_pruned_code_leaves_the_store(self):
        profile = admin(batch_with_counts({"AAA": 9_999, "RARE": 1}))
        conditions = {"RARE": (PREVALENCE_HALF_PERCENT,)}
        store = store_dormant(classify_features(profile, {"RARE"}, CFG), profile, conditions, {})
        assert set(store.entries) == {"RARE"}
        later = store_dormant(classify_features(profile, set(), CFG), profile, conditions, {},
                              store=store)
        assert [e.code for e in later.prune_log] == ["RARE"]
        assert "RARE" not in later.entries


_CONDITIONS = st.one_of(
    st.builds(ActivationCondition, kind=st.just(ActivationKind.PREVALENCE_EXCEEDS),
              threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.builds(ActivationCondition, kind=st.just(ActivationKind.DOMAIN_TRANSFER_REQUEST),
              domain=st.text(min_size=1)),
    st.builds(ActivationCondition, kind=st.just(ActivationKind.OUTBREAK_SIGNAL),
              signal_code=st.text(min_size=1)),
)
_ENTRIES = st.lists(st.builds(
    DormantEntry,
    code=st.text(),
    count=st.integers(0, 10**12),
    frequency=st.floats(0.0, 1.0),
    top_co_codes=st.lists(st.tuples(st.text(), st.integers(0, 10**12)), max_size=5).map(tuple),
    significance_note=st.text(),
    activation_conditions=st.lists(_CONDITIONS, min_size=1, max_size=3).map(tuple),
    last_observed=st.datetimes(timezones=st.sampled_from([None, timezone.utc])),
), max_size=4, unique_by=lambda e: e.code).map(lambda entries: {e.code: e for e in entries})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=_ENTRIES)
def test_store_entries_round_trip(tmp_path, entries):
    path = tmp_path / "store.json"
    write_store(DormantStore(entries, ()), path)
    assert read_store(path).entries == entries


@settings(max_examples=100, deadline=None)
@given(condition=_CONDITIONS)
def test_condition_json_round_trip(condition):
    assert from_json(ActivationCondition, to_json(condition)) == condition


class TestCheckActivation:
    def make_store(self, conditions) -> DormantStore:
        profile = admin(batch_with_counts({"AAA": 999, "RARE": 1}))
        classes = classify_features(profile, {"RARE"}, CFG)
        return store_dormant(classes, profile, {"RARE": conditions}, {})

    def test_prevalence_above_threshold_activates(self):
        store = self.make_store((PREVALENCE_HALF_PERCENT,))
        quarterly = batch_with_counts({"RARE": 6, "AAA": 994})  # 0.6%
        activations = check_activation(store, admin(quarterly), [])
        assert activations == [("RARE", PREVALENCE_HALF_PERCENT)]

    def test_prevalence_at_threshold_does_not_activate(self):
        store = self.make_store((PREVALENCE_HALF_PERCENT,))
        quarterly = batch_with_counts({"RARE": 5, "AAA": 995})  # exactly 0.5%
        assert check_activation(store, admin(quarterly), []) == []

    def test_no_events_no_activation(self):
        store = self.make_store((PREVALENCE_HALF_PERCENT, ENDO_TRANSFER))
        quarterly = batch_with_counts({"AAA": 1_000})
        assert check_activation(store, admin(quarterly), []) == []

    def test_domain_transfer_event_activates(self):
        store = self.make_store((ENDO_TRANSFER,))
        quarterly = batch_with_counts({"AAA": 1_000})
        events = [ActivationCondition(kind=ActivationKind.DOMAIN_TRANSFER_REQUEST,
                                      domain="endocrinology")]
        activations = check_activation(store, admin(quarterly), events)
        assert activations == [("RARE", ENDO_TRANSFER)]

    def test_activation_monotone_in_code_records(self):
        store = self.make_store((PREVALENCE_HALF_PERCENT,))
        quarterly = batch_with_counts({"RARE": 6, "AAA": 994})
        assert check_activation(store, admin(quarterly), [])
        more = quarterly + batch_with_counts({"RARE": 50})
        assert check_activation(store, admin(more), [])

    def test_outbreak_signal_from_drift_alert_end_to_end(self, bundled_system):
        # An outbreak-injected series raises an epidemiological alert whose
        # code matches a stored activation condition.
        spec = synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 0.5), InstitutionWeight("I-B", 0.5)),
            current_version="2025",
            outbreak=synthgen.OutbreakSpec("RESP-FLU", date(2025, 4, 1), 3.0),
        )
        batches, _ = synthgen.generate_quarter_series(bundled_system, spec, 2, 20_000, 11)
        # Sensitivity study configuration: weight the population-facing
        # components, where epidemiological drift shows up.
        cfg = PipelineConfig(
            drift_threshold=0.03,
            fingerprint_min_support=100,
            drift_component_weights=(0.05, 0.55, 0.35, 0.05),
        )
        alerts = scan(
            admin(batches[0]), admin(batches[1]), bundled_system, cfg,
        )
        type_a_codes = {a.code for a in alerts if a.drift_type is DriftType.TYPE_A}
        assert "RESP-FLU" in type_a_codes

        condition = ActivationCondition(
            kind=ActivationKind.OUTBREAK_SIGNAL, signal_code="RESP-FLU"
        )
        store = self.make_store((condition,))
        events = [
            ActivationCondition(kind=ActivationKind.OUTBREAK_SIGNAL, signal_code=a.code)
            for a in alerts if a.drift_type is DriftType.TYPE_A
        ]
        activations = check_activation(store, admin(batch_with_counts({"AAA": 100})), events)
        assert activations == [("RARE", condition)]


def test_condition_validation():
    with pytest.raises(ValidationError, match="threshold"):
        ActivationCondition(kind=ActivationKind.PREVALENCE_EXCEEDS, threshold=1.5)
    with pytest.raises(ValidationError, match="domain"):
        ActivationCondition(kind=ActivationKind.DOMAIN_TRANSFER_REQUEST)
    with pytest.raises(ValidationError, match="code"):
        ActivationCondition(kind=ActivationKind.OUTBREAK_SIGNAL)
    # A field the kind does not read is a fault, not ignored.
    with pytest.raises(ValidationError,
                       match="domain_transfer_request condition must not set threshold"):
        ActivationCondition(kind=ActivationKind.DOMAIN_TRANSFER_REQUEST, domain="d",
                            threshold=0.5)
    with pytest.raises(ValidationError,
                       match="prevalence_exceeds condition must not set signal_code"):
        ActivationCondition(kind=ActivationKind.PREVALENCE_EXCEEDS, threshold=0.5,
                            signal_code="DM-OTHER")
