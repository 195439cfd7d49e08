"""Each stage against a naive recount of its result in ``tests/recounts.py``.

The recounts live beside the tests because only the tests run them. Like
``ontoguard.oracles``, they import nothing from the package they check; the
first test below pins that for both modules.

The batches are hostile on purpose: empty co-code sets, a single record, a
single institution, codes missing from the reference, every record
AI-tagged, and timestamps on month and quarter edges.
"""

import ast
from collections import Counter
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_rows
from conftest import rows as written_rows
from ontoguard import oracles
from ontoguard.breaker import (
    OUTCOME_MARKERS,
    BreakerState,
    BreakerStateKind,
    ToyRiskModel,
    compute_stats,
    retrain_gate,
)
from ontoguard.checkpoint import annotate_batch, build_reference_model
from ontoguard.dormancy import (
    ActivationCondition,
    DormantEntry,
    DormantStore,
    check_activation,
    classify_features,
)
from ontoguard.dual_ontology import infer_clinical_layer
from ontoguard.model import (
    AGE_BANDS,
    SEXES,
    CodeSystem,
    Layer,
    PipelineConfig,
    TimeWindow,
    from_json,
    profile_batch,
)
from ontoguard.sentinel import scan
from ontoguard.version_gate import gate_batch
import recounts


def _codes(*names):
    return [{"code": c, "clinical_group": "g", "billing_category": "b", "description": ""}
            for c in names]


# v0 is unvalidated; v1 -> v2 keeps AAA, renames OLD, splits SPLIT and
# drops GONE.
SYSTEM_DATA = {
    "system_id": "ORACLE",
    "versions": [
        {"label": "v0", "release_date": "2023-01-01", "validated": False},
        {"label": "v1", "release_date": "2024-01-01", "validated": True},
        {"label": "v2", "release_date": "2025-01-01", "validated": True},
    ],
    "codes": {"v0": _codes("OLD"), "v1": _codes("AAA", "OLD", "GONE", "SPLIT"),
              "v2": _codes("AAA", "BBB", "CCC", "SPLIT-A", "SPLIT-B")},
    "transitions": [{
        "from": "v1", "to": "v2",
        "mappings": [{"from_code": "AAA", "to_code": "AAA"},
                     {"from_code": "OLD", "to_code": "BBB"},
                     {"from_code": "SPLIT", "to_code": "SPLIT-A"},
                     {"from_code": "SPLIT", "to_code": "SPLIT-B"}],
        "unmappable": ["GONE"],
    }],
}
SYSTEM = from_json(CodeSystem, SYSTEM_DATA)

# ZZZ is in no version, so it is missing from every reference model.
CODES = ("AAA", "BBB", "CCC", "ZZZ")
CO_CODES = ("AAA", "CCC", "LAB-GLU-HI", "LAB-HBA1C-HI", "ZZZ")
# 05:30 at +05:30 and 00:00 at +00:00 are one instant written two ways.
TIMES = ("2024-12-31T23:59:59.999999", "2025-01-01T00:00:00", "2025-01-01T05:30:00",
         "2025-01-31T23:59:59", "2025-02-01T00:00:00", "2025-03-31T23:59:59",
         "2025-04-01T00:00:00")
OFFSETS = ("+00:00", "+05:30", "-08:00")
TAG = {"model_version": "m-1", "model_confidence": 0.7, "clinician_modified": False}


@st.composite
def batches(draw, codes=CODES, versions=("v2",), min_size=0):
    """JSON rows of one batch; each batch is all naive or all UTC-offset."""
    n = draw(st.integers(min_size, 12))
    institutions = draw(st.sampled_from([("I-1",), ("I-1", "I-2", "I-3")]))
    aware = draw(st.booleans())
    all_tagged = draw(st.booleans())
    rows = []
    for i in range(n):
        when = draw(st.sampled_from(TIMES)) + (draw(st.sampled_from(OFFSETS)) if aware else "")
        rows.append({
            "record_id": f"R-{draw(st.integers(0, 10**7)):07d}-{i}",
            "patient_age_band": draw(st.sampled_from(("0-9", "50-59", "90+"))),
            "patient_sex": draw(st.sampled_from(("female", "male"))),
            "institution_id": draw(st.sampled_from(institutions)),
            "encounter_time": when,
            "primary_code": draw(st.sampled_from(codes)),
            "co_codes": sorted(draw(st.sets(st.sampled_from(CO_CODES), max_size=3))),
            "version_tag": draw(st.sampled_from(versions)),
            "influence_tag": TAG if all_tagged or draw(st.booleans()) else None,
            "fidelity": None,
            "clinical_code": draw(st.none() | st.sampled_from(codes)),
        })
    return rows


def test_oracles_import_nothing_from_the_package():
    for module in (oracles, recounts):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names]
        assert [m for m in imported if m.startswith(".") or m.startswith("ontoguard")
                or m == ""] == [], module.__file__


# An earlier encounter, then one later instant written three ways: the
# first of the three is the code's last_seen.
TIED_LATEST = [
    {"record_id": f"R-{i}", "patient_age_band": "0-9", "patient_sex": "female",
     "institution_id": "I-1", "encounter_time": when, "primary_code": "AAA", "co_codes": [],
     "version_tag": "v2", "influence_tag": None, "fidelity": None, "clinical_code": None}
    for i, when in enumerate(("2024-12-31T23:59:59.999999+00:00", "2025-01-01T05:30:00+05:30",
                              "2025-01-01T00:00:00+00:00", "2024-12-31T16:00:00-08:00"))
]


@given(batches(), st.sampled_from(list(Layer)))
@example(TIED_LATEST, Layer.ADMINISTRATIVE)
@settings(max_examples=150, deadline=None)
def test_profile_batch_matches_recount(rows, layer):
    profile = profile_batch(read_rows(rows), layer)
    expect = recounts.profile_recount(rows, layer.value)
    assert profile.n == expect["n"]
    assert list(profile.codes) == list(expect["codes"])
    for code, usage in profile.codes.items():
        counted = expect["codes"][code]
        assert usage.count == counted["count"]
        assert usage.last_seen.isoformat() == counted["last_seen"]
        assert usage.co_codes == counted["co_codes"]
        for name in ("strata", "months", "institutions"):
            assert list(getattr(usage, name).items()) == list(counted[name].items())
    assert list(profile.versions.items()) == list(expect["versions"].items())
    days = [None if day is None else day.isoformat()
            for day in (profile.first_day, profile.last_day)]
    assert days == [expect["first_day"], expect["last_day"]]


# Each column that RecordBatch.groups groups by, and its records-file field.
GROUPED = {"age_band": "patient_age_band", "sex": "patient_sex", "institution": "institution_id",
           "code": "primary_code", "co": "co_codes", "version": "version_tag"}


@given(batches(versions=("v1", "v2")),
       st.lists(st.sampled_from(sorted(GROUPED)), min_size=1, max_size=3, unique=True))
@settings(max_examples=100, deadline=None)
def test_groups_match_recount(rows, names):
    batch = read_rows(rows)
    combinations, counts, index = batch.groups(*names)
    expect = recounts.group_keys(rows, [GROUPED[name] for name in names])
    assert dict(zip(combinations, counts)) == Counter(expect)
    assert len(combinations) == len(set(expect))
    assert [combinations[i] for i in index.tolist()] == expect
    # Sorted by the first column's table order, then the next's.
    tables = {"age_band": AGE_BANDS, "sex": SEXES, "institution": batch.institutions,
              "code": batch.codes, "co": batch.co_sets, "version": batch.versions}
    ranks = [tuple(tables[name].index(value) for name, value in zip(names, combination))
             for combination in combinations]
    assert ranks == sorted(ranks)


@given(batches(min_size=1), st.sampled_from(list(Layer)), st.sets(st.sampled_from(CODES)),
       st.data())
@settings(max_examples=150, deadline=None)
def test_dormancy_classes_match_recount(rows, layer, significant, data):
    # Half the thresholds are a count's exact share of the batch, where
    # "at least the threshold" and "above it" part.
    n = len(rows)
    threshold = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(1, n).map(lambda k: k / n),
    ).filter(lambda t: t < 1.0))
    classes = classify_features(profile_batch(read_rows(rows), layer), significant,
                                PipelineConfig(dormancy_frequency_threshold=threshold))
    expect = recounts.dormancy_recount(rows, layer.value, sorted(significant), threshold)
    assert [(code, c.value) for code, c in classes.items()] == list(expect.items())


@given(batches(min_size=1))
@settings(max_examples=150, deadline=None)
def test_reference_model_matches_recount(history):
    ref = build_reference_model(read_rows(history), SYSTEM)
    expect = recounts.reference_recount(history, ref.code_set)
    assert ref.code_set == ("AAA", "BBB", "CCC", "SPLIT-A", "SPLIT-B")
    assert ref.n_records == expect["n"]
    assert ref.code_counts == expect["code_counts"]
    assert ref.stratum_counts == expect["stratum_totals"]
    assert ref.code_stratum_counts == expect["cell_counts"]
    assert ref.cooccurrence == expect["cooccurrence"]
    assert ref.top_cooccurring == expect["top_cooccurring"]
    assert ref.institution_rates == expect["institution_rates"]
    assert ref.peer_medians == expect["peer_medians"]
    assert list(ref.candidate_codes) == expect["candidate_codes"]


@given(batches(min_size=1), batches(), st.sampled_from([0.0, 0.5, 0.75, 1.0]))
@settings(max_examples=150, deadline=None)
def test_fidelity_and_clinical_layer_match_recount(history, rows, cutoff):
    cfg = PipelineConfig(fidelity_weights=(0.2, 0.5, 0.3), inference_fidelity_cutoff=cutoff)
    ref = build_reference_model(read_rows(history), SYSTEM)
    expect = recounts.reference_recount(history, ref.code_set)
    annotated = annotate_batch(read_rows(rows), ref, cfg)
    inferred = infer_clinical_layer(annotated, ref, cfg)
    assert len(annotated) == len(inferred) == len(rows)
    for row, record in zip(rows, written_rows(inferred)):
        fid = record["fidelity"]
        prev, cooc, inst = recounts.fidelity_recount(row, expect)
        assert (fid["prevalence_subscore"], fid["cooccurrence_subscore"],
                fid["institutional_subscore"]) == (prev, cooc, inst)
        assert fid["score"] == min(1.0, max(0.0, 0.2 * prev + 0.5 * cooc + 0.3 * inst))
        winner, runner_up, margin = recounts.likeliest_recount(row["co_codes"], expect)
        assert margin >= 0 and (runner_up is None or runner_up != winner)
        if fid["score"] < cutoff and row["co_codes"] and winner is not None:
            assert record["clinical_code"] == winner
        else:
            assert record["clinical_code"] == row["primary_code"]


@given(batches(codes=("AAA", "BBB", "OLD", "GONE", "SPLIT", "ZZZ"),
               versions=("v0", "v1", "v2", "v9")), st.sampled_from(["v1", "v2"]))
@settings(max_examples=150, deadline=None)
def test_gate_matches_recount(rows, target):
    outcome = gate_batch(read_rows(rows), SYSTEM, target)
    got = {r["record_id"]: ("accepted", r["primary_code"], r["version_tag"])
           for r in written_rows(outcome.accepted)}
    for item in written_rows(outcome.reconciled):
        got[item["record_id"]] = ("reconciled", item["primary_code"], item["version_tag"])
    for item, reason in zip(written_rows(outcome.quarantined), outcome.quarantine_reasons()):
        got[item["record_id"]] = (reason.value, item["primary_code"], item["version_tag"])
    expect = {
        row["record_id"]: (bucket, code, target if bucket == "reconciled" else row["version_tag"])
        for row, (bucket, code) in zip(rows, recounts.gate_recount(rows, SYSTEM_DATA, target))
    }
    assert got == expect
    assert outcome.total() == len(rows)


@given(batches(min_size=1))
@settings(max_examples=150, deadline=None)
def test_breaker_counts_match_recount(rows):
    stats = compute_stats(read_rows(rows), [])
    assert stats.tagged_count == sum(row["influence_tag"] is not None for row in rows)
    assert stats.total_count == len(rows)
    closed = BreakerState(BreakerStateKind.CLOSED, "closed", 0.15)
    model = retrain_gate(closed, read_rows(rows), ToyRiskModel("toy-risk-1", {}), stats)
    assert model.weights == recounts.retrain_recount(rows, sorted(OUTCOME_MARKERS))


DOMAINS = ("cardiology", "endocrinology")
EVENTS = st.one_of(
    st.sampled_from(DOMAINS).map(lambda d: {"kind": "domain_transfer_request", "domain": d}),
    st.sampled_from(CODES).map(lambda c: {"kind": "outbreak_signal", "signal_code": c}),
)


@given(batches(), st.sampled_from(list(Layer)), st.data())
@settings(max_examples=100, deadline=None)
def test_activation_matches_recount(rows, layer, data):
    # Half the thresholds are a count's exact share of the batch, where
    # "above the threshold" and "at least it" part.
    n = len(rows)
    threshold = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if n > 1:
        threshold |= st.integers(1, n - 1).map(lambda k: k / n)
    condition = threshold.map(lambda t: {"kind": "prevalence_exceeds", "threshold": t}) | EVENTS
    conditions = data.draw(st.dictionaries(st.sampled_from(CODES),
                                           st.lists(condition, min_size=1, max_size=3)))
    events = data.draw(st.lists(EVENTS, max_size=3))
    store = DormantStore({
        code: DormantEntry(code, 1, 0.0, (), "", tuple(from_json(ActivationCondition, c)
                                                         for c in conds),
                           datetime(2025, 1, 1))
        for code, conds in conditions.items()
    }, ())
    activations = check_activation(store, profile_batch(read_rows(rows), layer),
                                   [from_json(ActivationCondition, event) for event in events])
    assert [(code, condition.to_dict()) for code, condition in activations] \
        == recounts.activation_recount(rows, layer.value, conditions, events)


def _placed(code, clinical_group, billing_category):
    return {"code": code, "clinical_group": clinical_group,
            "billing_category": billing_category, "description": ""}


# The v1 -> v2 hop renames X0, T10 and T20 to X, T1 and T2, so a window
# just after the v2 release blames those three. X shares its clinical group
# with P and its billing category with Q and B1-B4; T1 shares its billing
# category with U1 only, T2 its clinical group with V2 only.
_SHARED = [_placed("P", "gX", "bP"), _placed("Q", "gQ", "bX"),
           *(_placed(f"B{i}", "gB", "bX") for i in range(1, 5)),
           _placed("U1", "gU", "bT"), _placed("V2", "gT2", "bV"), _placed("SOLO", "gS", "bS")]
_RENAMED = {"X0": _placed("X", "gX", "bX"), "T10": _placed("T1", "gT1", "bT"),
            "T20": _placed("T2", "gT2", "bT2")}
DRIFT_SYSTEM_DATA = {
    "system_id": "DRIFT",
    "versions": [{"label": "v1", "release_date": "2024-01-01", "validated": True},
                 {"label": "v2", "release_date": "2025-01-01", "validated": True}],
    "codes": {"v1": [*_SHARED, *(_placed(old, "g0", "b0") for old in _RENAMED)],
              "v2": [*_SHARED, *_RENAMED.values()]},
    "transitions": [{"from": "v1", "to": "v2", "mappings": [
        *({"from_code": c["code"], "to_code": c["code"]} for c in _SHARED),
        *({"from_code": old, "to_code": new["code"]} for old, new in _RENAMED.items()),
    ]}],
}
DRIFT_SYSTEM = from_json(CodeSystem, DRIFT_SYSTEM_DATA)
# ZZZ is in no version, so it has no taxonomy peers.
DRIFT_CODES = tuple(c["code"] for c in DRIFT_SYSTEM_DATA["codes"]["v2"]) + ("ZZZ",)


def _drift_scan(drifting, matched):
    """Alerts of a scan where exactly ``drifting`` drifts: each code has one
    record a window, at another institution in the current one. The current
    window starts at the v2 release when ``matched``, half a year later if not."""
    windows = (TimeWindow(date(2024, 10, 1), date(2024, 12, 31)),
               TimeWindow(date(2025, 1, 1), date(2025, 3, 31)) if matched
               else TimeWindow(date(2025, 7, 1), date(2025, 9, 30)))
    batches = [[{"record_id": f"R-{code}", "patient_age_band": "50-59", "patient_sex": "female",
                 "institution_id": institution, "encounter_time": f"{window.start}T08:00:00",
                 "primary_code": code, "co_codes": [], "version_tag": "v2",
                 "influence_tag": None, "fidelity": None, "clinical_code": None}
                for code in drifting]
               for institution, window in zip(("I-1", "I-2"), windows)]
    cfg = PipelineConfig(drift_threshold=0.01, fingerprint_min_support=1)
    profiles = [profile_batch(read_rows(batch), Layer.ADMINISTRATIVE) for batch in batches]
    return scan(*profiles, DRIFT_SYSTEM, cfg)


def _causes(alerts):
    got = {alert.code: {"drift_type": alert.drift_type.value, "confidence": alert.confidence,
                        "billing_overlap": alert.evidence["billing_overlap"],
                        "clinical_overlap": alert.evidence["clinical_overlap"]}
           for alert in alerts}
    expect = recounts.drift_cause_recount(
        [alert.code for alert in alerts],
        {alert.code: alert.evidence["release_changed_code"] for alert in alerts},
        DRIFT_SYSTEM_DATA["codes"]["v2"])
    assert got == expect
    return got


@given(st.sets(st.sampled_from(DRIFT_CODES), min_size=1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_drift_causes_match_recount(drifting, matched):
    alerts = _drift_scan(sorted(drifting), matched)
    assert sorted(alert.code for alert in alerts) == sorted(drifting)
    _causes(alerts)


@pytest.mark.parametrize("drifting, cause", [
    # billing 1 = release 1 > clinical 0: administrative wins the tie
    (("T1", "U1"), {"drift_type": "type_b", "confidence": 0.5,
                    "billing_overlap": 1.0, "clinical_overlap": 0.0}),
    # release 1 = clinical 1 > billing 0: terminological wins the tie
    (("T2", "V2"), {"drift_type": "type_c", "confidence": 0.5,
                    "billing_overlap": 0.0, "clinical_overlap": 1.0}),
    # clinical 1/2, billing 1/6, release 1: clinical + billing + release is
    # 1.6666666666666665, one bit below the sum in any order that adds the
    # release before the clinical overlap
    (("X", "P", "Q"), {"drift_type": "type_c", "confidence": 1.0 / (0.5 + 1 / 6 + 1.0),
                       "billing_overlap": 1 / 6, "clinical_overlap": 0.5}),
], ids=["billing-ties-release", "release-ties-clinical", "three-scores"])
def test_drift_cause_hand_built(drifting, cause):
    assert _causes(_drift_scan(drifting, matched=True))[drifting[0]] == cause
