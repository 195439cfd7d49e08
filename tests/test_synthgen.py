"""Generator: exact stratified counts, labeled distortions, determinism."""

import hashlib
import io
import json
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED, rows, tiny_system, truth_by_id
from ontoguard import synthgen
from ontoguard.model import (
    TimeWindow,
    ValidationError,
    from_json,
    write_records,
)
from ontoguard.synthgen import InstitutionWeight
from recounts import binomial_interval, prevalence_recount


_NAMES = st.text(max_size=8)
_NUMBERS = st.floats(allow_nan=False)
SPECS = st.builds(
    synthgen.DistortionSpec,
    institutions=st.lists(st.builds(InstitutionWeight, _NAMES, _NUMBERS), max_size=3).map(tuple),
    current_version=_NAMES,
    catch_all=st.lists(st.builds(synthgen.CatchAllSpec, _NAMES, _NAMES, _NUMBERS),
                       max_size=2).map(tuple),
    billing_inflation=st.lists(st.builds(synthgen.BillingInflationSpec, _NAMES, st.dates(),
                                         _NUMBERS), max_size=2).map(tuple),
    version_mix=st.dictionaries(_NAMES, _NAMES, max_size=3),
    ai_influence=st.none() | st.builds(synthgen.AIInfluenceSpec, _NAMES,
                                       st.lists(_NUMBERS, max_size=3).map(tuple)),
    outbreak=st.none() | st.builds(synthgen.OutbreakSpec, _NAMES, st.dates(), _NUMBERS),
)


def simple_spec(**overrides):
    base = dict(
        institutions=(InstitutionWeight("INST-A", 0.5), InstitutionWeight("INST-B", 0.5)),
        current_version="2025",
    )
    base.update(overrides)
    return synthgen.DistortionSpec(**base)


def serialize(tmp_path, batch):
    """The bytes of ``batch``'s records file."""
    path = tmp_path / "records.jsonl"
    write_records(path, batch)
    return path.read_bytes()


class TestGenerateBatch:
    def test_zero_records(self, bundled_system):
        records, truth = synthgen.generate_batch(bundled_system, simple_spec(), 0, 1)
        assert len(records) == 0
        assert len(truth.index) == 0

    def test_exact_count_for_lagging_institution(self, bundled_system):
        # 6.4% weight over 50,000 records lands on exactly 3,200.
        spec = simple_spec(
            institutions=(InstitutionWeight("INST-A", 0.936),
                          InstitutionWeight("INST-LAG", 0.064)),
            version_mix={"INST-LAG": "2024"},
        )
        records, truth = synthgen.generate_batch(bundled_system, spec, 50_000, SEED)
        truth = truth_by_id(records, truth)
        lagging = [r for r in rows(records) if r["version_tag"] == "2024"]
        assert len(lagging) == 3_200
        assert all(r["institution_id"] == "INST-LAG" for r in lagging)
        assert all(
            "version_lag" in truth[r["record_id"]].distortion_labels for r in lagging
        )

    def test_rare_code_count_pinned_and_plausible(self, bundled_system):
        records, _ = synthgen.generate_batch(bundled_system, simple_spec(), 50_000, SEED)
        count = sum(1 for r in rows(records) if r["primary_code"] == "DM-OTHER")
        assert count == 47  # stratified exactness: 0.00094 * 50,000
        lo, hi = binomial_interval(50_000, 0.00094, 0.99)
        assert lo <= count <= hi

    def test_deterministic_byte_identical(self, bundled_system, tmp_path):
        spec = simple_spec(
            catch_all=(synthgen.CatchAllSpec("INST-A", "DM2-UNSPEC", 0.5),),
            ai_influence=synthgen.AIInfluenceSpec("m1", (0.1,)),
        )
        a, _ = synthgen.generate_batch(bundled_system, spec, 3_000, 123)
        b, _ = synthgen.generate_batch(bundled_system, spec, 3_000, 123)
        assert serialize(tmp_path, a) == serialize(tmp_path, b)

    def test_unknown_institution_rejected(self, bundled_system):
        spec = simple_spec(
            catch_all=(synthgen.CatchAllSpec("INST-NOPE", "DM2-UNSPEC", 0.5),),
        )
        with pytest.raises(ValidationError, match="unknown institution"):
            synthgen.generate_batch(bundled_system, spec, 10, 1)

    def test_repeated_institution_rejected(self, bundled_system):
        spec = synthgen.DistortionSpec(
            institutions=(synthgen.InstitutionWeight("INST-A", 0.5),
                          synthgen.InstitutionWeight("INST-A", 0.5)),
            current_version="2025",
        )
        with pytest.raises(ValidationError, match="institution 'INST-A' more than once"):
            synthgen.validate_spec(bundled_system, spec)

    def test_unknown_code_rejected(self, bundled_system):
        spec = simple_spec(
            outbreak=synthgen.OutbreakSpec("BOGUS", date(2025, 1, 1), 3.0),
        )
        with pytest.raises(ValidationError, match="unknown code"):
            synthgen.generate_batch(bundled_system, spec, 10, 1)

    def test_catch_all_rewrites_carry_label_and_truth(self, bundled_system):
        spec = simple_spec(
            catch_all=(synthgen.CatchAllSpec("INST-A", "DM2-UNSPEC", 1.0),),
        )
        records, truth = synthgen.generate_batch(bundled_system, spec, 20_000, SEED)
        truth = truth_by_id(records, truth)
        records = rows(records)
        rewritten = [
            r for r in records
            if "catch_all" in truth[r["record_id"]].distortion_labels
        ]
        assert rewritten
        for r in rewritten:
            assert r["primary_code"] == "DM2-UNSPEC"
            assert truth[r["record_id"]].true_clinical_code in {"DM2-HYPER", "DM2-COMPL"}
        # excess 1.0 at INST-A rewrites every sibling record there
        for r in records:
            if (r["institution_id"] == "INST-A"
                    and truth[r["record_id"]].true_clinical_code in {"DM2-HYPER", "DM2-COMPL"}):
                assert r["primary_code"] == "DM2-UNSPEC"


    def test_zero_weight_co_code_is_never_drawn(self):
        # Rows draw two co-codes from a support with one positive weight:
        # the zero-weight code stays out rather than filling the second slot.
        system = tiny_system(base_prevalence={"AAA": 1.0},
                             cooccurrence={"AAA": {"BBB": 1.0, "CCC": 0.0}})
        spec = synthgen.DistortionSpec(institutions=(InstitutionWeight("I", 1.0),),
                                       current_version="v2")
        records, _ = synthgen.generate_batch(system, spec, 1_000, SEED)
        assert {tuple(r["co_codes"]) for r in rows(records)} == {("BBB",)}


@st.composite
def bool_matrices(draw):
    """1-300 rows of width 1-12, drawn from a small pool so rows repeat."""
    width = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=20))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    return (np.array(rows)[:, None] >> np.arange(width)) & 1 == 1


@settings(max_examples=300, deadline=None)
@given(masks=bool_matrices())
def test_group_rows_is_np_unique_by_rows(masks):
    distinct, inverse = synthgen._group_rows(masks)
    expected, expected_inverse = np.unique(masks, axis=0, return_inverse=True)
    assert distinct.tolist() == expected.tolist()
    assert inverse.tolist() == expected_inverse.reshape(-1).tolist()


@pytest.mark.parametrize("prefix", ["", "%", "Q1", "é", "\U0001F600"])
def test_record_ids_are_the_prefix_and_six_digits_or_more(prefix):
    # Ranges across the first id with seven digits and across the first
    # whose digits need 64 bits; ids count rows from the range's start.
    for ids in (range(0, 10), range(2**32 - 3, 2**32 + 3),
                range(999_990, 1_000_010), range(5, 5)):
        formatted = synthgen._record_ids(prefix, ids).tolist()
        assert formatted == [f"{prefix}-{i:06d}" for i in ids]
        assert all(type(record_id) is str for record_id in formatted)


class TestQuarterSeries:
    def test_influence_schedule_fractions(self, bundled_system):
        spec = simple_spec(
            ai_influence=synthgen.AIInfluenceSpec("m1", (0.04, 0.08, 0.12)),
        )
        batches, _ = synthgen.generate_quarter_series(bundled_system, spec, 3, 10_000, SEED)
        for batch, expected in zip(batches, (0.04, 0.08, 0.12)):
            fraction = sum(1 for r in rows(batch) if r["influence_tag"] is not None) / len(batch)
            assert abs(fraction - expected) <= 0.005

    def test_all_zero_schedule_means_no_tags(self, bundled_system):
        spec = simple_spec(ai_influence=synthgen.AIInfluenceSpec("m1", (0.0, 0.0)))
        batches, truths = synthgen.generate_quarter_series(bundled_system, spec, 2, 5_000, SEED)
        for batch in batches:
            assert all(r["influence_tag"] is None for r in rows(batch))
        assert all("ai_influenced" not in e.distortion_labels
                   for truth in truths for e in truth.entries)

    def test_outbreak_prevalence_ratio(self, bundled_system):
        spec = simple_spec(
            outbreak=synthgen.OutbreakSpec("RESP-FLU", date(2025, 4, 1), 3.0),
        )
        batches, _ = synthgen.generate_quarter_series(bundled_system, spec, 2, 50_000, SEED)
        p1 = prevalence_recount(rows(batches[0]), "RESP-FLU")
        p2 = prevalence_recount(rows(batches[1]), "RESP-FLU")
        assert 2.5 <= p2 / p1 <= 3.5

    def test_quarter_windows_are_consecutive(self, bundled_system):
        spec = simple_spec()
        batches, _ = synthgen.generate_quarter_series(
            bundled_system, spec, 2, 500, SEED, start=date(2025, 1, 1)
        )
        q1_days = {datetime.fromisoformat(r["encounter_time"]).date() for r in rows(batches[0])}
        q2_days = {datetime.fromisoformat(r["encounter_time"]).date() for r in rows(batches[1])}
        assert max(q1_days) <= date(2025, 3, 31)
        assert min(q2_days) >= date(2025, 4, 1)

    @pytest.mark.parametrize("start", [
        date(2025, 1, 1), date(2024, 8, 15), date(2025, 12, 28), date(2024, 2, 29),
        date(2023, 11, 30), date(2024, 1, 31), date(2023, 12, 31), date(2025, 10, 1),
    ])
    def test_quarter_window_matches_a_hand_recount(self, start):
        # A quarter is three calendar months counted from the start's month,
        # whatever the start's day; a negative index counts back before it.
        def next_first(day):
            return (day.replace(day=1) + timedelta(days=32)).replace(day=1)

        def previous_first(day):
            return (day.replace(day=1) - timedelta(days=1)).replace(day=1)

        for quarter in range(-6, 8):
            first = start.replace(day=1)
            for _ in range(3 * abs(quarter)):
                first = (next_first if quarter > 0 else previous_first)(first)
            last = next_first(next_first(next_first(first))) - timedelta(days=1)
            window = synthgen.quarter_window(start, quarter)
            assert (window.start, window.end) == (first, last), quarter

    def test_invalid_quarter_count(self, bundled_system):
        with pytest.raises(ValidationError, match="quarters"):
            synthgen.generate_quarter_series(bundled_system, simple_spec(), 0, 10, 1)


class TestInvariants:
    def test_label_soundness(self, bundled_system):
        # Any record whose coded primary differs from clinical truth must
        # carry at least one distortion label.
        spec = simple_spec(
            catch_all=(synthgen.CatchAllSpec("INST-A", "DM2-UNSPEC", 0.7),),
            billing_inflation=(
                synthgen.BillingInflationSpec("bc-chronic-specific", date(2025, 1, 1), 1.8),
            ),
            ai_influence=synthgen.AIInfluenceSpec("m1", (0.1,)),
        )
        records, truth = synthgen.generate_batch(bundled_system, spec, 20_000, 7)
        truth = truth_by_id(records, truth)
        for record in rows(records):
            entry = truth[record["record_id"]]
            if record["primary_code"] != entry.true_clinical_code:
                assert entry.distortion_labels, record["record_id"]

    def test_stratified_institution_exactness(self, bundled_system):
        spec = simple_spec(institutions=(
            InstitutionWeight("A", 0.25), InstitutionWeight("B", 0.25), InstitutionWeight("C", 0.5),
        ))
        records, _ = synthgen.generate_batch(bundled_system, spec, 10_000, 3)
        counts = {}
        for r in rows(records):
            counts[r["institution_id"]] = counts.get(r["institution_id"], 0) + 1
        assert counts == {"A": 2_500, "B": 2_500, "C": 5_000}

    def test_ground_truth_round_trip(self, bundled_system, tmp_path):
        spec = simple_spec(ai_influence=synthgen.AIInfluenceSpec("m1", (0.2,)))
        records, truth = synthgen.generate_batch(bundled_system, spec, 500, 5)
        path = tmp_path / "truth.jsonl"
        synthgen.write_ground_truth(path, [records], [truth])
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        loaded = {
            row["record_id"]: synthgen.GroundTruthEntry(
                row["true_clinical_code"], frozenset(row["distortion_labels"])
            )
            for row in rows
        }
        assert loaded == truth_by_id(records, truth)

    @settings(max_examples=100, deadline=None)
    @given(spec=SPECS)
    def test_spec_round_trip(self, spec):
        assert from_json(synthgen.DistortionSpec, synthgen.spec_to_dict(spec)) == spec


# Every distortion switches on by 2025-07-01: catch-alls at two institutions,
# billing inflation, version lag, an outbreak and a rising AI fraction.
ALL_DISTORTIONS = {
    "institutions": [
        {"institution_id": "INST-01", "weight": 0.3},
        {"institution_id": "INST-03", "weight": 0.1},
        {"institution_id": "INST-06", "weight": 0.25},
        {"institution_id": "INST-07", "weight": 0.35},
    ],
    "current_version": "2025",
    "catch_all": [
        {"institution_id": "INST-06", "target_code": "HLD-UNSPEC", "excess_rate": 0.7},
        {"institution_id": "INST-07", "target_code": "DM2-UNSPEC", "excess_rate": 0.8},
    ],
    "billing_inflation": [
        {"billing_category": "bc-chronic-specific", "start": "2025-04-01",
         "rate_multiplier": 2.5},
    ],
    "version_mix": {"INST-03": "2024"},
    "ai_influence": {"model_version": "toy-risk-1", "schedule": [0.05, 0.15, 0.25]},
    "outbreak": {"code": "RESP-FLU", "start": "2025-07-01", "prevalence_multiplier": 3.0},
}


def output_digest(tmp_path, batches, truths):
    """sha256 of the records files of ``batches``, one after another, followed
    by their ground-truth file."""
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(serialize(tmp_path, batch))
    synthgen.write_ground_truth(tmp_path / "truth.jsonl", batches, truths)
    digest.update((tmp_path / "truth.jsonl").read_bytes())
    return digest.hexdigest()


class TestGolden:
    """Pins the exact output, and so the random draw stream behind it.

    The digests were taken from the row-at-a-time generator; a change that
    reorders, adds or drops a draw changes them.
    """

    @pytest.mark.parametrize("seed, expected", [
        (42, "2ceaab81d7d1cf0f839ddee2921348122f488bd4d532140791df37a7183773fe"),
        (7, "7da713752627b215b743df1af735acf3ee6450689e4600af21a4ff6cf1faafc8"),
    ])
    def test_batch_with_every_distortion(self, bundled_system, tmp_path, seed, expected):
        spec = from_json(synthgen.DistortionSpec, ALL_DISTORTIONS)
        records, truth = synthgen.generate_batch(
            bundled_system, spec, 5_000, seed,
            window=synthgen.quarter_window(date(2025, 1, 1), 2),
            id_prefix="G", quarter_index=2,
        )
        labels = set().union(*(e.distortion_labels for e in truth.entries))
        assert labels == {label.value for label in synthgen.DistortionLabel}
        assert output_digest(tmp_path, [records], [truth]) == expected

    def test_quarter_series(self, bundled_system, tmp_path):
        spec = from_json(synthgen.DistortionSpec, ALL_DISTORTIONS)
        batches, truths = synthgen.generate_quarter_series(
            bundled_system, spec, 3, 2_000, SEED
        )
        assert output_digest(tmp_path, batches, truths) == (
            "08d41d872ceeffe2462d5c23785b2cb427b85e152b3ab44bf71ffbd72ab33eb1"
        )
