"""Circuit breaker: ratio tracking, state machine, gated retraining."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_rows, row, rows, tag
from ontoguard import synthgen
from ontoguard.breaker import (
    OUTCOME_MARKERS,
    BreakerStateKind,
    InfluenceStats,
    Refusal,
    ToyRiskModel,
    compute_stats,
    evaluate,
    read_history,
    retrain_gate,
    write_influence_csv,
    write_refusal_packet,
)
from ontoguard.model import PipelineConfig
from ontoguard.synthgen import InstitutionWeight

CFG = PipelineConfig()  # breaker threshold 0.15


def tagged(record_id, modified=False):
    return row(record_id, influence_tag=tag("m1", 0.8, modified))


def cohort_rows(n, ratio):
    k = int(round(n * ratio))
    return [tagged(f"T-{i}") for i in range(k)] + [row(f"U-{i}") for i in range(n - k)]


def cohort_with_ratio(n, ratio):
    return read_rows(cohort_rows(n, ratio))


def stats_for(ratio, history=()):
    cohort = cohort_with_ratio(1_000, ratio)
    return compute_stats(cohort, history)


class TestComputeStats:
    def test_twelve_percent_cohort(self):
        stats = compute_stats(cohort_with_ratio(50_000, 0.12), [])
        assert stats.ratio == pytest.approx(0.12)
        assert stats.tagged_count == 6_000
        assert stats.total_count == 50_000

    def test_zero_tags_closed(self):
        stats = compute_stats(read_rows([row(f"R-{i}") for i in range(100)]), [])
        assert stats.ratio == 0.0
        assert evaluate(stats, CFG).state is BreakerStateKind.CLOSED

    def test_empty_cohort(self):
        stats = compute_stats(read_rows([]), [])
        assert stats.ratio == 0.0
        assert stats.total_count == 0

    def test_history_appended_in_order(self):
        stats = compute_stats(
            cohort_with_ratio(100, 0.1),
            [("p1", 0.02), ("p2", 0.05)],
            period="p3",
        )
        assert stats.history == (("p1", 0.02), ("p2", 0.05), ("p3", 0.1))


class TestEvaluate:
    def test_rising_history_below_threshold_warns(self):
        stats = stats_for(0.12, [("q1", 0.04), ("q2", 0.08)])
        state = evaluate(stats, CFG)
        assert state.state is BreakerStateKind.WARNING
        assert "next cycle" in state.reason

    def test_above_threshold_opens(self):
        state = evaluate(stats_for(0.16), CFG)
        assert state.state is BreakerStateKind.OPEN

    def test_flat_history_stays_closed(self):
        stats = stats_for(0.12, [("q1", 0.12), ("q2", 0.12)])
        assert evaluate(stats, CFG).state is BreakerStateKind.CLOSED

    def test_exactly_at_threshold_not_open(self):
        state = evaluate(stats_for(0.15), CFG)
        assert state.state is not BreakerStateKind.OPEN

    def test_just_above_threshold_opens(self):
        stats = InfluenceStats("c", 0.150001, 150, 1_000, (("p1", 0.150001),))
        assert evaluate(stats, CFG).state is BreakerStateKind.OPEN


class TestRetrainGate:
    def test_closed_state_retrains_with_version_bump(self):
        model = ToyRiskModel("toy-risk-1", {})
        cohort = cohort_with_ratio(100, 0.0)
        stats = compute_stats(cohort, [])
        state = evaluate(stats, CFG)
        new = retrain_gate(state, cohort, model, stats)
        assert isinstance(new, ToyRiskModel)
        assert new.version_number() == 2

    def test_open_state_refuses_and_keeps_model(self):
        model = ToyRiskModel("toy-risk-1", {"AAA": 0.5})
        cohort = cohort_with_ratio(100, 0.2)
        stats = compute_stats(cohort, [])
        state = evaluate(stats, CFG)
        result = retrain_gate(state, cohort, model, stats)
        assert isinstance(result, Refusal)
        assert result.stats.ratio == pytest.approx(0.2)
        assert model.model_version == "toy-risk-1"

    def test_empty_cohort_keeps_the_model(self):
        model = ToyRiskModel("toy-risk-3", {"AAA": 0.5})
        stats = compute_stats(read_rows([]), [])
        state = evaluate(stats, CFG)
        assert state.state is BreakerStateKind.CLOSED
        assert retrain_gate(state, read_rows([]), model, stats) is model

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(
        st.sampled_from(["AAA", "BBB", "LAB-GLU-HI"]),
        st.frozensets(st.sampled_from(["AAA", "CCC", *sorted(OUTCOME_MARKERS)]), max_size=3),
    ), min_size=1, max_size=30))
    def test_weights_are_per_code_outcome_rates(self, pairs):
        cohort = read_rows([row(f"R-{i}", code=code, co_codes=co)
                            for i, (code, co) in enumerate(pairs)])
        stats = compute_stats(cohort, [])
        model = retrain_gate(evaluate(stats, CFG), cohort, ToyRiskModel("toy-risk-1", {}), stats)
        counts = {}  # code -> (records carrying it, of which positive), record by record
        for record in rows(cohort):
            positive = bool(OUTCOME_MARKERS.intersection(record["co_codes"]))
            for code in {record["primary_code"], *record["co_codes"]}:
                n, k = counts.get(code, (0, 0))
                counts[code] = (n + 1, k + positive)
        assert list(model.weights) == sorted(counts)
        assert model.weights == {code: k / n for code, (n, k) in counts.items()}

    def test_four_cycle_loop_refuses_on_schedule_breach(self, bundled_system):
        # Quarterly influence 4 -> 8 -> 12 -> 18 percent: cycles 1-2 retrain
        # quietly, cycle 3 warns, cycle 4 opens and refuses.
        spec = synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 0.5), InstitutionWeight("I-B", 0.5)),
            current_version="2025",
            ai_influence=synthgen.AIInfluenceSpec("m1", (0.04, 0.08, 0.12, 0.18)),
        )
        batches, _ = synthgen.generate_quarter_series(bundled_system, spec, 4, 5_000, 3)
        model = ToyRiskModel("toy-risk-1", {})
        history: tuple = ()
        outcomes = []
        for i, batch in enumerate(batches):
            stats = compute_stats(batch, history, period=f"q{i + 1}")
            history = stats.history
            state = evaluate(stats, CFG)
            result = retrain_gate(state, batch, model, stats)
            outcomes.append((state.state, isinstance(result, Refusal)))
            if isinstance(result, ToyRiskModel):
                model = result
        assert [s for s, _ in outcomes] == [
            BreakerStateKind.CLOSED, BreakerStateKind.CLOSED,
            BreakerStateKind.WARNING, BreakerStateKind.OPEN,
        ]
        assert [r for _, r in outcomes] == [False, False, False, True]
        assert model.version_number() == 4  # three successful retrains


class TestProperties:
    def test_gate_soundness_over_random_states(self):
        # No retraining ever happens while the breaker is open.
        rng = np.random.default_rng(37)
        model = ToyRiskModel("toy-risk-1", {})
        cohort = cohort_with_ratio(10, 0.0)
        for _ in range(1_000):
            ratio = float(rng.random())
            history = tuple(
                (f"p{i}", float(rng.random())) for i in range(int(rng.integers(0, 5)))
            )
            stats = InfluenceStats("c", ratio, int(ratio * 100), 100,
                                   history + (("now", ratio),))
            state = evaluate(stats, CFG)
            result = retrain_gate(state, cohort, model, stats)
            if state.state is BreakerStateKind.OPEN:
                assert isinstance(result, Refusal)
            else:
                assert isinstance(result, ToyRiskModel)

    def test_ratio_monotone_in_tagged_records(self):
        cohort = cohort_rows(200, 0.1)
        base = compute_stats(read_rows(cohort), []).ratio
        grown = compute_stats(read_rows([*cohort, tagged("X-1"), tagged("X-2")]), []).ratio
        assert grown >= base


class TestIO:
    def test_history_parsing(self):
        assert read_history("0.04,0.08") == [("period-1", 0.04), ("period-2", 0.08)]
        assert read_history("") == []

    def test_dashboard_export(self, tmp_path):
        stats = stats_for(0.12, [("q1", 0.04)])
        state = evaluate(stats, CFG)
        write_influence_csv([("q2", stats, state)], tmp_path / "dash.csv")
        lines = (tmp_path / "dash.csv").read_text().splitlines()
        assert lines[0] == "period,cohort,ratio,state"
        assert lines[1].startswith("q2,cohort,0.12")

    def test_refusal_packet(self, tmp_path):
        stats = stats_for(0.2)
        state = evaluate(stats, CFG)
        result = retrain_gate(state, read_rows([]), ToyRiskModel("toy-risk-1", {}), stats)
        write_refusal_packet(result, tmp_path / "refusal.json")
        import json

        payload = json.loads((tmp_path / "refusal.json").read_text())
        assert payload["state"] == "open"
        assert payload["stats"]["ratio"] == pytest.approx(0.2)

    def test_refusal_packet_text(self, tmp_path):
        stats = stats_for(0.2, [("q1", 0.04)])
        refusal = retrain_gate(evaluate(stats, CFG), read_rows([]), ToyRiskModel("toy-risk-1", {}),
                               stats)
        write_refusal_packet(refusal, tmp_path / "refusal.json")
        assert (tmp_path / "refusal.json").read_text(encoding="utf-8") == """{
  "reason": "AI influence ratio 0.2000 exceeds threshold 0.1500; automatic retraining \
paused pending audit",
  "state": "open",
  "stats": {
    "cohort_id": "cohort",
    "history": [
      [
        "q1",
        0.04
      ],
      [
        "period-2",
        0.2
      ]
    ],
    "ratio": 0.2,
    "tagged_count": 200,
    "total_count": 1000
  },
  "threshold_used": 0.15
}
"""
