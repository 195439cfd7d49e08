"""Property tests for the invariants that must hold on arbitrary inputs."""

import csv
import json
import math
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_rows, row, rows, run_digests, tiny_system
from ontoguard import harness, synthgen
from ontoguard.compliance import (
    RESTRICTIVENESS,
    AdapterRuleSet,
    DataOperation,
    OpKind,
    VerdictKind,
    compose,
)
from ontoguard.model import from_json, load_code_system, load_config
from ontoguard.oracles import jsd_oracle, partition_oracle
from ontoguard.sentinel import aligned_jsd
from ontoguard.synthgen import _largest_remainder
from ontoguard.version_gate import gate_batch

distributions = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=20
).map(lambda raw: [x / sum(raw) for x in raw])


@given(distributions, distributions)
@settings(max_examples=200, deadline=None)
def test_jsd_bounded_symmetric_zero_iff_equal(p, q):
    size = min(len(p), len(q))
    p = [x / sum(p[:size]) for x in p[:size]]
    q = [x / sum(q[:size]) for x in q[:size]]
    keys = [f"k{i}" for i in range(size)]
    dp, dq = dict(zip(keys, p)), dict(zip(keys, q))
    forward = aligned_jsd(dp, dq)
    assert 0.0 <= forward <= 1.0
    assert forward == pytest.approx(aligned_jsd(dq, dp), abs=1e-12)
    assert forward == pytest.approx(jsd_oracle(p, q), abs=1e-9)
    assert aligned_jsd(dp, dp) == 0.0


@given(
    st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=200, deadline=None)
def test_apportionment_is_exact_and_proportional(weights, n):
    keys = [f"s{i}" for i in range(len(weights))]
    counts = _largest_remainder(weights, keys, n)
    assert sum(counts.values()) == n
    total = sum(weights)
    for key, weight in zip(keys, weights):
        assert abs(counts[key] - weight / total * n) < 1.0


@given(
    st.lists(st.sampled_from(["permit", "conditions", "deny"]), min_size=1, max_size=5),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_composition_class_is_order_invariant(classes, shuffler):
    def stub(adapter_id, key):
        return from_json(AdapterRuleSet, {
            "adapter_id": adapter_id, "jurisdiction": "T",
            "regulation_id": f"R-{adapter_id}", "regulation_version": "1",
            "rules": [
                {"when": [{"key": key, "op": "eq", "value": "deny"}],
                 "verdict": "deny", "reason": "no", "provision": "p"},
                {"when": [{"key": key, "op": "eq", "value": "conditions"}],
                 "verdict": "permit_with_conditions", "conditions": ["c"],
                 "provision": "p"},
                {"when": [], "verdict": "permit", "provision": "p"},
            ],
        })

    adapters = [stub(f"a{i}", f"k{i}") for i in range(len(classes))]
    op = DataOperation(
        op_kind=OpKind.EXPORT,
        context={f"k{i}": value for i, value in enumerate(classes)},
    )
    baseline, audit = compose(adapters, op)
    assert len(audit) == len(adapters)
    order = list(range(len(adapters)))
    shuffler.shuffle(order)
    permuted, _ = compose([adapters[i] for i in order], op)
    assert permuted.kind is baseline.kind


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["KEEP", "GONE", "NOPE"]),
            st.sampled_from(["v1", "v2", "v?"]),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_gate_partitions_arbitrary_batches(entries):
    system = tiny_system(
        codes={
            "v1": [{"code": c, "clinical_group": "g", "billing_category": "b",
                    "description": ""} for c in ("KEEP", "GONE")],
            "v2": [{"code": "KEEP", "clinical_group": "g", "billing_category": "b",
                    "description": ""}],
        },
        transitions=[{
            "from": "v1", "to": "v2",
            "mappings": [{"from_code": "KEEP", "to_code": "KEEP"}],
            "unmappable": ["GONE"],
        }],
    )
    batch = [
        row(f"R-{i}", code=code, version=version)
        for i, (code, version) in enumerate(entries)
    ]
    outcome = gate_batch(read_rows(batch), system, "v2")
    assert partition_oracle(
        [r["record_id"] for r in batch],
        outcome.accepted.record_id.tolist(),
        outcome.reconciled.record_id.tolist(),
        outcome.quarantined.record_id.tolist(),
    )
    originals = {r["record_id"]: r for r in rows(outcome.batch)}
    for item in rows(outcome.reconciled):
        table = system.tables[("v1", "v2")]
        assert item["primary_code"] == table.targets[originals[item["record_id"]]["primary_code"]][0]


@given(
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=200, deadline=None)
def test_fidelity_score_monotone_in_subscores(subscores, index, bump):
    weights = (0.3, 0.4, 0.3)
    score = sum(w * s for w, s in zip(weights, subscores))
    bumped = list(subscores)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert sum(w * s for w, s in zip(weights, bumped)) >= score - 1e-12


WALKTHROUGH = harness.load_scenario("diabetes-walkthrough")
WALKTHROUGH_SYSTEM = load_code_system(WALKTHROUGH.code_system_path)
BREAKER_THRESHOLD = load_config(WALKTHROUGH.config_path).breaker_threshold
# Each distortion a generated scenario may drop, with its value when dropped.
DROPPED = {"catch_all": (), "billing_inflation": (), "version_mix": {}, "outbreak": None,
           "ai_influence": None}

scenario_edits = st.fixed_dictionaries({
    "quarters": st.integers(1, 4),
    "n_per_quarter": st.integers(1, 2_000),
    "target_version": st.sampled_from(["2024", "2025"]),
    "distortions": st.sets(st.sampled_from(sorted(DROPPED))),
    "schedule": st.lists(st.one_of(st.just(BREAKER_THRESHOLD),
                                   st.floats(0.0, 2 * BREAKER_THRESHOLD)),
                         min_size=1, max_size=3),
})


def _edited_walkthrough(edits) -> harness.ScenarioSpec:
    """The walkthrough with ``edits``: its own distortions and an outbreak,
    less those not named in ``distortions``, and no assertions."""
    distortion = replace(
        WALKTHROUGH.distortion,
        outbreak=synthgen.OutbreakSpec("RESP-FLU", date(2025, 4, 1), 3.0),
        ai_influence=replace(WALKTHROUGH.distortion.ai_influence,
                             schedule=tuple(edits["schedule"])))
    distortion = replace(distortion, **{name: empty for name, empty in DROPPED.items()
                                        if name not in edits["distortions"]})
    return replace(WALKTHROUGH, quarters=edits["quarters"], n_per_quarter=edits["n_per_quarter"],
                   target_version=edits["target_version"], distortion=distortion, assertions=())


def _check_generated_scenario(edits, seed):
    """Runs the edited walkthrough twice and checks its run files: the gate
    partitions each quarter, the quarantine file holds the quarantined rows,
    the checkpoint annotates every processed row, and the breaker opens, and
    refuses, exactly when the influence ratio, recounted from the generated
    batch less its quarantined rows, strictly exceeds the threshold."""
    spec = _edited_walkthrough(edits)
    n = spec.n_per_quarter
    with tempfile.TemporaryDirectory() as tmp:
        out, again = Path(tmp, "run"), Path(tmp, "again")
        harness.run_scenario(spec, seed, out)
        harness.run_scenario(spec, seed, again)
        assert run_digests(out) == run_digests(again)
        trace = json.loads((out / "report.json").read_text(encoding="utf-8"))["trace"]
        with open(out / "influence_dashboard.csv", encoding="utf-8", newline="") as f:
            dashboard = list(csv.DictReader(f))
        assert len(dashboard) == spec.quarters
        for q in range(1, spec.quarters + 1):
            detail = {entry["stage"]: entry["detail"] for entry in trace if entry["quarter"] == q}
            quarantined = [json.loads(line) for line in
                           (out / f"q{q}" / "quarantine.jsonl").read_text(encoding="utf-8")
                           .splitlines()]
            gate = detail["gate.batch"]
            assert gate["accepted"] + gate["reconciled"] + gate["quarantined"] == n
            assert gate["quarantined"] == len(quarantined)
            processed = n - len(quarantined)
            assert detail["checkpoint.annotate"]["n"] == processed

            batch, _ = synthgen.generate_batch(
                WALKTHROUGH_SYSTEM, spec.distortion, n, seed=[seed, q - 1],
                window=synthgen.quarter_window(spec.start, q - 1), id_prefix=f"Q{q}",
                quarter_index=q - 1)
            ids = [line["record"]["record_id"] for line in quarantined]
            assert len(set(ids)) == len(ids) and set(ids) <= set(batch.record_id.tolist())
            tagged = int(np.count_nonzero(batch.tag >= 0)) - sum(
                line["record"]["influence_tag"] is not None for line in quarantined)
            ratio = tagged / processed if processed else 0.0
            state = dashboard[q - 1]["state"]
            assert dashboard[q - 1]["ratio"] == f"{ratio:.6f}"
            assert (state == "open") == (ratio > BREAKER_THRESHOLD)
            assert (out / f"q{q}" / "refusal.json").exists() == (state == "open")


def generated_scenario_property(max_examples: int):
    """The generated-scenario property, drawing ``max_examples`` edits of the
    bundled walkthrough: 1-4 quarters of 1-2,000 records, target 2024 or 2025,
    any subset of five distortions, and an AI schedule on either side of the
    breaker threshold. Tier-1 draws a few; a longer run by hand:

        PYTHONPATH=src:tests python -c \\
            "import test_properties as t; t.generated_scenario_property(500)()"

    A failing example found this way joins the ``@example`` cases below.
    """
    @settings(max_examples=max_examples, deadline=None)
    @given(edits=scenario_edits, seed=st.integers(0, 2**16))
    # Every record quarantined, each quarter: the 2025 batch is too small to
    # hold a code that maps back to 2024.
    @example(edits={"quarters": 2, "n_per_quarter": 3, "target_version": "2024",
                    "distortions": {"ai_influence", "billing_inflation", "catch_all",
                                    "version_mix"},
                    "schedule": [0.04, 0.08, 0.12]}, seed=1)
    # An influence ratio of exactly the threshold: 3 of 20 records, none quarantined.
    @example(edits={"quarters": 1, "n_per_quarter": 20, "target_version": "2025",
                    "distortions": {"ai_influence"}, "schedule": [BREAKER_THRESHOLD]}, seed=1)
    def check(edits, seed):
        _check_generated_scenario(edits, seed)
    return check


test_generated_scenarios_keep_the_run_invariants = generated_scenario_property(10)
