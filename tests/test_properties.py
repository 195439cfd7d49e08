"""Property tests for the invariants that must hold on arbitrary inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_rows, row, rows, tiny_system
from ontoguard.compliance import (
    RESTRICTIVENESS,
    AdapterRuleSet,
    DataOperation,
    OpKind,
    VerdictKind,
    compose,
)
from ontoguard.model import from_json
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
