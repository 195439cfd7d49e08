"""Compliance adapters: rule evaluation, composition algebra, audit trails."""

import itertools
import json
from datetime import datetime, timezone

import pytest

from ontoguard.compliance import (
    RESTRICTIVENESS,
    AdapterRuleSet,
    DataOperation,
    OpKind,
    Verdict,
    VerdictKind,
    compose,
    evaluate,
    load_adapter,
)
from ontoguard.harness import fixture_dir
from ontoguard.model import ValidationError, from_json


@pytest.fixture(scope="module")
def demo_adapters():
    adapter_dir = fixture_dir() / "adapters"
    return [
        load_adapter(adapter_dir / name)
        for name in ("ai_act_demo.json", "mdr_demo.json", "ehds_demo.json")
    ]


def deploy_op(**context):
    defaults = {
        "model_card_present": True,
        "training_docs_complete": True,
        "risk_class": "high",
        "initiates_treatment": False,
        "data_authorization": "valid",
        "purpose": "clinical decision support",
        "oversight_percentile": 90,
    }
    defaults.update(context)
    return DataOperation(op_kind=OpKind.DEPLOY, context=defaults)


def stub_adapter(adapter_id: str, key: str) -> AdapterRuleSet:
    """Adapter whose verdict class is forced through one context key."""
    return from_json(AdapterRuleSet, {
        "adapter_id": adapter_id,
        "jurisdiction": "TEST",
        "regulation_id": f"REG-{adapter_id}",
        "regulation_version": "1",
        "rules": [
            {"when": [{"key": key, "op": "eq", "value": "deny"}],
             "verdict": "deny", "reason": f"{adapter_id} says no",
             "provision": "p-deny"},
            {"when": [{"key": key, "op": "eq", "value": "conditions"}],
             "verdict": "permit_with_conditions",
             "conditions": [f"{adapter_id} condition"],
             "provision": "p-cond"},
            {"when": [], "verdict": "permit", "provision": "p-default"},
        ],
    })


class TestEvaluate:
    def test_missing_model_card_denied_with_provision(self, demo_adapters):
        ai_act = demo_adapters[0]
        verdict, entry = evaluate(ai_act, deploy_op(model_card_present=False))
        assert verdict.kind is VerdictKind.DENY
        assert "transparency" in verdict.reason
        assert "article 13" in entry.provision
        assert entry.adapter_id == "ai-act-demo"

    def test_high_risk_deploy_gets_oversight_condition(self, demo_adapters):
        verdict, entry = evaluate(demo_adapters[0], deploy_op())
        assert verdict.kind is VerdictKind.PERMIT_WITH_CONDITIONS
        assert any("90th percentile" in c for c in verdict.conditions)
        assert "article 14" in entry.provision

    def test_unmatched_op_falls_to_default(self, demo_adapters):
        op = DataOperation(op_kind=OpKind.PREDICT, context={})
        verdict, entry = evaluate(demo_adapters[0], op)
        assert verdict.kind is VerdictKind.PERMIT
        assert "default" in entry.provision

    def test_audit_entry_fields_non_empty(self, demo_adapters):
        for adapter in demo_adapters:
            _, entry = evaluate(adapter, deploy_op())
            for field in ("regulation_id", "regulation_version", "provision",
                          "reasoning", "adapter_id", "timestamp"):
                assert getattr(entry, field)

    def test_deterministic_default_timestamp(self, demo_adapters):
        _, a = evaluate(demo_adapters[0], deploy_op())
        _, b = evaluate(demo_adapters[0], deploy_op())
        assert a == b

    def test_explicit_timestamp_recorded(self, demo_adapters):
        now = datetime(2025, 9, 30, 23, 59, 59, tzinfo=timezone.utc)
        _, entry = evaluate(demo_adapters[0], deploy_op(), now=now)
        assert entry.timestamp == now.isoformat()


class TestCompose:
    def test_conditional_permit_beats_permits(self):
        adapters = [stub_adapter("a1", "k1"), stub_adapter("a2", "k2"),
                    stub_adapter("a3", "k3")]
        op = DataOperation(op_kind=OpKind.EXPORT, context={"k2": "conditions"})
        verdict, audit = compose(adapters, op)
        assert verdict.kind is VerdictKind.PERMIT_WITH_CONDITIONS
        assert verdict.conditions == ("a2 condition",)
        assert len(audit) == 3

    def test_any_deny_prevails_with_its_reason(self):
        adapters = [stub_adapter("a1", "k1"), stub_adapter("a2", "k2")]
        op = DataOperation(op_kind=OpKind.EXPORT,
                           context={"k1": "conditions", "k2": "deny"})
        verdict, audit = compose(adapters, op)
        assert verdict.kind is VerdictKind.DENY
        assert verdict.reason == "a2 says no"
        assert len(audit) == 2  # the deny does not short-circuit the audit

    def test_walkthrough_deploy_collects_both_conditions(self, demo_adapters):
        verdict, audit = compose(demo_adapters, deploy_op())
        assert verdict.kind is VerdictKind.PERMIT_WITH_CONDITIONS
        joined = " | ".join(verdict.conditions)
        assert "90th percentile" in joined
        assert "review this assessment" in joined
        assert [e.adapter_id for e in audit] == ["ai-act-demo", "mdr-demo", "ehds-demo"]
        # Two adapters contributed conditions: the unresolved-conflict note
        # is flagged rather than silently merged away.
        assert "not resolved" in verdict.reason

    def test_single_conditional_source_has_no_conflict_note(self):
        adapters = [stub_adapter("a1", "k1"), stub_adapter("a2", "k2")]
        op = DataOperation(op_kind=OpKind.EXPORT, context={"k1": "conditions"})
        verdict, _ = compose(adapters, op)
        assert verdict.reason == ""

    def test_exhaustive_verdict_class_combinations(self):
        # All 27 combinations of three adapters' verdict classes compose to
        # the most restrictive class with a complete audit trail.
        adapters = [stub_adapter(f"a{i}", f"k{i}") for i in range(3)]
        for combo in itertools.product(("permit", "conditions", "deny"), repeat=3):
            op = DataOperation(
                op_kind=OpKind.EXPORT,
                context={f"k{i}": value for i, value in enumerate(combo)},
            )
            verdict, audit = compose(adapters, op)
            kinds = [
                VerdictKind.DENY if value == "deny"
                else VerdictKind.PERMIT_WITH_CONDITIONS if value == "conditions"
                else VerdictKind.PERMIT
                for value in combo
            ]
            expected = max(kinds, key=RESTRICTIVENESS.get)
            assert verdict.kind is expected, combo
            assert len(audit) == 3

    def test_composition_order_invariant_for_class(self):
        adapters = [stub_adapter(f"a{i}", f"k{i}") for i in range(3)]
        op = DataOperation(
            op_kind=OpKind.EXPORT,
            context={"k0": "permit", "k1": "conditions", "k2": "conditions"},
        )
        kinds = set()
        for order in itertools.permutations(adapters):
            verdict, _ = compose(list(order), op)
            kinds.add(verdict.kind)
            assert set(verdict.conditions) == {"a1 condition", "a2 condition"}
        assert kinds == {VerdictKind.PERMIT_WITH_CONDITIONS}

    def test_duplicate_conditions_deduplicated_in_order(self):
        shared = from_json(AdapterRuleSet, {
            "adapter_id": "dup", "jurisdiction": "T", "regulation_id": "R",
            "regulation_version": "1",
            "rules": [{"when": [], "verdict": "permit_with_conditions",
                       "conditions": ["same condition"], "provision": "p"}],
        })
        verdict, _ = compose([shared, shared],
                             DataOperation(op_kind=OpKind.EXPORT, context={}))
        assert verdict.conditions == ("same condition",)

    def test_empty_adapter_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one adapter"):
            compose([], DataOperation(op_kind=OpKind.EXPORT, context={}))


class TestLoadErrors:
    def test_rule_set_must_end_with_default(self):
        named = "^adapter 'x': rule set must end with an unconditional default rule$"
        with pytest.raises(ValidationError, match=named):
            from_json(AdapterRuleSet, {
                "adapter_id": "x", "jurisdiction": "T", "regulation_id": "R",
                "regulation_version": "1",
                "rules": [{"when": [{"key": "a", "op": "eq", "value": 1}],
                           "verdict": "permit", "provision": "p"}],
            })
        with pytest.raises(ValidationError, match=named):  # the class checks itself
            AdapterRuleSet("x", "T", "R", "1", rules=())

    def test_unknown_operator_rejected_at_load(self):
        with pytest.raises(ValidationError, match="unknown clause operator"):
            from_json(AdapterRuleSet, {
                "adapter_id": "x", "jurisdiction": "T", "regulation_id": "R",
                "regulation_version": "1",
                "rules": [{"when": [{"key": "a", "op": "matches", "value": 1}],
                           "verdict": "permit", "provision": "p"},
                          {"when": [], "verdict": "permit", "provision": "p"}],
            })

    def test_comparison_without_value_rejected(self):
        with pytest.raises(ValidationError, match="requires a value"):
            from_json(AdapterRuleSet, {
                "adapter_id": "x", "jurisdiction": "T", "regulation_id": "R",
                "regulation_version": "1",
                "rules": [{"when": [{"key": "a", "op": "gt"}],
                           "verdict": "permit", "provision": "p"},
                          {"when": [], "verdict": "permit", "provision": "p"}],
            })

    def test_conditional_permit_requires_conditions(self):
        with pytest.raises(ValidationError, match="at least one condition"):
            from_json(AdapterRuleSet, {
                "adapter_id": "x", "jurisdiction": "T", "regulation_id": "R",
                "regulation_version": "1",
                "rules": [{"when": [], "verdict": "permit_with_conditions",
                           "provision": "p"}],
            })

    def test_deny_requires_reason(self):
        with pytest.raises(ValidationError, match="reason"):
            Verdict(kind=VerdictKind.DENY)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_adapter(tmp_path / "nope.json")


class TestNumericClauses:
    def test_numeric_comparisons(self):
        adapter = from_json(AdapterRuleSet, {
            "adapter_id": "n", "jurisdiction": "T", "regulation_id": "R",
            "regulation_version": "1",
            "rules": [
                {"when": [{"key": "volume", "op": "gt", "value": 100}],
                 "verdict": "deny", "reason": "volume cap", "provision": "p1"},
                {"when": [{"key": "volume", "op": "present"}],
                 "verdict": "permit", "provision": "p2"},
                {"when": [], "verdict": "permit_with_conditions",
                 "conditions": ["declare volume"], "provision": "p3"},
            ],
        })
        high = DataOperation(op_kind=OpKind.INGEST, context={"volume": 500})
        low = DataOperation(op_kind=OpKind.INGEST, context={"volume": 50})
        missing = DataOperation(op_kind=OpKind.INGEST, context={})
        assert evaluate(adapter, high)[0].kind is VerdictKind.DENY
        assert evaluate(adapter, low)[0].kind is VerdictKind.PERMIT
        assert evaluate(adapter, missing)[0].kind is VerdictKind.PERMIT_WITH_CONDITIONS

    def test_clause_values_keep_their_json_type(self):
        adapter = from_json(AdapterRuleSet, {
            "adapter_id": "n", "jurisdiction": "T", "regulation_id": "R",
            "regulation_version": "1",
            "rules": [{"when": [{"key": "a", "op": "eq", "value": 5},
                                {"key": "b", "op": "eq", "value": 5.0},
                                {"key": "c", "op": "eq", "value": True}],
                       "verdict": "permit", "provision": "p"},
                      {"verdict": "permit", "provision": "p"}],
        })
        assert [(type(c.value), c.value) for c in adapter.rules[0].when] == [
            (int, 5), (float, 5.0), (bool, True)]
