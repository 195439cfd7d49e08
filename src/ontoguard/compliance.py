"""Pluggable, jurisdiction-tagged compliance adapters.

An adapter is a versioned rule set loaded from a file: an ordered list of
predicate rules over a data operation's context, terminated by a mandatory
default rule so evaluation is total. Rules are declarative configuration,
never compiled-in legal logic, and the shipped fixtures are demonstration
content only. Composition runs every adapter (a deny never short-circuits,
so the audit trail stays complete) and the first most restrictive verdict
prevails: deny > permit-with-conditions > permit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .model import ValidationError, load_json, write_json


class OpKind(str, Enum):
    INGEST = "ingest"
    TRAIN = "train"
    DEPLOY = "deploy"
    EXPORT = "export"
    PREDICT = "predict"


ContextValue = str | int | float | bool


@dataclass(frozen=True)
class DataOperation:
    op_kind: OpKind
    context: Mapping[str, ContextValue]


class VerdictKind(str, Enum):
    PERMIT = "permit"
    PERMIT_WITH_CONDITIONS = "permit_with_conditions"
    DENY = "deny"


# deny > permit_with_conditions > permit
RESTRICTIVENESS = {
    VerdictKind.PERMIT: 0,
    VerdictKind.PERMIT_WITH_CONDITIONS: 1,
    VerdictKind.DENY: 2,
}


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    conditions: tuple[str, ...] = ()
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind is VerdictKind.PERMIT_WITH_CONDITIONS and not self.conditions:
            raise ValidationError("permit_with_conditions requires at least one condition")
        if self.kind is VerdictKind.DENY and not self.reason:
            raise ValidationError("deny requires a non-empty reason")


@dataclass(frozen=True)
class AuditEntry:
    regulation_id: str
    regulation_version: str
    provision: str
    reasoning: str
    adapter_id: str
    timestamp: str

    def __post_init__(self) -> None:
        for name in ("regulation_id", "regulation_version", "provision",
                     "reasoning", "adapter_id", "timestamp"):
            if not getattr(self, name):
                raise ValidationError(f"audit entry field {name} must be non-empty")


_OPS = {"eq", "ne", "lt", "le", "gt", "ge", "present", "absent"}


@dataclass(frozen=True)
class Clause:
    key: str
    op: str
    value: ContextValue | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValidationError(f"unknown clause operator {self.op!r}")
        if self.value is None and self.op not in ("present", "absent"):
            raise ValidationError(f"clause on {self.key!r} with op {self.op!r} requires a value")

    def matches(self, op: DataOperation) -> bool:
        if self.key == "op_kind":
            actual: ContextValue | None = op.op_kind.value
        else:
            actual = op.context.get(self.key)
        if self.op == "present":
            return actual is not None
        if self.op == "absent":
            return actual is None
        if actual is None:
            return False
        if self.op == "eq":
            return actual == self.value
        if self.op == "ne":
            return actual != self.value
        try:
            a, b = float(actual), float(self.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b}[self.op]


@dataclass(frozen=True)
class Rule:
    """One rule as an adapter file writes it: the verdict's kind, conditions
    and reason sit beside the clauses, and ``verdict`` is built from them."""

    kind: VerdictKind = field(metadata={"json": "verdict"})
    provision: str
    when: tuple[Clause, ...] = ()
    conditions: tuple[str, ...] = ()
    reason: str = ""
    verdict: Verdict = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdict", Verdict(self.kind, self.conditions, self.reason))

    def matches(self, op: DataOperation) -> bool:
        return all(clause.matches(op) for clause in self.when)


@dataclass(frozen=True)
class AdapterRuleSet:
    adapter_id: str
    jurisdiction_tag: str = field(metadata={"json": "jurisdiction"})
    regulation_id: str
    regulation_version: str
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules or self.rules[-1].when:
            raise ValidationError(f"adapter {self.adapter_id!r}: rule set must end with an "
                                  "unconditional default rule")


def load_adapter(path: str | Path) -> AdapterRuleSet:
    """Load one adapter rule file; malformed conditions fail here, at load
    time, never during evaluation."""
    return load_json(path, "adapter file", AdapterRuleSet)


# Deterministic placeholder used when no wall-clock timestamp is supplied,
# so identical evaluations serialize identically.
EPOCH_TIMESTAMP = "1970-01-01T00:00:00+00:00"


def evaluate(
    adapter: AdapterRuleSet,
    op: DataOperation,
    now: datetime | None = None,
) -> tuple[Verdict, AuditEntry]:
    """First matching rule fires (the last rule has no clauses, so one
    always does); the audit entry cites its provision."""
    rule = next(rule for rule in adapter.rules if rule.matches(op))
    verdict = rule.verdict
    if verdict.kind is VerdictKind.DENY:
        reasoning = f"denied: {verdict.reason}"
    elif verdict.kind is VerdictKind.PERMIT_WITH_CONDITIONS:
        reasoning = "permitted subject to: " + "; ".join(verdict.conditions)
    else:
        reasoning = "permitted with no applicable restriction"
    return verdict, AuditEntry(
        regulation_id=adapter.regulation_id,
        regulation_version=adapter.regulation_version,
        provision=rule.provision,
        reasoning=f"{op.op_kind.value}: {reasoning}",
        adapter_id=adapter.adapter_id,
        timestamp=EPOCH_TIMESTAMP if now is None else now.isoformat(),
    )


def compose(
    adapters: Sequence[AdapterRuleSet],
    op: DataOperation,
    now: datetime | None = None,
) -> tuple[Verdict, list[AuditEntry]]:
    """Evaluate every adapter and keep the first most restrictive verdict.

    All adapters run even after a deny so each contributes exactly one audit
    entry. A deny keeps its reason. A conditional permit carries the
    conditions of every verdict that lists any, in adapter order with
    duplicates removed; conflicting conditions are not resolved here, only
    surfaced together.
    """
    if not adapters:
        raise ValidationError("compose requires at least one adapter")
    verdicts, audit = zip(*(evaluate(adapter, op, now=now) for adapter in adapters))
    worst = max(verdicts, key=lambda verdict: RESTRICTIVENESS[verdict.kind])
    if worst.kind is VerdictKind.DENY:
        return Verdict(kind=VerdictKind.DENY, reason=worst.reason), list(audit)
    if worst.kind is VerdictKind.PERMIT:
        return Verdict(kind=VerdictKind.PERMIT), list(audit)
    carrying = [verdict for verdict in verdicts if verdict.conditions]
    note = ("conditions from multiple adapters concatenated; "
            "potential conflicts flagged, not resolved") if len(carrying) > 1 else ""
    conditions = tuple(dict.fromkeys(c for verdict in carrying for c in verdict.conditions))
    return Verdict(VerdictKind.PERMIT_WITH_CONDITIONS, conditions, note), list(audit)


def write_decision(
    verdict: Verdict, audit: Sequence[AuditEntry], path: str | Path
) -> None:
    write_json(path, {"verdict": verdict, "audit_trail": audit})
