"""Active / dormant / pruned feature classification with a persisted store.

Low-frequency codes on the clinical-significance list are parked in a
dormant store with explicit activation conditions instead of being
discarded; pruned codes are logged so pruning stays auditable. Clinical
significance is always a configured code list, never inferred. A parked
code wakes when a condition fires, and an event is the condition it fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .model import (BatchProfile, PipelineConfig, ValidationError, load_json,
                    to_json, write_csv, write_json)


class FeatureClass(str, Enum):
    ACTIVE = "active"
    DORMANT = "dormant"
    PRUNED = "pruned"


class ActivationKind(str, Enum):
    PREVALENCE_EXCEEDS = "prevalence_exceeds"
    DOMAIN_TRANSFER_REQUEST = "domain_transfer_request"
    OUTBREAK_SIGNAL = "outbreak_signal"


# The one field each kind of condition reads, in the kinds' order.
_READS = dict(zip(ActivationKind, ("threshold", "domain", "signal_code")))


@dataclass(frozen=True)
class ActivationCondition:
    kind: ActivationKind
    # PREVALENCE_EXCEEDS: threshold in (0,1), evaluated per quarterly batch.
    threshold: float | None = None
    # DOMAIN_TRANSFER_REQUEST: the requesting domain id.
    domain: str | None = None
    # OUTBREAK_SIGNAL: the code the outbreak signal refers to.
    signal_code: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ActivationKind.PREVALENCE_EXCEEDS:
            if self.threshold is None or not 0.0 < self.threshold < 1.0:
                raise ValidationError(
                    f"prevalence_exceeds threshold must be in (0,1), got {self.threshold}"
                )
        elif self.kind is ActivationKind.DOMAIN_TRANSFER_REQUEST and not self.domain:
            raise ValidationError("domain_transfer_request requires a domain id")
        elif self.kind is ActivationKind.OUTBREAK_SIGNAL and not self.signal_code:
            raise ValidationError("outbreak_signal requires a code")
        for name in _READS.values():
            if name != _READS[self.kind] and getattr(self, name) is not None:
                raise ValidationError(f"{self.kind.value} condition must not set {name}")

    def to_dict(self) -> dict[str, Any]:
        return {key: value for key, value in to_json(self).items() if value is not None}


# Activation conditions by code, as a conditions file holds them.
Conditions = Mapping[str, tuple[ActivationCondition, ...]]


@dataclass(frozen=True)
class DormantEntry:
    """Summary representation of a parked code: counts plus top co-codes,
    not raw records, to keep the store small."""

    code: str
    count: int
    frequency: float
    top_co_codes: tuple[tuple[str, int], ...]
    significance_note: str
    activation_conditions: tuple[ActivationCondition, ...]
    last_observed: datetime

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValidationError(f"count must be >= 0, got {self.count}")
        if not 0.0 <= self.frequency <= 1.0:
            raise ValidationError(f"frequency must be in [0,1], got {self.frequency}")


@dataclass(frozen=True)
class PruneLogEntry:
    code: str
    count: int
    last_observed: datetime


@dataclass(frozen=True)
class DormantStore:
    entries: Mapping[str, DormantEntry]
    prune_log: tuple[PruneLogEntry, ...]


def classify_features(
    profile: BatchProfile,
    significance_list: Iterable[str],
    cfg: PipelineConfig,
) -> dict[str, FeatureClass]:
    """Classify every distinct code of the profiled batch on its layer.

    Frequency at or above the dormancy threshold: active. Below threshold
    and on the significance list: dormant. Below threshold otherwise: pruned.
    """
    if not profile.n:
        raise ValidationError("cannot classify features of an empty batch")
    significant = set(significance_list)
    classification: dict[str, FeatureClass] = {}
    for code, usage in profile.codes.items():
        if usage.count / profile.n >= cfg.dormancy_frequency_threshold:
            classification[code] = FeatureClass.ACTIVE
        elif code in significant:
            classification[code] = FeatureClass.DORMANT
        else:
            classification[code] = FeatureClass.PRUNED
    return classification


def store_dormant(
    classification: Mapping[str, FeatureClass],
    profile: BatchProfile,
    conditions_by_code: Mapping[str, Sequence[ActivationCondition]],
    notes_by_code: Mapping[str, str],
    store: DormantStore | None = None,
) -> DormantStore:
    """``store`` with this batch's dormant entries and pruned codes added.

    Re-storing the same batch replaces entries rather than duplicating
    them, and ``store`` itself is left as it was. Every pruned code is
    logged with its count and leaves the dormant entries.

    Raises:
        ValidationError: a dormant code has no configured activation
            condition (every entry must state when it comes back).
    """
    entries = dict(store.entries) if store else {}
    prune_log = {entry.code: entry for entry in store.prune_log} if store else {}
    for code, feature_class in sorted(classification.items()):
        usage = profile.codes.get(code)
        if usage is None:
            continue
        if feature_class is FeatureClass.DORMANT:
            conditions = tuple(conditions_by_code.get(code, ()))
            if not conditions:
                raise ValidationError(
                    f"dormant code {code!r} has no configured activation condition"
                )
            top = sorted(usage.co_codes.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            entries[code] = DormantEntry(
                code=code,
                count=usage.count,
                frequency=usage.count / profile.n,
                top_co_codes=tuple(top),
                significance_note=notes_by_code.get(code, ""),
                activation_conditions=conditions,
                last_observed=usage.last_seen,
            )
        elif feature_class is FeatureClass.PRUNED:
            entries.pop(code, None)
            prune_log[code] = PruneLogEntry(
                code=code, count=usage.count, last_observed=usage.last_seen,
            )
    return DormantStore(entries, tuple(entry for _, entry in sorted(prune_log.items())))


def check_activation(
    store: DormantStore,
    quarter: BatchProfile,
    events: Sequence[ActivationCondition],
) -> list[tuple[str, ActivationCondition]]:
    """Codes whose activation conditions fire against this quarter's profile.

    A prevalence condition fires when the code's share of the quarter
    strictly exceeds its threshold, so adding more records of a code never
    un-triggers; any other condition fires when ``events`` holds an equal
    condition. A code appears once per triggered condition.
    """
    activations: list[tuple[str, ActivationCondition]] = []
    for code in sorted(store.entries):
        usage = quarter.codes.get(code)
        prevalence = usage.count / quarter.n if usage is not None else 0.0
        activations += [
            (code, condition) for condition in store.entries[code].activation_conditions
            if (prevalence > condition.threshold
                if condition.kind is ActivationKind.PREVALENCE_EXCEEDS else condition in events)
        ]
    return activations


def write_store(store: DormantStore, path: str | Path) -> None:
    write_json(path, [
        {**vars(entry),
         "activation_conditions": [c.to_dict() for c in entry.activation_conditions]}
        for _, entry in sorted(store.entries.items())
    ])


def read_store(path: str | Path) -> DormantStore:
    entries = load_json(path, "dormant store", tuple[DormantEntry, ...])
    return DormantStore({entry.code: entry for entry in entries}, ())


def write_prune_log(store: DormantStore, path: str | Path) -> None:
    write_csv(path, ["code", "count", "last_observed"],
              ([entry.code, entry.count, entry.last_observed.isoformat()]
               for entry in store.prune_log))
