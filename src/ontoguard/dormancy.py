"""Active / dormant / pruned feature classification with a persisted store.

Low-frequency codes on the clinical-significance list are parked in a
dormant store with explicit activation conditions instead of being
discarded; pruned codes are logged so pruning stays auditable. Clinical
significance is always a configured code list, never inferred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .model import (
    CodedRecord,
    Layer,
    PipelineConfig,
    ValidationError,
    canonical_dumps,
    record_code,
)


class FeatureClass(str, Enum):
    ACTIVE = "active"
    DORMANT = "dormant"
    PRUNED = "pruned"


class ActivationKind(str, Enum):
    PREVALENCE_EXCEEDS = "prevalence_exceeds"
    DOMAIN_TRANSFER_REQUEST = "domain_transfer_request"
    OUTBREAK_SIGNAL = "outbreak_signal"


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

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind.value}
        if self.threshold is not None:
            data["threshold"] = self.threshold
        if self.domain is not None:
            data["domain"] = self.domain
        if self.signal_code is not None:
            data["signal_code"] = self.signal_code
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ActivationCondition":
        return cls(
            kind=ActivationKind(data["kind"]),
            threshold=data.get("threshold"),
            domain=data.get("domain"),
            signal_code=data.get("signal_code"),
        )


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


@dataclass(frozen=True)
class PruneLogEntry:
    code: str
    count: int
    last_observed: datetime


@dataclass(frozen=True)
class Event:
    """External trigger checked against dormant activation conditions."""

    kind: ActivationKind
    domain: str | None = None
    signal_code: str | None = None


@dataclass
class DormantStore:
    entries: dict[str, DormantEntry]
    prune_log: list[PruneLogEntry]
    path: Path | None = None


def classify_features(
    batch: Sequence[CodedRecord],
    significance_list: Iterable[str],
    cfg: PipelineConfig,
    layer: Layer,
) -> dict[str, FeatureClass]:
    """Classify every distinct code in the batch on the selected layer.

    Frequency at or above the dormancy threshold: active. Below threshold
    and on the significance list: dormant. Below threshold otherwise: pruned.
    """
    if not batch:
        raise ValidationError("cannot classify features of an empty batch")
    significant = set(significance_list)
    counts: dict[str, int] = {}
    for record in batch:
        code = record_code(record, layer)
        counts[code] = counts.get(code, 0) + 1
    n = len(batch)
    classification: dict[str, FeatureClass] = {}
    for code, count in counts.items():
        if count / n >= cfg.dormancy_frequency_threshold:
            classification[code] = FeatureClass.ACTIVE
        elif code in significant:
            classification[code] = FeatureClass.DORMANT
        else:
            classification[code] = FeatureClass.PRUNED
    return classification


def store_dormant(
    classification: Mapping[str, FeatureClass],
    batch: Sequence[CodedRecord],
    conditions_by_code: Mapping[str, Sequence[ActivationCondition]],
    layer: Layer,
    notes_by_code: Mapping[str, str] | None = None,
    path: str | Path | None = None,
    store: DormantStore | None = None,
) -> DormantStore:
    """Persist dormant entries and the prune log.

    Re-storing the same batch updates entries in place rather than
    duplicating them. Every pruned code is logged with its count.

    Raises:
        ValidationError: a dormant code has no configured activation
            condition (every entry must state when it comes back).
    """
    notes = notes_by_code or {}
    if store is None:
        store = DormantStore(entries={}, prune_log=[], path=None if path is None else Path(path))
    elif path is not None:
        store.path = Path(path)

    stats: dict[str, dict[str, Any]] = {}
    for record in batch:
        code = record_code(record, layer)
        info = stats.setdefault(code, {"count": 0, "co": {}, "last": record.encounter_time})
        info["count"] += 1
        if record.encounter_time > info["last"]:
            info["last"] = record.encounter_time
        for co in record.co_codes:
            info["co"][co] = info["co"].get(co, 0) + 1

    n = len(batch)
    for code, feature_class in sorted(classification.items()):
        info = stats.get(code)
        if info is None:
            continue
        if feature_class is FeatureClass.DORMANT:
            conditions = tuple(conditions_by_code.get(code, ()))
            if not conditions:
                raise ValidationError(
                    f"dormant code {code!r} has no configured activation condition"
                )
            top = sorted(info["co"].items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            store.entries[code] = DormantEntry(
                code=code,
                count=info["count"],
                frequency=info["count"] / n,
                top_co_codes=tuple(top),
                significance_note=notes.get(code, ""),
                activation_conditions=conditions,
                last_observed=info["last"],
            )
        elif feature_class is FeatureClass.PRUNED:
            store.prune_log = [e for e in store.prune_log if e.code != code]
            store.prune_log.append(PruneLogEntry(
                code=code, count=info["count"], last_observed=info["last"],
            ))
    store.prune_log.sort(key=lambda e: e.code)
    if store.path is not None:
        write_store(store, store.path)
    return store


def check_activation(
    store: DormantStore,
    quarterly_batch: Sequence[CodedRecord],
    events: Sequence[Event],
    layer: Layer,
) -> list[tuple[str, ActivationCondition]]:
    """Codes whose activation conditions fire against this quarter.

    A code appears once per triggered condition; prevalence conditions use
    strict exceedance, so adding more records of a code never un-triggers.
    """
    n = len(quarterly_batch)
    counts: dict[str, int] = {}
    for record in quarterly_batch:
        code = record_code(record, layer)
        counts[code] = counts.get(code, 0) + 1
    activations: list[tuple[str, ActivationCondition]] = []
    for code in sorted(store.entries):
        entry = store.entries[code]
        prevalence = counts.get(code, 0) / n if n else 0.0
        for condition in entry.activation_conditions:
            if condition.kind is ActivationKind.PREVALENCE_EXCEEDS:
                if condition.threshold is not None and prevalence > condition.threshold:
                    activations.append((code, condition))
            elif condition.kind is ActivationKind.DOMAIN_TRANSFER_REQUEST:
                if any(e.kind is condition.kind and e.domain == condition.domain
                       for e in events):
                    activations.append((code, condition))
            elif condition.kind is ActivationKind.OUTBREAK_SIGNAL:
                if any(e.kind is condition.kind and e.signal_code == condition.signal_code
                       for e in events):
                    activations.append((code, condition))
    return activations


def write_store(store: DormantStore, path: str | Path) -> None:
    payload = [
        {
            "code": entry.code,
            "count": entry.count,
            "frequency": entry.frequency,
            "top_co_codes": [[c, n] for c, n in entry.top_co_codes],
            "significance_note": entry.significance_note,
            "activation_conditions": [c.to_dict() for c in entry.activation_conditions],
            "last_observed": entry.last_observed.isoformat(),
        }
        for _, entry in sorted(store.entries.items())
    ]
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


# Keys of every entry ``write_store`` writes, in its order.
_STORE_KEYS = (
    "code", "count", "frequency", "top_co_codes", "significance_note",
    "activation_conditions", "last_observed",
)


def read_store(path: str | Path) -> DormantStore:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"dormant store not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"dormant store {path} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValidationError(f"dormant store {path} must be a JSON list of entries")
    entries = {}
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValidationError(f"dormant store {path} entry {index} is not an object")
        missing = [key for key in _STORE_KEYS if key not in item]
        if missing:
            raise ValidationError(
                f"dormant store {path} entry {index} is missing key {missing[0]!r}"
            )
        entries[item["code"]] = DormantEntry(
            code=item["code"],
            count=item["count"],
            frequency=item["frequency"],
            top_co_codes=tuple((c, n) for c, n in item["top_co_codes"]),
            significance_note=item["significance_note"],
            activation_conditions=tuple(
                ActivationCondition.from_dict(c) for c in item["activation_conditions"]
            ),
            last_observed=datetime.fromisoformat(item["last_observed"]),
        )
    return DormantStore(entries=entries, prune_log=[], path=Path(path))


def write_prune_log(store: DormantStore, path: str | Path) -> None:
    lines = ["code,count,last_observed"]
    for entry in store.prune_log:
        lines.append(f"{entry.code},{entry.count},{entry.last_observed.isoformat()}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
