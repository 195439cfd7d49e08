"""Terminology version enforcement at ingestion.

Terminology releases are treated as schema migrations: records carry a
version tag, cross-version records are reconciled through official
transition tables, and anything that cannot be mapped safely is quarantined
with a reason instead of being dropped or force-mapped. Reconciliation is
one hop at a time (adjacent tables composed along the version chain); an
ambiguous one-to-many mapping counts as unmappable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .model import (
    CodeSystem,
    RecordBatch,
    ValidationError,
    intern,
    iter_jsonl,
    write_jsonl,
)


class QuarantineReason(str, Enum):
    UNMAPPABLE_CODE = "unmappable_code"
    UNVALIDATED_VERSION = "unvalidated_version"
    UNKNOWN_CODE = "unknown_code"


# A row's gate status: accepted, reconciled, or the index of its reason in
# QUARANTINE_REASONS.
ACCEPTED, RECONCILED = -2, -1
QUARANTINE_REASONS = tuple(QuarantineReason)


@dataclass(frozen=True, eq=False)
class GateOutcome:
    """Partition of an input batch; cardinality is always conserved.

    ``gated`` is the input batch with each reconciled row's code and
    version mapped to the target; ``status`` is each row's bucket. A
    reconciled row's original code and version stay in ``batch``.
    """

    batch: RecordBatch
    gated: RecordBatch
    status: np.ndarray

    def total(self) -> int:
        return len(self.status)

    def counts(self) -> dict[str, int]:
        return {"accepted": int(np.count_nonzero(self.status == ACCEPTED)),
                "reconciled": int(np.count_nonzero(self.status == RECONCILED)),
                "quarantined": int(np.count_nonzero(self.status >= 0))}

    @property
    def accepted(self) -> RecordBatch:
        return self.gated.select(self.status == ACCEPTED)

    @property
    def reconciled(self) -> RecordBatch:
        return self.gated.select(self.status == RECONCILED)

    @property
    def quarantined(self) -> RecordBatch:
        """The quarantined rows as they arrived."""
        return self.batch.select(self.status >= 0)

    def quarantine_reasons(self) -> list[QuarantineReason]:
        """Each row of ``quarantined``'s reason, in the same order."""
        return [QUARANTINE_REASONS[s] for s in self.status[self.status >= 0].tolist()]

    def processed_records(self) -> RecordBatch:
        """Accepted plus reconciled records, sorted by ``record_id`` with no copy
        of the ids; equal ids keep accepted rows first, each in row order."""
        order = np.lexsort((self.status != ACCEPTED, self.gated.record_id))
        return self.gated.select(order[self.status[order] < 0])


class MigrationVerdict(str, Enum):
    VALIDATED = "validated"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class MigrationReport:
    from_version: str
    to_version: str
    mapping_coverage: float
    changed_codes: tuple[str, ...]
    unmappable_codes: tuple[str, ...]
    verdict: MigrationVerdict


def _map_code(
    system: CodeSystem, code: str, from_version: str, to_version: str
) -> str | None:
    """Image of a code under the composed adjacent transition tables, or
    None when any hop is missing, ambiguous, or lists the code unmappable."""
    current = code
    for hop in system.version_chain(from_version, to_version):
        table = system.tables.get(hop)
        if table is None:
            return None
        if current in table.unmappable:
            return None
        targets = table.targets.get(current)
        if targets is None or len(targets) != 1:
            return None
        current = targets[0]
    return current


def _gate(system: CodeSystem, code: str, version: str, target_version: str
          ) -> tuple[int, str]:
    """The gate status of a record with ``code`` on ``version``, and its code after the gate."""
    if version == target_version:
        known = code in system.codes(target_version)
        return (ACCEPTED if known else QUARANTINE_REASONS.index(QuarantineReason.UNKNOWN_CODE),
                code)
    if not system.has_version(version) or not system.version(version).validated:
        reason = QuarantineReason.UNVALIDATED_VERSION
    elif system.version_chain(target_version, version):
        # No reverse tables exist; a newer-than-target record is unmappable.
        reason = QuarantineReason.UNMAPPABLE_CODE
    elif code not in system.codes(version):
        reason = QuarantineReason.UNKNOWN_CODE
    else:
        mapped = _map_code(system, code, version, target_version)
        if mapped is not None:
            return RECONCILED, mapped
        reason = QuarantineReason.UNMAPPABLE_CODE
    return QUARANTINE_REASONS.index(reason), code


def gate_batch(
    batch: RecordBatch,
    system: CodeSystem,
    target_version: str,
) -> GateOutcome:
    """Partition a batch into accepted / reconciled / quarantined.

    Records already on the target version are accepted (unknown codes
    quarantined); records on an older validated version whose code has a
    total one-to-one mapping are reconciled with the original code and
    version preserved; everything else is quarantined with a reason. The
    outcome depends on a record's code and version alone, so each distinct
    pair is gated once.

    Raises:
        ValidationError: target version unknown or not validated; the gate
            refuses to run rather than force data through.
    """
    target = system.version(target_version)
    if not target.validated:
        raise ValidationError(
            f"target version {target_version!r} has not passed migration validation"
        )
    pairs, _, inverse = batch.groups("code", "version")
    outcomes = [_gate(system, code, version, target_version) for code, version in pairs]
    status = np.array([gated for gated, _ in outcomes], dtype=np.int8)[inverse]
    mapped, codes = intern([image for _, image in outcomes], batch.codes)
    (target_index,), versions = intern([target_version], batch.versions)
    gated = replace(
        batch, code=mapped[inverse], codes=codes,
        version=np.where(status == RECONCILED, target_index, batch.version).astype(np.int32),
        versions=versions,
    )
    return GateOutcome(batch=batch, gated=gated, status=status)


def validate_migration(
    system: CodeSystem,
    from_version: str,
    to_version: str,
    observed_codes: Iterable[str],
) -> MigrationReport:
    """The gate's verdict on the codes actually observed.

    An observed code is covered when the gate would not quarantine a
    ``from_version`` record holding it, gating to ``to_version``; a covered
    code the gate reconciles to a different code is changed. The migration
    is validated exactly when every observed code is covered, and blocked
    when any is not.
    """
    for label in (from_version, to_version):
        system.version(label)  # raises on an unknown label
    observed = sorted(set(observed_codes))
    changed: list[str] = []
    uncovered: list[str] = []
    for code in observed:
        status, mapped = _gate(system, code, from_version, to_version)
        if status >= 0:
            uncovered.append(code)
        elif mapped != code:
            changed.append(code)
    coverage = 1.0 if not observed else (len(observed) - len(uncovered)) / len(observed)
    return MigrationReport(
        from_version=from_version,
        to_version=to_version,
        mapping_coverage=coverage,
        changed_codes=tuple(changed),
        unmappable_codes=tuple(uncovered),
        verdict=MigrationVerdict.BLOCKED if uncovered else MigrationVerdict.VALIDATED,
    )


def changed_codes(system: CodeSystem, from_version: str, to_version: str) -> frozenset[str]:
    """Codes touched by the transition tables between two versions: renamed,
    merged, split, or listed unmappable. Used by drift-cause classification."""
    touched: set[str] = set()
    for hop in system.version_chain(from_version, to_version):
        table = system.tables.get(hop)
        if table is None:
            continue
        touched.update(table.unmappable)
        for from_code, to_codes in table.targets.items():
            if len(to_codes) != 1 or to_codes[0] != from_code:
                touched.add(from_code)
                touched.update(to_codes)
    return frozenset(touched)


def write_quarantine(path: str | Path, outcome: GateOutcome) -> None:
    """Persist quarantined records as a side file; quarantine is never an
    in-memory-only loss."""
    rows = zip(outcome.quarantined, outcome.quarantine_reasons())
    write_jsonl(path, ({"record": record, "reason": reason, "original_code": record.primary_code,
                        "original_version": record.version_tag} for record, reason in rows))


def read_quarantine(path: str | Path) -> list[dict]:
    return list(iter_jsonl(path))
