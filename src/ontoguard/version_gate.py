"""Terminology version enforcement at ingestion.

Terminology releases are treated as schema migrations: records carry a
version tag, cross-version records are reconciled through official
transition tables, and anything that cannot be mapped safely is quarantined
with a reason instead of being dropped or force-mapped. Reconciliation is
one hop at a time (adjacent tables composed along the version chain); an
ambiguous one-to-many mapping counts as unmappable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    CodedRecord,
    CodeSystem,
    PipelineConfig,
    ValidationError,
    iter_jsonl,
    jsonl_dumps,
    record_to_dict,
    with_fields,
)


class QuarantineReason(str, Enum):
    UNMAPPABLE_CODE = "unmappable_code"
    UNVALIDATED_VERSION = "unvalidated_version"
    UNKNOWN_CODE = "unknown_code"


@dataclass(frozen=True)
class ReconciledRecord:
    record: CodedRecord
    original_code: str
    original_version: str


@dataclass(frozen=True)
class QuarantinedRecord:
    record: CodedRecord
    reason: QuarantineReason
    original_code: str
    original_version: str


@dataclass(frozen=True)
class GateOutcome:
    """Partition of an input batch; cardinality is always conserved."""

    accepted: tuple[CodedRecord, ...]
    reconciled: tuple[ReconciledRecord, ...]
    quarantined: tuple[QuarantinedRecord, ...]
    target_version: str

    def total(self) -> int:
        return len(self.accepted) + len(self.reconciled) + len(self.quarantined)

    def processed_records(self) -> list[CodedRecord]:
        """Accepted plus reconciled records, sorted by ``record_id``."""
        merged = list(self.accepted) + [r.record for r in self.reconciled]
        return sorted(merged, key=lambda r: r.record_id)


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
        table = system.transitions.get(hop)
        if table is None:
            return None
        if current in table.unmappable:
            return None
        targets = table.mappings.get(current)
        if targets is None or len(targets) != 1:
            return None
        current = targets[0]
    return current


def gate_batch(
    batch: Sequence[CodedRecord],
    system: CodeSystem,
    target_version: str,
    cfg: PipelineConfig,
) -> GateOutcome:
    """Partition a batch into accepted / reconciled / quarantined.

    Records already on the target version are accepted (unknown codes
    quarantined); records on an older validated version whose code has a
    total one-to-one mapping are reconciled with the original code and
    version preserved; everything else is quarantined with a reason.

    Raises:
        ValidationError: target version unknown or not validated; the gate
            refuses to run rather than force data through.
    """
    if not system.has_version(target_version):
        raise ValidationError(f"unknown version: {target_version!r}")
    target = system.version(target_version)
    if not target.validated:
        raise ValidationError(
            f"target version {target_version!r} has not passed migration validation"
        )
    target_codes = system.codes(target_version)
    version_order = {v.version_label: i for i, v in enumerate(system.versions)}
    target_rank = version_order[target_version]

    accepted: list[CodedRecord] = []
    reconciled: list[ReconciledRecord] = []
    quarantined: list[QuarantinedRecord] = []
    for record in batch:
        original_code, original_version = record.primary_code, record.version_tag
        if original_version == target_version:
            if original_code in target_codes:
                accepted.append(record)
            else:
                quarantined.append(QuarantinedRecord(
                    record, QuarantineReason.UNKNOWN_CODE, original_code, original_version
                ))
            continue
        if not system.has_version(original_version) or not system.version(original_version).validated:
            quarantined.append(QuarantinedRecord(
                record, QuarantineReason.UNVALIDATED_VERSION, original_code, original_version
            ))
            continue
        if version_order[original_version] > target_rank:
            # No reverse tables exist; a newer-than-target record is unmappable.
            quarantined.append(QuarantinedRecord(
                record, QuarantineReason.UNMAPPABLE_CODE, original_code, original_version
            ))
            continue
        if original_code not in system.codes(original_version):
            quarantined.append(QuarantinedRecord(
                record, QuarantineReason.UNKNOWN_CODE, original_code, original_version
            ))
            continue
        mapped = _map_code(system, original_code, original_version, target_version)
        if mapped is None:
            quarantined.append(QuarantinedRecord(
                record, QuarantineReason.UNMAPPABLE_CODE, original_code, original_version
            ))
            continue
        reconciled.append(ReconciledRecord(
            record=with_fields(record, primary_code=mapped, version_tag=target_version),
            original_code=original_code,
            original_version=original_version,
        ))
    return GateOutcome(
        accepted=tuple(accepted),
        reconciled=tuple(reconciled),
        quarantined=tuple(quarantined),
        target_version=target_version,
    )


def validate_migration(
    system: CodeSystem,
    from_version: str,
    to_version: str,
    observed_codes: Iterable[str],
    acknowledged_codes: Iterable[str] = (),
) -> MigrationReport:
    """Check transition-table completeness over the codes actually observed.

    The migration is validated only when every observed code maps totally,
    or every uncovered code is explicitly acknowledged.
    """
    for label in (from_version, to_version):
        if not system.has_version(label):
            raise ValidationError(f"unknown version: {label!r}")
    observed = sorted(set(observed_codes))
    acknowledged = set(acknowledged_codes)
    chain = system.version_chain(from_version, to_version)
    if chain and any(system.transitions.get(hop) is None for hop in chain):
        return MigrationReport(
            from_version=from_version,
            to_version=to_version,
            mapping_coverage=0.0,
            changed_codes=(),
            unmappable_codes=tuple(observed),
            verdict=MigrationVerdict.BLOCKED,
        )
    changed: list[str] = []
    uncovered: list[str] = []
    for code in observed:
        mapped = _map_code(system, code, from_version, to_version)
        if mapped is None:
            uncovered.append(code)
        elif mapped != code:
            changed.append(code)
    coverage = 1.0 if not observed else (len(observed) - len(uncovered)) / len(observed)
    validated = coverage == 1.0 or all(code in acknowledged for code in uncovered)
    return MigrationReport(
        from_version=from_version,
        to_version=to_version,
        mapping_coverage=coverage,
        changed_codes=tuple(changed),
        unmappable_codes=tuple(uncovered),
        verdict=MigrationVerdict.VALIDATED if validated else MigrationVerdict.BLOCKED,
    )


def changed_codes(system: CodeSystem, from_version: str, to_version: str) -> frozenset[str]:
    """Codes touched by the transition tables between two versions: renamed,
    merged, split, or listed unmappable. Used by drift-cause classification."""
    touched: set[str] = set()
    for hop in system.version_chain(from_version, to_version):
        table = system.transitions.get(hop)
        if table is None:
            continue
        touched.update(table.unmappable)
        for from_code, to_codes in table.mappings.items():
            if len(to_codes) != 1 or to_codes[0] != from_code:
                touched.add(from_code)
                touched.update(to_codes)
    return frozenset(touched)


def write_quarantine(path: str | Path, quarantined: Iterable[QuarantinedRecord]) -> None:
    """Persist quarantined records as a side file; quarantine is never an
    in-memory-only loss."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in quarantined:
            fh.write(jsonl_dumps({
                "record": record_to_dict(item.record),
                "reason": item.reason.value,
                "original_code": item.original_code,
                "original_version": item.original_version,
            }))
            fh.write("\n")


def read_quarantine(path: str | Path) -> list[dict]:
    return list(iter_jsonl(path))
