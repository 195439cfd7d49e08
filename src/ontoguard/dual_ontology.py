"""Parallel administrative and clinical code layers.

The administrative layer is what was billed; the clinical layer is what the
record most plausibly means. Divergence between the two is a first-class,
measurable signal, not an error state. The clinical layer is populated
either by probabilistic inference from co-codes (records whose fidelity
falls below a cutoff) or by a bulk annotation override file from structured
clinical instruments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .checkpoint import ReferenceModel
from .model import (
    CodedRecord,
    CodeSystem,
    PipelineConfig,
    ValidationError,
    iter_jsonl,
    with_fields,
)


class DivergenceScope(str, Enum):
    RECORD = "record"
    INSTITUTION = "institution"
    POPULATION = "population"


@dataclass(frozen=True)
class DivergenceReport:
    scope: DivergenceScope
    scope_key: str
    disagreement_rate: float
    per_code_confusion: Mapping[tuple[str, str], int]
    n: int


def _cocode_likelihood(co_codes: frozenset[str], candidate: str, ref: ReferenceModel) -> float:
    dist = ref.cooccurrence[candidate]
    return sum(math.log(dist[co]) for co in sorted(co_codes) if co in dist)


def _likeliest_code(co_codes: frozenset[str], ref: ReferenceModel) -> str | None:
    best_code = None
    best_score = -math.inf
    for candidate in ref.candidate_codes:
        score = _cocode_likelihood(co_codes, candidate, ref)
        if score > best_score or (score == best_score and (best_code is None or candidate < best_code)):
            best_code = candidate
            best_score = score
    return best_code


def infer_clinical_layer(
    batch: Iterable[CodedRecord],
    ref: ReferenceModel,
    system: CodeSystem,
    cfg: PipelineConfig,
) -> list[CodedRecord]:
    """Populate the clinical layer for a checkpoint-annotated batch.

    High-fidelity records keep their administrative code. Below the cutoff,
    the winner is the candidate code maximizing the naive
    conditional-independence likelihood of the record's co-codes under the
    reference co-occurrence model; ties break by lexicographic code order.
    Records with no co-codes carry no overriding evidence, and a reference
    with no candidate codes offers no alternative: both keep their
    administrative code. The winner depends on the co-code set alone, so it
    is picked once per distinct set.
    """
    winners: dict[frozenset[str], str | None] = {}
    inferred = []
    for record in batch:
        if record.fidelity is None:
            raise ValidationError(f"record {record.record_id} is not annotated")
        code = record.primary_code
        co_codes = record.co_codes
        if record.fidelity.score < cfg.inference_fidelity_cutoff and co_codes:
            if co_codes not in winners:
                winners[co_codes] = _likeliest_code(co_codes, ref)
            if winners[co_codes] is not None:
                code = winners[co_codes]
        inferred.append(with_fields(record, clinical_code=code))
    return inferred


def apply_clinical_overrides(
    batch: Sequence[CodedRecord], overrides: Mapping[str, str]
) -> list[CodedRecord]:
    """Apply structured-instrument annotations, overriding inferred values."""
    return [
        with_fields(record, clinical_code=overrides.get(record.record_id, record.clinical_code))
        for record in batch
    ]


def read_overrides(path: str | Path) -> dict[str, str]:
    return {data["record_id"]: data["clinical_code"] for data in iter_jsonl(path)}


def divergence(
    batch: Sequence[CodedRecord],
    scope: DivergenceScope,
) -> tuple[DivergenceReport, ...]:
    """Measure disagreement between the administrative and clinical layers.

    Returns one report per scope key (a single "all" report for POPULATION,
    one per institution for INSTITUTION, one per record for RECORD).

    Raises:
        ValidationError: a record's clinical layer is not populated.
    """
    for record in batch:
        if record.clinical_code is None:
            raise ValidationError(
                f"record {record.record_id} has no clinical layer; run inference first"
            )

    def key_of(record: CodedRecord) -> str:
        if scope is DivergenceScope.POPULATION:
            return "all"
        if scope is DivergenceScope.INSTITUTION:
            return record.institution_id
        return record.record_id

    groups: dict[str, list[CodedRecord]] = {}
    for record in batch:
        groups.setdefault(key_of(record), []).append(record)

    reports = []
    for key in sorted(groups):
        records = groups[key]
        confusion: dict[tuple[str, str], int] = {}
        disagreements = 0
        for record in records:
            pair = (record.primary_code, record.clinical_code)
            confusion[pair] = confusion.get(pair, 0) + 1
            if record.clinical_code != record.primary_code:
                disagreements += 1
        reports.append(DivergenceReport(
            scope=scope,
            scope_key=key,
            disagreement_rate=disagreements / len(records) if records else 0.0,
            per_code_confusion=confusion,
            n=len(records),
        ))
    return tuple(reports)


def write_divergence_csv(reports: Sequence[DivergenceReport], path: str | Path) -> None:
    lines = ["scope,scope_key,n,disagreement_rate"]
    for report in reports:
        lines.append(
            f"{report.scope.value},{report.scope_key},{report.n},"
            f"{report.disagreement_rate:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
