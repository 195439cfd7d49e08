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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .checkpoint import ReferenceModel, annotation_scores
from .model import (
    PipelineConfig,
    RecordBatch,
    ValidationError,
    check_record_id,
    intern,
    iter_jsonl,
    write_csv,
)


@dataclass(frozen=True)
class DivergenceReport:
    """Share of a batch's ``n`` records whose two code layers disagree."""

    disagreement_rate: float
    n: int


def _cocode_likelihood(co_codes: frozenset[str], candidate: str, ref: ReferenceModel) -> float:
    dist = ref.cooccurrence[candidate]
    return sum(math.log(dist[co]) for co in sorted(co_codes) if co in dist)


def _likeliest_code(co_codes: frozenset[str], ref: ReferenceModel) -> str | None:
    # Candidates are sorted, so the first maximum is the smallest tied code.
    return max(ref.candidate_codes, default=None,
               key=lambda candidate: _cocode_likelihood(co_codes, candidate, ref))


def _with_clinical(batch: RecordBatch, rows: np.ndarray, codes: list[str]) -> RecordBatch:
    """The batch with the clinical code of each of ``rows`` set to the code beside it."""
    clinical = batch.clinical.copy()
    clinical[rows], table = intern(codes, batch.codes)
    return replace(batch, clinical=clinical, codes=table)


def infer_clinical_layer(
    batch: RecordBatch,
    ref: ReferenceModel,
    cfg: PipelineConfig,
) -> RecordBatch:
    """Populate the clinical layer for a checkpoint-annotated batch.

    High-fidelity records keep their administrative code. Below the cutoff,
    the winner is the candidate code maximizing the naive
    conditional-independence likelihood of the record's co-codes under the
    reference co-occurrence model; ties break by lexicographic code order.
    Records with no co-codes carry no overriding evidence, and a reference
    with no candidate codes offers no alternative: both keep their
    administrative code. The winner depends on the co-code set alone, so it
    is picked once per distinct set and scattered to its records.
    """
    low = annotation_scores(batch) < cfg.inference_fidelity_cutoff
    low &= np.array([bool(co_codes) for co_codes in batch.co_sets], dtype=bool)[batch.co]
    sets = np.unique(batch.co[low]).tolist()
    winners = {s: w for s in sets if (w := _likeliest_code(batch.co_sets[s], ref)) is not None}
    batch = replace(batch, clinical=batch.code)
    rows = np.flatnonzero(low & np.isin(batch.co, list(winners)))
    return _with_clinical(batch, rows, [winners[s] for s in batch.co[rows].tolist()])


def apply_clinical_overrides(batch: RecordBatch, overrides: Mapping[str, str]) -> RecordBatch:
    """Apply structured-instrument annotations, overriding inferred values."""
    rows = np.flatnonzero(np.isin(batch.record_id, list(overrides)))
    return _with_clinical(batch, rows, [overrides[i] for i in batch.record_id[rows].tolist()])


@dataclass(frozen=True)
class ClinicalOverride:
    """One line of an overrides file: a record's clinical code."""

    record_id: str
    clinical_code: str

    def __post_init__(self) -> None:
        check_record_id(self.record_id)  # as a batch's ids are, which it is matched against


def read_overrides(path: str | Path) -> dict[str, str]:
    """Clinical code by record id, one ``{"record_id", "clinical_code"}`` per line."""
    return {override.record_id: override.clinical_code
            for override in iter_jsonl(path, ClinicalOverride)}


def divergence(batch: RecordBatch) -> DivergenceReport:
    """Measure disagreement between the administrative and clinical layers.

    Raises:
        ValidationError: a record's clinical layer is not populated.
    """
    if (batch.clinical < 0).any():
        row = int(np.argmax(batch.clinical < 0))
        raise ValidationError(
            f"record {str(batch.record_id[row])} has no clinical layer; run inference first"
        )
    n = len(batch)
    disagreements = int(np.count_nonzero(batch.clinical != batch.code))
    return DivergenceReport(disagreements / n if n else 0.0, n)


def write_divergence_csv(report: DivergenceReport, path: str | Path) -> None:
    """Write the report as one CSV row, scoped to the whole batch (``population,all``)."""
    write_csv(path, ["scope", "scope_key", "n", "disagreement_rate"],
              [["population", "all", report.n, f"{report.disagreement_rate:.6f}"]])
