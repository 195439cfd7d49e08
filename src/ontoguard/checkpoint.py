"""Fidelity annotation at the ingestion boundary.

Every record is annotated with a [0,1] coding-fidelity score built from
three signals: demographic prevalence fit, co-code agreement, and the
originating institution's historical rate versus its peers. The stage never
rejects or filters; it only annotates. Scores are ordinal indices, not
calibrated probabilities.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    CodedRecord,
    CodeSystem,
    FidelityAnnotation,
    PipelineConfig,
    ValidationError,
    dominant_version,
)

TOP_K_COOCCURRENCE = 10


@dataclass(frozen=True)
class ReferenceModel:
    """Expected distribution model estimated from historical records with
    add-one smoothing over the active version's code set."""

    version_label: str
    code_set: tuple[str, ...]
    candidate_codes: tuple[str, ...]
    n_records: int
    code_counts: Mapping[str, int]
    stratum_counts: Mapping[tuple[str, str], int]
    code_stratum_counts: Mapping[tuple[str, str, str], int]
    cooccurrence: Mapping[str, Mapping[str, float]]
    top_cooccurring: Mapping[str, tuple[str, ...]]
    institution_rates: Mapping[tuple[str, str], float]
    peer_medians: Mapping[str, float]

    def expected_prevalence(self, code: str, age_band: str, sex: str) -> float:
        count = self.code_stratum_counts.get((code, age_band, sex), 0)
        total = self.stratum_counts.get((age_band, sex), 0)
        return (count + 1) / (total + len(self.code_set))

    def marginal_prevalence(self, code: str) -> float:
        return (self.code_counts.get(code, 0) + 1) / (self.n_records + len(self.code_set))

    def institution_rate(self, institution_id: str, code: str) -> float:
        rate = self.institution_rates.get((institution_id, code))
        if rate is not None:
            return rate
        return 1.0 / len(self.code_set)

    def peer_median(self, code: str) -> float:
        return self.peer_medians.get(code, 1.0 / len(self.code_set))


def build_reference_model(
    history: Sequence[CodedRecord],
    system: CodeSystem,
    version_label: str | None = None,
) -> ReferenceModel:
    """Estimate empirical frequencies from a history batch.

    The smoothing support is the code set of ``version_label`` (defaults to
    the most common version tag in the history).
    """
    if not history:
        raise ValidationError("reference history must be non-empty")
    if version_label is None:
        version_label = dominant_version(history)
    code_set = tuple(sorted(system.codes(version_label)))
    n_codes = len(code_set)

    code_counts: dict[str, int] = {}
    stratum_counts: dict[tuple[str, str], int] = {}
    code_stratum_counts: dict[tuple[str, str, str], int] = {}
    co_counts: dict[str, dict[str, int]] = {}
    inst_totals: dict[str, int] = {}
    inst_code_counts: dict[tuple[str, str], int] = {}
    for record in history:
        code = record.primary_code
        stratum = (record.patient_age_band, record.patient_sex)
        code_counts[code] = code_counts.get(code, 0) + 1
        stratum_counts[stratum] = stratum_counts.get(stratum, 0) + 1
        key = (code, record.patient_age_band, record.patient_sex)
        code_stratum_counts[key] = code_stratum_counts.get(key, 0) + 1
        per_code = co_counts.setdefault(code, {})
        for co in record.co_codes:
            per_code[co] = per_code.get(co, 0) + 1
        inst_totals[record.institution_id] = inst_totals.get(record.institution_id, 0) + 1
        inst_key = (record.institution_id, code)
        inst_code_counts[inst_key] = inst_code_counts.get(inst_key, 0) + 1

    cooccurrence: dict[str, dict[str, float]] = {}
    top_cooccurring: dict[str, tuple[str, ...]] = {}
    for code in code_set:
        counts = co_counts.get(code, {})
        denominator = sum(counts.values()) + n_codes
        dist = {co: (counts.get(co, 0) + 1) / denominator for co in code_set}
        cooccurrence[code] = dist
        ranked = sorted(dist, key=lambda c: (-dist[c], c))
        top_cooccurring[code] = tuple(ranked[:TOP_K_COOCCURRENCE])

    institution_rates: dict[tuple[str, str], float] = {}
    for institution, total in inst_totals.items():
        for code in code_set:
            count = inst_code_counts.get((institution, code), 0)
            institution_rates[(institution, code)] = (count + 1) / (total + n_codes)
    peer_medians = {
        code: statistics.median(
            institution_rates[(institution, code)] for institution in inst_totals
        )
        for code in code_set
    }

    candidates = tuple(sorted(c for c in code_counts if c in set(code_set)))
    return ReferenceModel(
        version_label=version_label,
        code_set=code_set,
        candidate_codes=candidates,
        n_records=len(history),
        code_counts=code_counts,
        stratum_counts=stratum_counts,
        code_stratum_counts=code_stratum_counts,
        cooccurrence=cooccurrence,
        top_cooccurring=top_cooccurring,
        institution_rates=institution_rates,
        peer_medians=peer_medians,
    )


def _prevalence_subscore(record: CodedRecord, ref: ReferenceModel) -> float:
    expected = ref.expected_prevalence(
        record.primary_code, record.patient_age_band, record.patient_sex
    )
    marginal = ref.marginal_prevalence(record.primary_code)
    ratio = expected / marginal
    return min(1.0, ratio / (1.0 + ratio))


def _cooccurrence_subscore(record: CodedRecord, ref: ReferenceModel) -> float:
    if not record.co_codes:
        return 0.5
    top = ref.top_cooccurring.get(record.primary_code, ())
    if not top:
        return 0.5
    overlap = len(record.co_codes & set(top))
    return overlap / min(len(record.co_codes), len(top))


def _institutional_subscore(record: CodedRecord, ref: ReferenceModel) -> float:
    rate = ref.institution_rate(record.institution_id, record.primary_code)
    median = ref.peer_median(record.primary_code)
    if median <= 0:
        return 0.0
    return 1.0 - min(1.0, abs(rate - median) / median)


def annotate(record: CodedRecord, ref: ReferenceModel, cfg: PipelineConfig) -> CodedRecord:
    """Return the record with its fidelity annotation populated.

    Pure per record and idempotent: re-annotating with the same reference
    yields the same annotation. Never rejects.
    """
    prev = _prevalence_subscore(record, ref)
    cooc = _cooccurrence_subscore(record, ref)
    inst = _institutional_subscore(record, ref)
    w_prev, w_cooc, w_inst = cfg.fidelity_weights
    score = w_prev * prev + w_cooc * cooc + w_inst * inst
    annotation = FidelityAnnotation(
        score=min(1.0, max(0.0, score)),
        prevalence_subscore=prev,
        cooccurrence_subscore=cooc,
        institutional_subscore=inst,
        rationale=f"prev={prev:.3f} cooc={cooc:.3f} inst={inst:.3f}",
    )
    return replace(record, fidelity=annotation)


def annotate_batch(
    batch: Iterable[CodedRecord], ref: ReferenceModel, cfg: PipelineConfig
) -> list[CodedRecord]:
    return [annotate(record, ref, cfg) for record in batch]


@dataclass(frozen=True)
class InstitutionFidelity:
    institution_id: str
    n: int
    mean: float
    deciles: tuple[float, ...]


@dataclass(frozen=True)
class FidelityReport:
    rows: tuple[InstitutionFidelity, ...]


# The leading comment line states what the score is (and is not), so the
# report cannot be read as calibrated probabilities.
REPORT_PREAMBLE = (
    "# coding fidelity score: ordinal index of agreement with expected "
    "coding patterns, not a calibrated probability"
)


def fidelity_report(batch: Sequence[CodedRecord]) -> FidelityReport:
    """Per-institution fidelity score distribution (mean and deciles)."""
    by_institution: dict[str, list[float]] = {}
    for record in batch:
        if record.fidelity is None:
            raise ValidationError(f"record {record.record_id} is not annotated")
        by_institution.setdefault(record.institution_id, []).append(record.fidelity.score)
    rows = []
    for institution in sorted(by_institution):
        scores = np.array(by_institution[institution])
        deciles = np.quantile(scores, np.arange(1, 10) / 10.0)
        rows.append(InstitutionFidelity(
            institution_id=institution,
            n=len(scores),
            mean=float(scores.mean()),
            deciles=tuple(float(d) for d in deciles),
        ))
    return FidelityReport(rows=tuple(rows))


def write_fidelity_report(report: FidelityReport, path: str | Path) -> None:
    lines = [REPORT_PREAMBLE,
             "institution,n,mean," + ",".join(f"d{i}" for i in range(1, 10))]
    for row in report.rows:
        deciles = ",".join(f"{d:.6f}" for d in row.deciles)
        lines.append(f"{row.institution_id},{row.n},{row.mean:.6f},{deciles}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
