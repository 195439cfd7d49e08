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
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .model import (
    CodeSystem,
    Layer,
    PipelineConfig,
    RecordBatch,
    ValidationError,
    group,
    profile_batch,
    write_csv,
)

TOP_K_COOCCURRENCE = 10


@dataclass(frozen=True)
class ReferenceModel:
    """Expected distribution model estimated from historical records with
    add-one smoothing over the history's dominant version's code set."""

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


def build_reference_model(history: RecordBatch, system: CodeSystem) -> ReferenceModel:
    """Estimate empirical frequencies from a history batch, smoothed over the code
    set of its ``dominant_version``, so the model depends on the history alone."""
    profile = profile_batch(history, Layer.ADMINISTRATIVE)
    if not profile.n:
        raise ValidationError("reference history must be non-empty")
    version_label = profile.dominant_version()
    code_set = tuple(sorted(system.codes(version_label)))
    n_codes = len(code_set)

    code_counts = {code: usage.count for code, usage in profile.codes.items()}
    stratum_counts: dict[tuple[str, str], int] = {}
    code_stratum_counts: dict[tuple[str, str, str], int] = {}
    inst_totals: dict[str, int] = {}
    inst_code_counts: dict[tuple[str, str], int] = {}
    for code, usage in profile.codes.items():
        for stratum, count in usage.strata.items():
            stratum_counts[stratum] = stratum_counts.get(stratum, 0) + count
            code_stratum_counts[(code, *stratum)] = count
        for institution, count in usage.institutions.items():
            inst_totals[institution] = inst_totals.get(institution, 0) + count
            inst_code_counts[(institution, code)] = count

    cooccurrence: dict[str, dict[str, float]] = {}
    for code in code_set:
        usage = profile.codes.get(code)
        counts = usage.co_codes if usage is not None else {}
        denominator = sum(counts.values()) + n_codes
        cooccurrence[code] = {co: (counts.get(co, 0) + 1) / denominator for co in code_set}
    top_cooccurring = {code: tuple(sorted(dist, key=lambda c: (-dist[c], c))[:TOP_K_COOCCURRENCE])
                       for code, dist in cooccurrence.items()}

    institution_rates = {
        (institution, code): (inst_code_counts.get((institution, code), 0) + 1) / (total + n_codes)
        for institution, total in inst_totals.items() for code in code_set}
    peer_medians = {code: statistics.median(institution_rates[(institution, code)]
                                            for institution in inst_totals) for code in code_set}

    candidates = tuple(sorted(c for c in code_counts if c in set(code_set)))
    return ReferenceModel(
        version_label=version_label, code_set=code_set, candidate_codes=candidates,
        n_records=profile.n, code_counts=code_counts, stratum_counts=stratum_counts,
        code_stratum_counts=code_stratum_counts, cooccurrence=cooccurrence,
        top_cooccurring=top_cooccurring, institution_rates=institution_rates,
        peer_medians=peer_medians)


def _prevalence_subscore(ref: ReferenceModel, code: str, age_band: str, sex: str) -> float:
    ratio = ref.expected_prevalence(code, age_band, sex) / ref.marginal_prevalence(code)
    return min(1.0, ratio / (1.0 + ratio))


def _cooccurrence_subscore(ref: ReferenceModel, code: str, co_codes: frozenset[str]) -> float:
    if not co_codes:
        return 0.5
    top = ref.top_cooccurring.get(code, ())
    if not top:
        return 0.5
    overlap = len(co_codes & set(top))
    return overlap / min(len(co_codes), len(top))


def _institutional_subscore(ref: ReferenceModel, institution_id: str, code: str) -> float:
    # An institution or code the history lacks takes the uniform rate.
    rate = ref.institution_rates.get((institution_id, code), 1.0 / len(ref.code_set))
    median = ref.peer_medians.get(code, 1.0 / len(ref.code_set))
    return 1.0 - min(1.0, abs(rate - median) / median)


def _per_key(batch: RecordBatch, names: tuple[str, ...], value: Callable[..., float]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's index into the sorted distinct ``value`` of each combination
    of columns ``names``, and those values."""
    keys, _, index = batch.groups(*names)
    values, inverse = np.unique([value(*key) for key in keys], return_inverse=True)
    return inverse[index], values


def annotate_batch(batch: RecordBatch, ref: ReferenceModel, cfg: PipelineConfig) -> RecordBatch:
    """Return the batch with each record's fidelity annotation populated.

    Pure and idempotent: re-annotating with the same reference yields the
    same annotation. Never rejects. Each subscore depends on a few record
    fields only, so it is computed once per distinct combination of them
    that ``batch.groups`` finds, and records with the same three subscores
    share one entry of the batch's annotation table, scored by column.
    """
    w_prev, w_cooc, w_inst = cfg.fidelity_weights
    prev_row, prev = _per_key(batch, ("code", "age_band", "sex"),
                              partial(_prevalence_subscore, ref))
    cooc_row, cooc = _per_key(batch, ("code", "co"), partial(_cooccurrence_subscore, ref))
    inst_row, inst = _per_key(batch, ("institution", "code"),
                              partial(_institutional_subscore, ref))

    # Rows with the same three subscores share one entry.
    entries, _, _, fidelity = group([prev_row, cooc_row, inst_row],
                                    [len(prev), len(cooc), len(inst)])
    p, c, i = (values[entry] for values, entry in zip((prev, cooc, inst), entries))
    score = np.clip(w_prev * p + w_cooc * c + w_inst * i, 0.0, 1.0)
    return replace(batch, fidelity=fidelity.astype(np.int32),
                   annotations=np.column_stack([score, p, c, i]),
                   notes=((None, float, float, float, float),) * len(score))


def annotation_scores(batch: RecordBatch) -> np.ndarray:
    """Each row's fidelity score.

    Raises:
        ValidationError: a record is not annotated (the first one is named).
    """
    if (batch.fidelity < 0).any():
        row = int(np.argmax(batch.fidelity < 0))
        raise ValidationError(f"record {str(batch.record_id[row])} is not annotated")
    return batch.annotations[batch.fidelity, 0]


@dataclass(frozen=True)
class InstitutionFidelity:
    institution_id: str
    n: int
    mean: float
    deciles: tuple[float, ...]


# The leading comment line states what the score is (and is not), so the
# report cannot be read as calibrated probabilities.
REPORT_PREAMBLE = (
    "# coding fidelity score: ordinal index of agreement with expected "
    "coding patterns, not a calibrated probability"
)


def fidelity_report(batch: RecordBatch) -> tuple[InstitutionFidelity, ...]:
    """Per-institution fidelity score distribution (mean and deciles)."""
    scores = annotation_scores(batch)
    rows = []
    present = np.bincount(batch.institution, minlength=len(batch.institutions))
    for institution in sorted(np.flatnonzero(present).tolist(),
                              key=batch.institutions.__getitem__):
        own = scores[batch.institution == institution]
        deciles = np.quantile(own, np.arange(1, 10) / 10.0)
        rows.append(InstitutionFidelity(institution_id=batch.institutions[institution], n=len(own),
                                        mean=float(own.mean()),
                                        deciles=tuple(float(d) for d in deciles)))
    return tuple(rows)


def write_fidelity_report(report: tuple[InstitutionFidelity, ...], path: str | Path) -> None:
    write_csv(path, ["institution", "n", "mean", *(f"d{i}" for i in range(1, 10))],
              ([row.institution_id, row.n, f"{row.mean:.6f}", *(f"{d:.6f}" for d in row.deciles)]
               for row in report), preamble=REPORT_PREAMBLE)
