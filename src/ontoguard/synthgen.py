"""Synthetic encounter batches with controlled, labeled distortions.

Every distortion the pipeline is supposed to detect is injected here with
ground truth attached, so detection quality is measurable instead of
anecdotal. Batches are a pure function of (system, spec, n, seed): the same
inputs produce byte-identical output.

Stratum sizes (records per code, per institution, per AI-influence quota)
are drawn by largest-remainder apportionment, so a weight whose product
with n is integral yields exactly that count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from enum import Enum
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .model import (
    AGE_BANDS,
    SEXES,
    CodeSystem,
    Demographics,
    RecordBatch,
    TimeWindow,
    ValidationError,
    gather,
    group,
    intern,
    to_json,
    write_jsonl,
)


class DistortionLabel(str, Enum):
    CATCH_ALL = "catch_all"
    BILLING_INFLATION = "billing_inflation"
    VERSION_LAG = "version_lag"
    AI_INFLUENCED = "ai_influenced"
    OUTBREAK = "outbreak"


@dataclass(frozen=True)
class CatchAllSpec:
    """At one institution, clinical-group siblings of ``target_code`` are
    documented as the catch-all target with probability ``excess_rate``."""

    institution_id: str
    target_code: str
    excess_rate: float


@dataclass(frozen=True)
class BillingInflationSpec:
    """From ``start`` on, donor codes (clinical-group mates of the category's
    members) are recoded into the billing category, scaling its coded rate
    by roughly ``rate_multiplier``."""

    billing_category: str
    start: date
    rate_multiplier: float


@dataclass(frozen=True)
class AIInfluenceSpec:
    model_version: str
    schedule: tuple[float, ...]

    def fraction_for(self, quarter_index: int) -> float:
        if not self.schedule:
            return 0.0
        if quarter_index < len(self.schedule):
            return self.schedule[quarter_index]
        return self.schedule[-1]


@dataclass(frozen=True)
class OutbreakSpec:
    """From ``start`` on, the code's prevalence is multiplied; clinical-group
    siblings co-elevate at half strength, the way genuine epidemiological
    shifts move related codes together. Affected codes also skew toward the
    outbreak's (younger) demographic."""

    code: str
    start: date
    prevalence_multiplier: float


# Age skew applied to outbreak-affected codes: epidemics change who gets
# coded, not just how often.
OUTBREAK_AGE_TILT: Mapping[str, float] = {
    "0-9": 0.30, "10-19": 0.25, "20-29": 0.20, "30-39": 0.15, "40-49": 0.10,
}


@dataclass(frozen=True)
class InstitutionWeight:
    """One institution and its share of the generated records."""

    institution_id: str
    weight: float


@dataclass(frozen=True)
class DistortionSpec:
    institutions: tuple[InstitutionWeight, ...]
    current_version: str
    catch_all: tuple[CatchAllSpec, ...] = ()
    billing_inflation: tuple[BillingInflationSpec, ...] = ()
    version_mix: Mapping[str, str] = field(default_factory=dict)
    ai_influence: AIInfluenceSpec | None = None
    outbreak: OutbreakSpec | None = None

    def institution_ids(self) -> tuple[str, ...]:
        return tuple(i.institution_id for i in self.institutions)

    def without_onset_distortions(self) -> "DistortionSpec":
        """Standing institutional habits only: strips the distortions that
        switch on at a point in time. Used to build reference history."""
        return replace(self, billing_inflation=(), ai_influence=None, outbreak=None,
                       version_mix={})


@dataclass(frozen=True)
class GroundTruthEntry:
    true_clinical_code: str
    distortion_labels: frozenset[str]


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The ground truth of one batch as a column: the batch's row ``i`` has
    entry ``entries[index[i]]``. Each distinct entry is held once, and no
    record id is held."""

    entries: tuple[GroundTruthEntry, ...]
    index: np.ndarray                # int32, one per batch row


def validate_spec(system: CodeSystem, spec: DistortionSpec) -> None:
    codes = system.codes(spec.current_version)
    ids = spec.institution_ids()
    if not ids:
        raise ValidationError("spec declares no institutions")
    if repeated := sorted({i for i in ids if ids.count(i) > 1}):
        raise ValidationError(f"spec lists institution {repeated[0]!r} more than once")
    institutions = set(ids)
    total_weight = sum(i.weight for i in spec.institutions)
    if not abs(total_weight - 1.0) <= 1e-6:  # NaN fails too
        raise ValidationError(f"institution weights must sum to 1, got {total_weight}")
    if not all(i.weight >= 0 for i in spec.institutions):
        raise ValidationError("institution weights must be non-negative")
    for entry in spec.catch_all:
        if entry.institution_id not in institutions:
            raise ValidationError(f"catch_all references unknown institution {entry.institution_id!r}")
        if entry.target_code not in codes:
            raise ValidationError(f"catch_all references unknown code {entry.target_code!r}")
        if not 0.0 <= entry.excess_rate <= 1.0:
            raise ValidationError(f"catch_all excess_rate must be in [0,1], got {entry.excess_rate}")
    for entry in spec.billing_inflation:
        if system.billing_categories and entry.billing_category not in system.billing_categories:
            raise ValidationError(
                f"billing_inflation references unknown category {entry.billing_category!r}"
            )
        if not entry.rate_multiplier > 0:
            raise ValidationError("billing_inflation rate_multiplier must be > 0")
    for inst, label in spec.version_mix.items():
        if inst not in institutions:
            raise ValidationError(f"version_mix references unknown institution {inst!r}")
        if not system.has_version(label):
            raise ValidationError(f"version_mix references unknown version {label!r}")
    if spec.ai_influence is not None:
        for fraction in spec.ai_influence.schedule:
            if not 0.0 <= fraction <= 1.0:
                raise ValidationError(f"ai_influence fraction must be in [0,1], got {fraction}")
    if spec.outbreak is not None:
        if spec.outbreak.code not in codes:
            raise ValidationError(f"outbreak references unknown code {spec.outbreak.code!r}")
        if not spec.outbreak.prevalence_multiplier > 0:
            raise ValidationError("outbreak prevalence_multiplier must be > 0")


def _largest_remainder(weights: Sequence[float], keys: Sequence[str], n: int) -> dict[str, int]:
    """Apportion n among strata so counts sum exactly to n; ties broken by key."""
    total = float(sum(weights))
    if total <= 0:
        raise ValidationError("stratum weights must have positive mass")
    shares = [w / total * n for w in weights]
    counts = [int(share) for share in shares]
    leftover = n - sum(counts)
    order = sorted(range(len(keys)), key=lambda i: (-(shares[i] - counts[i]), keys[i]))
    for i in order[:leftover]:
        counts[i] += 1
    return dict(zip(keys, counts))


def _effective_prevalence(
    system: CodeSystem, spec: DistortionSpec, window: TimeWindow
) -> dict[str, float]:
    """Base prevalence with any active outbreak applied.

    Boosted codes take their multiplied rate as absolute prevalence; the
    remaining codes share what is left proportionally, so the boosted code's
    observed prevalence ratio equals its multiplier.
    """
    prevalence = dict(system.base_prevalence)
    if not sum(prevalence.values()):
        raise ValidationError("code system declares no positive base_prevalence")
    outbreak = spec.outbreak
    if outbreak is None or window.start < outbreak.start:
        total = sum(prevalence.values())
        return {code: rate / total for code, rate in prevalence.items()}

    codes = system.codes(spec.current_version)
    outbreak_group = codes[outbreak.code].clinical_group
    sibling_multiplier = 1.0 + (outbreak.prevalence_multiplier - 1.0) / 2.0
    boosted: dict[str, float] = {}
    for code, rate in prevalence.items():
        if code == outbreak.code:
            boosted[code] = rate * outbreak.prevalence_multiplier
        elif code in codes and codes[code].clinical_group == outbreak_group:
            boosted[code] = rate * sibling_multiplier
    base_total = sum(prevalence.values())
    boosted_total = sum(boosted.values())
    if boosted_total >= base_total:
        raise ValidationError("outbreak multiplier leaves no mass for unaffected codes")
    rest_scale = (base_total - boosted_total) / (base_total - sum(
        prevalence[c] for c in boosted
    ))
    out = {
        code: boosted.get(code, rate * rest_scale)
        for code, rate in prevalence.items()
    }
    total = sum(out.values())
    return {code: rate / total for code, rate in out.items()}


def _profile_arrays(profile: Mapping[str, float], support: Sequence[str]) -> np.ndarray:
    weights = np.array([float(profile.get(key, 0.0)) for key in support], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        return np.full(len(support), 1.0 / len(support))
    return weights / total


def _weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Per-row weighted sampling without replacement (Efraimidis-Spirakis keys).

    Every weight is positive. Returns a boolean mask over the support: row i
    marks its ``sizes[i]`` largest keys.
    """
    keys = rng.random((len(sizes), len(weights))) ** (1.0 / np.maximum(weights, 1e-12))
    picked = np.empty(keys.shape, dtype=bool)
    np.put_along_axis(
        picked, np.argsort(-keys, axis=1), np.arange(len(weights)) < sizes[:, None], axis=1
    )
    return picked


def _group_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean matrix in lexicographic order, and each
    row's index into them: what ``np.unique(masks, axis=0,
    return_inverse=True)`` returns, from one lexsort and a compare of each
    sorted row with the one before it."""
    order = np.lexsort(masks.T[::-1])
    ordered = masks[order]
    starts = np.ones(len(masks), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(masks), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def generate_batch(
    system: CodeSystem,
    spec: DistortionSpec,
    n: int,
    seed: int | Sequence[int],
    window: TimeWindow | None = None,
    id_prefix: str = "R",
    quarter_index: int = 0,
) -> tuple[RecordBatch, GroundTruth]:
    """Generate exactly n records plus ground truth for one window.

    Deterministic for a fixed seed. ``quarter_index`` selects the AI
    influence fraction from the spec's schedule.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    validate_spec(system, spec)
    if window is None:
        window = TimeWindow(date(2025, 1, 1), date(2025, 3, 31))

    rng = np.random.default_rng(seed)
    codes_def = system.codes(spec.current_version)
    prevalence = _effective_prevalence(system, spec, window)
    code_list = sorted(prevalence)
    # Code columns index ``names``: the generated codes first, then the
    # codes only a distortion can write.
    names = code_list + sorted(set(codes_def) - set(prevalence))
    pos = {code: i for i, code in enumerate(names)}

    code_counts = list(
        _largest_remainder([prevalence[c] for c in code_list], code_list, n).values()
    )
    code_index = np.repeat(np.arange(len(code_list), dtype=np.int32), code_counts)
    rng.shuffle(code_index)
    rows_of_code = np.split(np.argsort(code_index, kind="stable"), np.cumsum(code_counts)[:-1])

    inst_ids = list(spec.institution_ids())
    inst_counts = _largest_remainder([i.weight for i in spec.institutions], inst_ids, n)
    inst_index = np.repeat(np.arange(len(inst_ids), dtype=np.int32), list(inst_counts.values()))
    rng.shuffle(inst_index)

    outbreak = spec.outbreak
    if outbreak is not None and window.start < outbreak.start:
        outbreak = None
    outbreak_group = None if outbreak is None else codes_def[outbreak.code].clinical_group

    age_idx = np.zeros(n, dtype=np.int32)
    sex_idx = np.zeros(n, dtype=np.int32)
    tilt = _profile_arrays(OUTBREAK_AGE_TILT, AGE_BANDS)
    for code, rows in zip(code_list, rows_of_code):
        if rows.size == 0:
            continue
        profile = system.demographic_profiles.get(code, Demographics())
        age_p = _profile_arrays(profile.age, AGE_BANDS)
        if code in codes_def and codes_def[code].clinical_group == outbreak_group:
            age_p = 0.5 * age_p + 0.5 * tilt
        sex_p = _profile_arrays(profile.sex, SEXES)
        age_idx[rows] = rng.choice(len(AGE_BANDS), size=rows.size, p=age_p)
        sex_idx[rows] = rng.choice(len(SEXES), size=rows.size, p=sex_p)

    window_seconds = ((window.end - window.start).days + 1) * 86_400
    offsets = rng.integers(0, window_seconds, size=n)

    # One frozenset per distinct co-code set, shared by every row that drew it.
    co_code_sets: tuple[frozenset[str], ...] = (frozenset(),)
    co_index = np.zeros(n, dtype=np.int32)
    for code, rows in zip(code_list, rows_of_code):
        if rows.size == 0:
            continue
        profile = system.cooccurrence_profiles.get(code, {})
        support = sorted(c for c, weight in profile.items() if weight > 0)
        if not support:
            continue
        weights = np.array([profile[c] for c in support], dtype=np.float64)
        k_max = min(len(support), 4)
        if len(support) < 2:
            sizes = np.full(rows.size, len(support))
        else:
            sizes = rng.integers(2, k_max + 1, size=rows.size)
        masks, inverse = _group_rows(_weighted_sample_without_replacement(rng, weights, sizes))
        ids, co_code_sets = intern([frozenset(compress(support, mask)) for mask in masks],
                                   co_code_sets)
        co_index[rows] = ids[inverse]

    # Distortions act on code and institution columns; ``labels`` holds one
    # bit per DistortionLabel, in declaration order.
    bit = {label: 1 << i for i, label in enumerate(DistortionLabel)}
    primary = code_index.copy()
    labels = np.zeros(n, dtype=np.int64)

    # Catch-all habit: rewrites siblings to the configured target.
    for entry in spec.catch_all:
        target_def = codes_def[entry.target_code]
        siblings = [
            pos[c] for c, d in codes_def.items()
            if d.clinical_group == target_def.clinical_group and c != entry.target_code
        ]
        draws = rng.random(n)
        at_institution = np.array([i == entry.institution_id for i in inst_ids])[inst_index]
        hit = (at_institution & np.isin(code_index, siblings)
               & (primary == code_index) & (draws < entry.excess_rate))
        primary[hit] = pos[entry.target_code]
        labels[hit] |= bit[DistortionLabel.CATCH_ALL]

    # Billing-guideline recoding into a category, scaling its coded rate.
    for entry in spec.billing_inflation:
        if window.start < entry.start:
            continue
        members = {
            c for c, d in codes_def.items()
            if d.billing_category == entry.billing_category and c in prevalence
        }
        if not members:
            continue
        member_groups = {codes_def[c].clinical_group for c in members}
        donors = {
            c for c in prevalence
            if c not in members and codes_def[c].clinical_group in member_groups
        }
        if not donors:
            continue
        member_mass = sum(prevalence[c] for c in members)
        donor_mass = sum(prevalence[c] for c in donors)
        p_rewrite = min(1.0, (entry.rate_multiplier - 1.0) * member_mass / donor_mass)
        draws = rng.random(n)
        target_draws = rng.random(n)
        open_rows = (primary == code_index) & (draws < p_rewrite)
        for member_group in member_groups:
            targets = sorted(c for c in members if codes_def[c].clinical_group == member_group)
            group_donors = [pos[c] for c in donors
                            if codes_def[c].clinical_group == member_group]
            rows = np.flatnonzero(open_rows & np.isin(code_index, group_donors))
            weights = np.array([prevalence[t] for t in targets])
            cumulative = np.cumsum(weights / weights.sum())
            picks = np.searchsorted(cumulative, target_draws[rows])
            primary[rows] = np.array([pos[t] for t in targets])[picks]
            labels[rows] |= bit[DistortionLabel.BILLING_INFLATION]

    if outbreak is not None:
        labels[code_index == pos[outbreak.code]] |= bit[DistortionLabel.OUTBREAK]

    versions = [spec.version_mix.get(i, spec.current_version) for i in inst_ids]
    lagging = np.array([v != spec.current_version for v in versions])[inst_index]
    labels[lagging] |= bit[DistortionLabel.VERSION_LAG]

    # An influence tag's head is (model version, clinician modified, float).
    tag, confidence, tags = np.full(n, -1, dtype=np.int32), np.full(n, np.nan), ()
    ai = spec.ai_influence
    count = 0 if ai is None else round(ai.fraction_for(quarter_index) * n)
    if count > 0:
        chosen = rng.choice(n, size=count, replace=False)
        confidence[chosen] = rng.uniform(0.55, 0.95, size=count)
        tag[chosen] = rng.random(count) < 0.25
        tags = tuple((ai.model_version, flag, float) for flag in (False, True))
        labels[chosen] |= bit[DistortionLabel.AI_INFLUENCED]

    # One ground-truth entry per distinct (true code, label bits) pair.
    truth, _, _, truth_index = group([code_index, labels], [len(names), 1 << len(bit)])
    entries = tuple(
        GroundTruthEntry(
            true_clinical_code=names[code],
            distortion_labels=frozenset(l.value for l, b in bit.items() if label & b),
        )
        for code, label in zip(*(column.tolist() for column in truth))
    )

    version_table, version_index = np.unique(versions, return_inverse=True)
    no_row = np.full(n, -1, dtype=np.int32)
    batch = RecordBatch(
        record_id=_record_ids(id_prefix, range(n)),
        times=np.datetime64(window.start, "us") + offsets.astype("timedelta64[s]"),
        zone=no_row, zones=(),
        age_band=age_idx, sex=sex_idx, institution=inst_index, institutions=tuple(inst_ids),
        code=primary, clinical=no_row, codes=tuple(names),
        version=version_index.astype(np.int32)[inst_index], versions=tuple(version_table.tolist()),
        co=co_index, co_sets=co_code_sets,
        tag=tag, confidence=confidence, tags=tags, fidelity=no_row,
        annotations=np.empty((0, 4)), notes=(),
    )
    return batch, GroundTruth(entries, truth_index.astype(np.int32))


def _record_ids(prefix: str, rows: range) -> np.ndarray:
    """``f"{prefix}-{i:06d}"`` for each ``i`` in ``rows``, as fixed-width text written
    a column of digits at a time in the narrowest unsigned type that holds them."""
    head = np.frombuffer(f"{prefix}-".encode("utf-32-le", "surrogatepass"), "<u4")
    ids = np.zeros(len(rows), f"<U{len(head) + max(6, len(str(rows.stop - 1)))}")
    chars, start = ids.view(("<u4", ids.itemsize // 4)), rows.start
    chars[:, :len(head)] = head
    while start < rows.stop:
        width = max(6, len(str(start)))
        stop = min(rows.stop, 10 ** width)
        number = np.min_scalar_type(max(stop, 10 ** (width - 1))).type
        numbers = np.arange(start, stop, dtype=number)
        digits = chars[start - rows.start:stop - rows.start, len(head):]
        for place, power in enumerate(10 ** np.arange(width - 1, -1, -1, dtype=number)):
            digits[:, place] = numbers // power % 10 + ord("0")
        start = stop
    return ids


def quarter_window(start: date, quarter_index: int) -> TimeWindow:
    """The (0-based) quarter's three calendar months, counted from ``start``'s month."""
    first = np.datetime64(start, "M") + 3 * quarter_index
    return TimeWindow(first.item(), (first + 3).item() - timedelta(days=1))


def generate_quarter_series(
    system: CodeSystem,
    spec: DistortionSpec,
    quarters: int,
    n_per_quarter: int,
    seed: int,
    start: date = date(2025, 1, 1),
) -> tuple[list[RecordBatch], list[GroundTruth]]:
    """Generate consecutive quarterly batches and the ground truth of each;
    the AI influence fraction is taken per quarter from the spec's schedule."""
    if quarters <= 0:
        raise ValidationError(f"quarters must be positive, got {quarters}")
    batches: list[RecordBatch] = []
    truths: list[GroundTruth] = []
    for q in range(quarters):
        window = quarter_window(start, q)
        batch, batch_truth = generate_batch(system, spec, n_per_quarter, seed=[seed, q],
                                            window=window, id_prefix=f"Q{q + 1}", quarter_index=q)
        batches.append(batch)
        truths.append(batch_truth)
    return batches, truths


# ---------------------------------------------------------------------------
# Spec and ground-truth (de)serialization
# ---------------------------------------------------------------------------

def spec_to_dict(spec: DistortionSpec) -> dict[str, Any]:
    return to_json(spec)


def write_ground_truth(
    path: str | Path, batches: Sequence[RecordBatch], truths: Sequence[GroundTruth]
) -> None:
    """Write the ground-truth entry of every record of ``batches``, one line
    each, sorted by record id; ``truths[i]`` is the truth of ``batches[i]``."""
    rows = sorted(
        ((record_id, entry)
         for batch, truth in zip(batches, truths, strict=True)
         for record_id, entry in zip(batch.record_id.tolist(),
                                     gather(truth.entries, truth.index))),
        key=itemgetter(0),
    )
    write_jsonl(path, ({"record_id": record_id, **vars(entry)} for record_id, entry in rows))

