"""Semantic drift monitoring over per-code usage fingerprints.

A fingerprint captures how a code is used, as one distribution per name in
``COMPONENTS``: which co-codes accompany it, who it is coded for, when and
how often within the window, and where. Baseline and current fingerprints
are compared component by component with ``aligned_jsd``, weighted into one
divergence, and alerts above the threshold are classified by probable cause,
the highest of three scores, a tie going to the one listed first:

* administrative - co-drift concentrates in the code's billing category;
* terminological - the window follows a terminology release that changed
  the code in a transition table;
* epidemiological - co-drift concentrates in the code's clinical group.

The classification confidence is an ordinal score ratio, not a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from . import kernels
from .model import (
    BatchProfile,
    CodeDef,
    CodeSystem,
    PipelineConfig,
    TimeWindow,
    ValidationError,
    write_jsonl,
)
from .version_gate import changed_codes


class DriftType(str, Enum):
    TYPE_A = "type_a"  # epidemiological
    TYPE_B = "type_b"  # administrative
    TYPE_C = "type_c"  # terminological


COMPONENTS = ("cooccurrence", "demographic", "temporal", "institutional")


@dataclass(frozen=True)
class FingerprintSet:
    by_code: Mapping[str, Mapping[str, Mapping[Any, float]]]


@dataclass(frozen=True)
class DriftAlert:
    code: str
    divergence: float
    drift_type: DriftType
    confidence: float
    component_divergences: Mapping[str, float]
    evidence: Mapping[str, Any]


def _month_index(window: TimeWindow) -> list[tuple[int, int]]:
    months = []
    y, m = window.start.year, window.start.month
    while (y, m) <= (window.end.year, window.end.month):
        months.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return months


def build_fingerprints(profile: BatchProfile, cfg: PipelineConfig) -> FingerprintSet:
    """One fingerprint per code observed at least ``fingerprint_min_support``
    times over the months of ``profile.window()``; under-supported codes have none."""
    if not profile.n:
        raise ValidationError("cannot fingerprint an empty batch")
    months = _month_index(profile.window())

    def normalized(counts: Mapping[Any, int]) -> dict:
        total = sum(counts.values())  # every count is >= 1, so an empty dict stays empty
        return {key: value / total for key, value in counts.items()}

    by_code: dict[str, dict[str, Mapping[Any, float]]] = {}
    for code in sorted(profile.codes):
        usage = profile.codes[code]
        if usage.count < cfg.fingerprint_min_support:
            continue
        # Each month's share of all window records carrying the code, then
        # the complement, so that pure level shifts register as drift. The
        # complement's key sorts after every month index, so windows of
        # different lengths align month by month with both complements last.
        mass = np.array([usage.months.get(ym, 0) for ym in months], dtype=np.float64) / profile.n
        temporal = dict(enumerate(mass.tolist()))
        temporal[math.inf] = float(1.0 - mass.sum())
        by_code[code] = {
            "cooccurrence": normalized(usage.co_codes),
            "demographic": normalized(usage.strata),
            "temporal": temporal,
            "institutional": normalized(usage.institutions),
        }
    return FingerprintSet(by_code=by_code)


def aligned_jsd(dist_a: Mapping, dist_b: Mapping) -> float:
    """Base-2 JSD of two sparse distributions aligned on their key union.

    A distribution with no mass at all counts as maximally divergent from a
    non-empty one and identical to another empty one.
    """
    keys = sorted(set(dist_a) | set(dist_b))
    if not keys:
        return 0.0
    p = np.array([dist_a.get(k, 0.0) for k in keys])
    q = np.array([dist_b.get(k, 0.0) for k in keys])
    if p.sum() == 0.0 or q.sum() == 0.0:
        return 0.0 if p.sum() == q.sum() else 1.0
    return kernels.jsd_base2(p, q)


def component_divergences(
    baseline: Mapping[str, Mapping], current: Mapping[str, Mapping]
) -> dict[str, float]:
    return {name: aligned_jsd(baseline[name], current[name]) for name in COMPONENTS}


def _overlap(others: set[str], code_defs: Mapping[str, CodeDef], code: str, attr: str) -> float:
    """Jaccard index of ``others`` and ``code``'s peers: the other codes whose ``attr``
    (billing category or clinical group) is ``code``'s; a code outside ``code_defs`` has none."""
    value = getattr(code_defs[code], attr) if code in code_defs else None
    peers = {c for c, d in code_defs.items() if c != code and getattr(d, attr) == value}
    union = others | peers
    return len(others & peers) / len(union) if union else 0.0


def _release_match(window: TimeWindow, system: CodeSystem, window_days: int) -> int | None:
    """Index in ``system.versions`` of the first release that the window
    starts at most ``window_days`` after."""
    for index, version in enumerate(system.versions):
        if 0 <= (window.start - version.release_date).days <= window_days:
            return index
    return None


def scan(
    baseline: BatchProfile, current: BatchProfile, system: CodeSystem, cfg: PipelineConfig
) -> list[DriftAlert]:
    """Compare fingerprints across the two profiles' windows and classify
    alerts by cause; a release matches from the current window's start.

    Only alerts at or above ``cfg.drift_threshold`` are emitted, sorted by
    divergence descending. Classification is deterministic; ties fall to the
    administrative type, the conservative "investigate coding practice"
    default.
    """
    base_fps = build_fingerprints(baseline, cfg)
    curr_fps = build_fingerprints(current, cfg)

    shared = sorted(set(base_fps.by_code) & set(curr_fps.by_code))
    divergences: dict[str, float] = {}
    components: dict[str, dict[str, float]] = {}
    for code in shared:
        parts = component_divergences(base_fps.by_code[code], curr_fps.by_code[code])
        components[code] = parts
        divergences[code] = sum(
            w * parts[name] for w, name in zip(cfg.drift_component_weights, COMPONENTS)
        )

    drifting = {code for code, d in divergences.items() if d >= cfg.drift_threshold}
    index = _release_match(current.window(), system, cfg.release_correlation_window_days)
    release = None if index is None else system.versions[index]
    # Only the hop into the matched release can explain this window; the
    # first release has no predecessor and changed nothing.
    touched: frozenset[str] = frozenset()
    if index:  # neither no match (None) nor the first release (0)
        touched = changed_codes(
            system, system.versions[index - 1].label, release.label
        )

    code_defs = system.codes(current.dominant_version())

    alerts: list[DriftAlert] = []
    for code in sorted(drifting):
        co_drifting = drifting - {code}
        cdef = code_defs.get(code)
        # Keys in tie order; the total sums A + B + C, which fixes the confidence's last bit.
        scores = {
            DriftType.TYPE_B: _overlap(co_drifting, code_defs, code, "billing_category"),
            DriftType.TYPE_C: 1.0 if code in touched else 0.0,
            DriftType.TYPE_A: _overlap(co_drifting, code_defs, code, "clinical_group"),
        }
        total = scores[DriftType.TYPE_A] + scores[DriftType.TYPE_B] + scores[DriftType.TYPE_C]
        drift_type = max(scores, key=scores.__getitem__)
        alerts.append(DriftAlert(
            code=code,
            divergence=divergences[code],
            drift_type=drift_type,
            confidence=scores[drift_type] / total if total else 1.0 / 3.0,
            component_divergences=components[code],
            evidence={
                "co_drifting_codes": sorted(co_drifting),
                "billing_category": None if cdef is None else cdef.billing_category,
                "billing_overlap": scores[DriftType.TYPE_B],
                "clinical_group": None if cdef is None else cdef.clinical_group,
                "clinical_overlap": scores[DriftType.TYPE_A],
                "release_match": None if release is None else {
                    "version": release.label,
                    "release_date": release.release_date.isoformat(),
                },
                "release_changed_code": bool(scores[DriftType.TYPE_C]),
            },
        ))
    alerts.sort(key=lambda a: (-a.divergence, a.code))
    return alerts


def write_alerts(alerts: Iterable[DriftAlert], path: str | Path) -> None:
    write_jsonl(path, alerts)
