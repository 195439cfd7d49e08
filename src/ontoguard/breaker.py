"""Feedback-loop circuit breaker for retraining on AI-influenced data.

Records carrying an influence tag are counted per training cohort; the
resulting ratio drives a three-state gate. The breaker opens strictly above
the threshold ("exceeds" means >, so a ratio exactly at the threshold stays
closed), and warns when the ratio is still below threshold but has risen
for three consecutive periods and its trend crosses the threshold next
period. A toy risk model stands in for the retrained model at desk scale;
its predictive quality is a non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    PipelineConfig,
    RecordBatch,
    ValidationError,
    write_csv,
    write_json,
)


@dataclass(frozen=True)
class InfluenceStats:
    cohort_id: str
    ratio: float
    tagged_count: int
    total_count: int
    history: tuple[tuple[str, float], ...]


class BreakerStateKind(str, Enum):
    CLOSED = "closed"
    WARNING = "warning"
    OPEN = "open"


@dataclass(frozen=True)
class BreakerState:
    state: BreakerStateKind
    reason: str
    threshold_used: float


@dataclass(frozen=True)
class ToyRiskModel:
    """Per-code outcome-rate scorer standing in for the real risk model."""

    model_version: str
    weights: Mapping[str, float]

    def version_number(self) -> int:
        return int(self.model_version.rsplit("-", 1)[-1])


@dataclass(frozen=True)
class Refusal:
    reason: str
    stats: InfluenceStats
    state: BreakerState


# Co-codes treated as the positive outcome when fitting the toy model.
OUTCOME_MARKERS = frozenset({"LAB-HBA1C-HI", "LAB-GLU-HI"})


def compute_stats(
    cohort: RecordBatch,
    history: Sequence[tuple[str, float]],
    cohort_id: str = "cohort",
    period: str | None = None,
) -> InfluenceStats:
    """Tagged-over-total ratio for a cohort, appended to the period history."""
    total = len(cohort)
    tagged = int(np.count_nonzero(cohort.tag >= 0))
    ratio = tagged / total if total else 0.0
    if period is None:
        period = f"period-{len(history) + 1}"
    return InfluenceStats(cohort_id=cohort_id, ratio=ratio, tagged_count=tagged,
                          total_count=total, history=tuple(history) + ((period, ratio),))


def evaluate(stats: InfluenceStats, cfg: PipelineConfig) -> BreakerState:
    """Open strictly above threshold; warn on a rising trend about to cross."""
    threshold = cfg.breaker_threshold
    ratio = stats.ratio
    if ratio > threshold:
        return BreakerState(
            state=BreakerStateKind.OPEN,
            reason=(
                f"AI influence ratio {ratio:.4f} exceeds threshold {threshold:.4f}; "
                "automatic retraining paused pending audit"
            ),
            threshold_used=threshold,
        )
    ratios = [r for _, r in stats.history]
    if len(ratios) >= 3:
        r3, r2, r1 = ratios[-3], ratios[-2], ratios[-1]
        rising = r3 < r2 < r1
        projected = r1 + ((r1 - r2) + (r2 - r3)) / 2.0
        if rising and projected > threshold:
            return BreakerState(
                state=BreakerStateKind.WARNING,
                reason=(
                    f"AI influence ratio {ratio:.4f} below threshold {threshold:.4f} "
                    f"but rising for three periods; projected {projected:.4f} may "
                    "breach the threshold by the next cycle"
                ),
                threshold_used=threshold,
            )
    return BreakerState(
        state=BreakerStateKind.CLOSED,
        reason=f"AI influence ratio {ratio:.4f} within threshold {threshold:.4f}",
        threshold_used=threshold,
    )


def retrain_gate(
    state: BreakerState,
    cohort: RecordBatch,
    model: ToyRiskModel,
    stats: InfluenceStats,
) -> ToyRiskModel | Refusal:
    """Retrain in closed/warning state; refuse with an audit packet when open.

    Retraining fits per-code empirical outcome rates over the cohort and
    bumps the model version; the new model is trained on ``stats``' cohort.
    A record's codes and outcome depend on its primary code and co-code set
    alone, so each distinct pair is counted once.
    """
    if state.state is BreakerStateKind.OPEN:
        return Refusal(reason=state.reason, stats=stats, state=state)
    if not len(cohort):
        raise ValidationError("cannot retrain on an empty cohort")
    totals: dict[str, int] = {}
    positives: dict[str, int] = {}
    pairs, counts, _ = cohort.groups("code", "co")
    for (primary_code, co_codes), n in zip(pairs, counts):
        outcome = bool(co_codes & OUTCOME_MARKERS)
        for code in {primary_code, *co_codes}:
            totals[code] = totals.get(code, 0) + n
            if outcome:
                positives[code] = positives.get(code, 0) + n
    weights = {code: positives.get(code, 0) / totals[code] for code in sorted(totals)}
    return ToyRiskModel(model_version=f"toy-risk-{model.version_number() + 1}", weights=weights)


def write_influence_csv(
    rows: Iterable[tuple[str, InfluenceStats, BreakerState]], path: str | Path
) -> None:
    """Dashboard export: one line per (period, cohort) with ratio and state."""
    write_csv(path, ["period", "cohort", "ratio", "state"],
              ([period, stats.cohort_id, f"{stats.ratio:.6f}", state.state.value]
               for period, stats, state in rows))


def write_refusal_packet(refusal: Refusal, path: str | Path) -> None:
    write_json(path, {
        "reason": refusal.reason,
        "state": refusal.state.state,
        "threshold_used": refusal.state.threshold_used,
        "stats": refusal.stats,
    })


def read_history(text: str) -> list[tuple[str, float]]:
    """Parse a period history from a comma list of ratios.

    Raises:
        ValidationError: an entry that is not a ratio in [0,1] (the message
            names the entry).
    """
    history = []
    for part in (part.strip() for part in text.split(",")):
        if not part:
            continue
        try:
            ratio = float(part)
        except ValueError:
            raise ValidationError(f"history entry {part!r} is not a number") from None
        if not 0.0 <= ratio <= 1.0:  # also false for nan
            raise ValidationError(f"history entry {part!r} is not a ratio in [0,1]")
        history.append((f"period-{len(history) + 1}", ratio))
    return history
