"""Independent brute-force oracles used to cross-check pipeline results.

Everything here is implemented naively (direct summation, full recounts)
and on purpose shares no code with the modules it checks. Performance is a
non-goal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence


def jsd_oracle(p: Sequence[float], q: Sequence[float]) -> float:
    """Base-2 Jensen-Shannon divergence by direct summation.

    Raises:
        ValueError: if either input is not a probability distribution
            (negative entries or mass not summing to 1 within 1e-6).
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    for name, dist in (("p", p), ("q", q)):
        # Written so that NaN, which fails every comparison, fails both checks.
        if not all(x >= 0 for x in dist):
            raise ValueError(f"{name} has negative or NaN entries")
        if not abs(sum(dist) - 1.0) <= 1e-6:
            raise ValueError(f"{name} is not normalized (sum={sum(dist)})")
    total = 0.0
    for pi, qi in zip(p, q):
        m = 0.5 * (pi + qi)
        if pi > 0.0:
            total += 0.5 * pi * math.log2(pi / m)
        if qi > 0.0:
            total += 0.5 * qi * math.log2(qi / m)
    return total


def partition_oracle(
    input_ids: Sequence[str],
    accepted_ids: Sequence[str],
    reconciled_ids: Sequence[str],
    quarantined_ids: Sequence[str],
) -> bool:
    """Recount that a gate outcome partitions its input: every input record
    lands in exactly one bucket and nothing else appears."""
    combined = sorted(list(accepted_ids) + list(reconciled_ids) + list(quarantined_ids))
    return combined == sorted(input_ids)


def partition_oracle_files(
    input_path: str | Path,
    accepted_path: str | Path,
    reconciled_path: str | Path,
    quarantine_path: str | Path,
) -> bool:
    """File-level variant of :func:`partition_oracle`, recounting raw JSONL.

    A line that is not a JSON record raises a ValueError naming ``path:line``.
    """
    def ids(path: str | Path, key: str = "record_id") -> list[str]:
        out: list[str] = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if key not in data and "record" in data:
                    data = data["record"]
                if type(data["record_id"]) is not str:  # ids of mixed types do not sort
                    raise TypeError(f"record_id {data['record_id']!r} is not a string")
                out.append(data["record_id"])
            except (ValueError, LookupError, TypeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno} is not a JSON record: {exc}") from None
        return out

    return partition_oracle(
        ids(input_path), ids(accepted_path), ids(reconciled_path), ids(quarantine_path)
    )
