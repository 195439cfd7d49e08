"""Numeric kernel for distribution divergence.

The drift scan compares every fingerprinted code's four usage components
with the base-2 Jensen-Shannon divergence. One numpy row kernel computes
it; ``jsd_base2`` is a one-row call of the same kernel.
"""

from __future__ import annotations

import numpy as np


def _jsd_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    m = 0.5 * (ps + qs)
    safe_m = np.where(m > 0.0, m, 1.0)
    lp = np.where(ps > 0.0, ps * np.log2(np.where(ps > 0.0, ps, 1.0) / safe_m), 0.0)
    lq = np.where(qs > 0.0, qs * np.log2(np.where(qs > 0.0, qs, 1.0) / safe_m), 0.0)
    return 0.5 * lp.sum(axis=1) + 0.5 * lq.sum(axis=1)


def jsd_base2(p: np.ndarray, q: np.ndarray) -> float:
    """Base-2 Jensen-Shannon divergence of two aligned probability vectors.

    Inputs must be non-negative and sum to ~1 each; the result lies in [0,1]
    (clamped against floating-point fuzz at the boundaries).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    value = float(_jsd_rows(p.reshape(1, -1), q.reshape(1, -1))[0])
    return min(1.0, max(0.0, value))


def jsd_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise base-2 JSD for two (n, k) matrices of probability rows."""
    ps = np.asarray(ps, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    if ps.shape != qs.shape:
        raise ValueError(f"shape mismatch: {ps.shape} vs {qs.shape}")
    return np.clip(_jsd_rows(ps, qs), 0.0, 1.0)
