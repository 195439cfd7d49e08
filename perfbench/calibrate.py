"""Reference-scaled timing: wall time corrected for the shared CPU's speed.

On a shared host the CPU this benchmark gets runs at a speed that drifts
by tens of percent within a minute, so raw seconds of the same code
differ between runs far more than a change to the code would move them.
``Calibrator`` interleaves the timed work with a fixed reference slice:
a ``SIGALRM`` timer interrupts the workload every ``interval`` seconds,
and the handler times one ``reference_slice``. Each stretch of workload
between two slices is then rescaled by the slices on either side of it:

    scaled = sum(segment_s * REFERENCE_NOMINAL_S / mean(slice before, slice after))

``scaled`` is the time the work would take on a machine where the
reference slice takes ``REFERENCE_NOMINAL_S``. Slice time is excluded
from both the raw and the scaled time, and ``active_clock`` gives a clock
that stops while a slice runs, for spans measured during calibration.

The reference never touches the workload's state: its own RNG, no files,
and the garbage collector off while it runs, so it cannot change a result
or charge a collection of the workload's heap to the slice.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import signal
import time

# Seconds one reference slice takes on the 2-vCPU shared VM the first
# results were taken on, near its median speed (0.057-0.122 s observed).
# It only fixes the unit of scaled seconds.
REFERENCE_NOMINAL_S = 0.08
# Seconds of workload between two slices: about 10% of the time goes to
# slices.
INTERVAL_S = 0.8
REFERENCE_RECORDS = 1600


@dataclasses.dataclass(frozen=True)
class _Rec:
    rid: str
    inst: str
    code: str
    age: str
    sex: str
    co: tuple[str, ...]
    score: float = 0.0


_CODES = tuple(f"C{i:03d}" for i in range(60))
_INSTS = tuple(f"I{i}" for i in range(8))


def reference_work(n: int = REFERENCE_RECORDS) -> int:
    """Fixed pure-Python work shaped like the pipeline's: frozen records,
    tuple-keyed counting, log-likelihood scores, JSON round trips, a sort."""
    rng = random.Random(12345)
    recs = [_Rec(f"r{i}", rng.choice(_INSTS), rng.choice(_CODES), rng.choice("ABCDE"),
                 rng.choice("FM"), tuple(rng.sample(_CODES, 3))) for i in range(n)]
    counts: dict[tuple[str, str, str], int] = {}
    co: dict[str, dict[str, int]] = {}
    for r in recs:
        key = (r.code, r.age, r.sex)
        counts[key] = counts.get(key, 0) + 1
        row = co.setdefault(r.code, {})
        for c in r.co:
            row[c] = row.get(c, 0) + 1
    scored = []
    for r in recs:
        p = (counts.get((r.code, r.age, r.sex), 0) + 1) / (n + len(_CODES))
        row = co.get(r.code, {})
        total = sum(row.values()) or 1
        s = sum(math.log((row.get(c, 0) + 1) / (total + len(_CODES))) for c in r.co)
        scored.append(dataclasses.replace(r, score=1.0 / (1.0 + math.exp(-(math.log(p) + s / 3)))))
    lines = [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in scored]
    back = [json.loads(line) for line in lines]
    back.sort(key=lambda x: (x["score"], x["rid"]))
    return len(back)


def reference_slice() -> float:
    """Seconds one reference slice takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale_to_reference(raw_s: float, *slices: float) -> float:
    """``raw_s`` in reference-scaled seconds, given slices timed around it."""
    return raw_s * REFERENCE_NOMINAL_S / (sum(slices) / len(slices))


def warm_slice() -> float:
    """One untimed slice to warm the interpreter's caches, then a timed one."""
    reference_slice()
    return reference_slice()


class Calibrator:
    """Times one region in raw and reference-scaled seconds."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.slices: list[float] = []
        self.segments: list[float] = []
        self._paused = 0.0
        self._mark = 0.0
        self._previous_handler = None
        self._active = False

    def active_clock(self) -> float:
        """perf_counter minus the time spent in reference slices."""
        return time.perf_counter() - self._paused

    def _close_segment(self) -> None:
        end = time.perf_counter()
        segment = end - self._mark
        before = self.slices[-1]
        after = reference_slice()
        self.slices.append(after)
        self.segments.append(segment)
        self.raw_s += segment
        self.scaled_s += scale_to_reference(segment, before, after)
        self._mark = time.perf_counter()
        self._paused += self._mark - end

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return
        self._close_segment()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Calibrator":
        self.slices.append(reference_slice())
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._close_segment()

    @property
    def scale(self) -> float:
        """Scaled seconds per raw second over the whole region."""
        return self.scaled_s / self.raw_s if self.raw_s > 0 else 1.0
