"""Small, separately tested arithmetic of the benchmark.

* which percentiles a sample supports (at least ten samples beyond);
* the failure tally behind ``attempted`` and ``failed``;
* span self time: a span's duration minus the part of its interval that
  its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q`` of ``values``, or ``None`` when the sample cannot
    support it.  The median needs only one sample."""
    if not values or (q != 50 and not supports(len(values), q)):
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Equal slices a measured window is cut into for :func:`slice_median`.
SLICES = 5


def slice_median(
    times: Sequence[float],
    values: Sequence[float],
    start: float,
    end: float,
    figure,
) -> Optional[float]:
    """The median over ``SLICES`` equal slices of ``[start, end)`` of
    ``figure(values in the slice, slice seconds)``.

    The host's CPU speed drifts by tens of percent for seconds at a time;
    a slowdown that covers fewer than half the slices of a window moves
    this median by at most one slice rank, where it moves a figure over
    the whole window in proportion.  ``None`` when a slice's figure is
    ``None`` (too few samples for a percentile)."""
    width = (end - start) / SLICES
    buckets: list[list[float]] = [[] for _ in range(SLICES)]
    for time_, value in zip(times, values):
        index = int((time_ - start) // width)
        if 0 <= index < SLICES:
            buckets[index].append(value)
    figures = [figure(bucket, width) for bucket in buckets]
    if any(f is None for f in figures):
        return None
    return float(np.median(figures))


#: Outcomes that count as failed operations.
FAILURES = ("error", "refused", "timeout", "wrong")


class Tally:
    """Operations attempted and how each ended.

    Every outcome other than ``"ok"`` is a failure: an error response, a
    refused or reset connection, a timeout, or a wrong result.
    """

    def __init__(self) -> None:
        self.outcomes: Counter = Counter()

    def record(self, outcome: str) -> None:
        if outcome != "ok" and outcome not in FAILURES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.outcomes[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(self.outcomes[name] for name in FAILURES)


class Span(NamedTuple):
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]
