"""Arithmetic behind the benchmark's metrics.

The tail rule, failure and other ratios, and span self time, kept apart
from the runner so the unit tests can pin them down exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer samples the median is reported instead.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # the percentile actually reported
    beyond: int        # samples ranked strictly above it
    n: int


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile with at least `beyond` samples ranked above it.

    That is the sorted sample at index n - 1 - beyond, i.e. percentile
    100 * (n - 1 - beyond) / (n - 1).  When that would fall below the
    median (fewer than 2 * beyond + 1 samples) the median is reported, with
    the number of samples that actually lie above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n == 1:
        return Tail(xs[0], 50.0, 0, 1)
    i = n - 1 - beyond
    if i >= (n - 1) / 2:
        return Tail(xs[i], 100.0 * i / (n - 1), beyond, n)
    pos = (n - 1) / 2
    return Tail(float(np.median(xs)), 50.0, n - 1 - math.floor(pos), n)


def failure_ratio(failed: int, attempted: int) -> float:
    """Failed oracle checks over operations attempted; every failure counts."""
    if attempted < 1:
        raise ValueError("failure ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


@dataclass(frozen=True)
class Ratio:
    """A ratio together with its base, so a reader can tell which side moved."""

    num: float
    den: float

    @property
    def value(self) -> float:
        # 0 when the base is empty: the layer was not exercised.
        return self.num / self.den if self.den else 0.0

    def metrics(self, name: str, unit: str = "ratio", base_unit: str = "count") -> dict:
        """The ratio as `name`, its numerator and denominator as name.num / name.den."""
        return {
            name: (self.value, unit),
            f"{name}.num": (float(self.num), base_unit),
            f"{name}.den": (float(self.den), base_unit),
        }


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length of the union of [start, end] intervals, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Map id(span) -> duration minus the part covered by its child spans.

    Spans need `start`, `end` and `parent` (the parent span object or None).
    Children may run on other threads and overlap each other; the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        id(s): (s.end - s.start)
        - union_length(children.get(id(s), ()), s.start, s.end)
        for s in spans
    }
