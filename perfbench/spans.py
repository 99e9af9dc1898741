"""In-memory spans for the traced run, and the arithmetic derived from them.

A span is a named wall-clock interval with the index of the span that was
open when it started. Span names are `<layer>.<what>`; the layer is the
clipedit module the benchmark called into (`corpus`, `cotrain`, `editor`,
`encoder`, `evalrep`) or `bench` for the benchmark's own grouping spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# Percentiles in hundredths of a percent, so rank arithmetic stays exact.
PERCENTILE_LADDER = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list; None for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until `dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent)

    def closed(self) -> list[Span]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self.spans)  # type: ignore[arg-type]

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.closed()
        ]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(s.start, s.end, kids) for s, kids in zip(spans, children)]


def nearest_rank(sorted_values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile; `pct` in hundredths of a percent."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-pct * n // 10000))
    return sorted_values[rank - 1]


def tail_percentile(values: Sequence[float]) -> tuple[int, float, int] | None:
    """The highest ladder percentile with at least MIN_BEYOND samples above
    its rank: (pct in hundredths of a percent, value, n), or None when even
    the median has too few samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in PERCENTILE_LADDER:
        if n - -(-pct * n // 10000) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, nearest_rank(ordered, best), n


def pct_label(pct: int) -> str:
    """9900 -> 'p99', 9990 -> 'p99.9'."""
    whole, frac = divmod(pct, 100)
    return f"p{whole}" if frac == 0 else f"p{whole}.{str(frac).rstrip('0')}"
