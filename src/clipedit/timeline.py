"""Interval arithmetic, segment grids, and initial-clip heuristics.

All quantities are real-valued seconds. A clip is a half-open span
[start_s, end_s); a segment grid tiles a clip into fixed-length pieces
whose last element absorbs any fractional remainder, so the union of the
segments is always exactly the clip.

IoU, segment counts, segment bounds and initial clips are each written
once, as the broadcasting `ious`, `segment_counts`, `segment_bounds` and
`initial_clips`; every scalar and block path calls them, so all paths
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIANTS = (
    "midpoint_neighbors",
    "next_gap",
    "prev_gap",
    "full_neighbors",
    "fixed_half_width",
)


# The shortest segment length a grid accepts: it bounds a clip's segments,
# and the memory pooling and editing give them, at 100 per second.
SEG_LEN_MIN_S = 0.01


class DegenerateClipError(ValueError):
    """A clip-formation rule collapsed to a zero or negative span."""


@dataclass(frozen=True)
class Interval:
    """A time span in seconds with start strictly before end."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError(f"interval bounds must be finite, got [{self.start_s}, {self.end_s}]")
        if self.start_s < 0.0:
            raise ValueError(f"interval start must be >= 0, got {self.start_s}")
        if not self.start_s < self.end_s:
            raise ValueError(f"interval must have start < end, got [{self.start_s}, {self.end_s}]")

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s

    def contains(self, t: float) -> bool:
        return self.start_s <= t <= self.end_s


def ious(a_start, a_end, b_start, b_end) -> np.ndarray:
    """`iou` of [a_start, a_end) and [b_start, b_end), elementwise over
    broadcasting arrays of bounds; 0 where the two are disjoint."""
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    union = ((a_end - a_start) + (b_end - b_start)) - inter
    return np.where(inter > 0.0, inter / union, 0.0)


def iou(a: Interval, b: Interval) -> float:
    """Temporal intersection-over-union of two intervals; 0 when disjoint."""
    return float(ious(a.start_s, a.end_s, b.start_s, b.end_s))


def check_seg_len(seg_len_s: float) -> None:
    """Reject a segment length that is not positive or below SEG_LEN_MIN_S."""
    if not seg_len_s > 0:
        raise ValueError(f"seg_len_s must be > 0, got {seg_len_s}")
    if seg_len_s < SEG_LEN_MIN_S:
        raise ValueError(f"seg_len_s must be >= {SEG_LEN_MIN_S}, got {seg_len_s}")


def segment_counts(length, seg_len_s: float) -> np.ndarray:
    """Segments in a grid over clips of `length` seconds, elementwise as int64:
    whole segments of `seg_len_s`, at least one."""
    check_seg_len(seg_len_s)
    return np.maximum(1, np.floor(length / seg_len_s)).astype(np.int64)


def segment_bounds(origin, seg_len, n_segments, clip_end, i) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of segment i of the grid (origin, seg_len, n_segments,
    clip_end), elementwise over broadcasting arrays; the last segment ends
    at clip_end."""
    start = origin + i * seg_len
    return start, np.where(i == n_segments - 1, clip_end, origin + (i + 1) * seg_len)


@dataclass(frozen=True)
class SegmentGrid:
    """Equal-length tiling of a clip; the last segment absorbs the remainder.

    Segment i covers [origin_s + i*seg_len_s, origin_s + (i+1)*seg_len_s)
    for i < n_segments - 1; the last segment extends to clip_end_s. Short
    clips (shorter than one segment) still get a single segment.
    """

    origin_s: float
    seg_len_s: float
    n_segments: int
    clip_end_s: float

    def segment(self, i: int) -> Interval:
        if not 0 <= i < self.n_segments:
            raise IndexError(f"segment index {i} out of range [0, {self.n_segments})")
        start, end = segment_bounds(self.origin_s, self.seg_len_s, self.n_segments, self.clip_end_s, i)
        return Interval(float(start), float(end))


def segment_grid(clip: Interval, seg_len_s: float = 1.0) -> SegmentGrid:
    """Tile `clip` into segments of `seg_len_s` seconds."""
    return SegmentGrid(clip.start_s, seg_len_s, int(segment_counts(clip.length_s, seg_len_s)), clip.end_s)


@dataclass(frozen=True)
class InitStrategy:
    """How to turn a caption timestamp and its neighbors into an initial clip.

    Variants:
      midpoint_neighbors  [(prev+t)/2, (t+next)/2]
      next_gap            [t, next]
      prev_gap            [prev, t]
      full_neighbors      [prev, next]
      fixed_half_width    [t-w, t+w] clamped to the video span

    A missing neighbor substitutes the relevant video boundary for the
    corresponding clip edge.
    """

    variant: str
    half_width_s: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown init strategy {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "fixed_half_width":
            if self.half_width_s is None or not 0 < self.half_width_s < math.inf:  # False for NaN
                raise ValueError("fixed_half_width requires a finite half_width_s > 0")
        elif self.half_width_s is not None:
            raise ValueError(f"half_width_s is only valid for fixed_half_width, not {self.variant}")

    @classmethod
    def parse(cls, text: str) -> "InitStrategy":
        """Parse "midpoint_neighbors" or "fixed_half_width:10"."""
        name, _, arg = text.partition(":")
        if name == "fixed_half_width":
            if not arg:
                raise ValueError("fixed_half_width needs a width, e.g. fixed_half_width:10")
            return cls(name, float(arg))
        if arg:
            raise ValueError(f"strategy {name!r} takes no argument")
        return cls(name)

    def __str__(self) -> str:
        if self.variant == "fixed_half_width":
            return f"{self.variant}:{self.half_width_s:g}"
        return self.variant


def initial_clip(
    prev_t: float | None,
    t: float,
    next_t: float | None,
    video_span: Interval,
    strategy: InitStrategy,
) -> Interval:
    """Build the initial clip for a caption at timestamp `t`.

    `prev_t`/`next_t` are the neighboring captions' timestamps in the same
    video, or None at the first/last caption. Raises DegenerateClipError if
    the rule collapses (e.g. prev_gap at a timestamp equal to video start).
    """
    prev_t, next_t = (math.nan if x is None else x for x in (prev_t, next_t))
    start, end = initial_clips(prev_t, t, next_t, video_span.start_s, video_span.end_s, strategy)
    return Interval(float(start), float(end))


def initial_clips(
    prev_t, t, next_t, v0, v1, strategy: InitStrategy, ids=None,
) -> tuple[np.ndarray, np.ndarray]:
    """`initial_clip` over broadcasting float64 arrays, NaN for a missing neighbor and
    [v0, v1] the video span; returns (start, end). Each check runs over every element
    before the next, and the first failing element raises, as `caption <id>: ...` given `ids`."""
    arrays = (np.asarray(x, dtype=np.float64) for x in (prev_t, t, next_t, v0, v1))
    prev_t, t, next_t, v0, v1 = np.broadcast_arrays(*arrays)
    named = {"prev_t": prev_t, "t": t, "next_t": next_t, "v0": v0, "v1": v1}

    def check(ok, error, message: str) -> None:
        for i in np.flatnonzero(~ok)[:1]:
            text = message.format(strategy=strategy, **{k: v.flat[i] for k, v in named.items()})
            raise error(text if ids is None else f"caption {ids[i]}: {text}")

    check((v0 <= t) & (t <= v1), ValueError, "timestamp {t} outside video span [{v0}, {v1}]")
    check(~(prev_t >= t), ValueError, "prev_t {prev_t} must be < t {t}")  # a NaN neighbor passes
    check(~(next_t <= t), ValueError, "next_t {next_t} must be > t {t}")

    if strategy.variant == "midpoint_neighbors":
        start, end = (prev_t + t) / 2.0, (t + next_t) / 2.0
    elif strategy.variant == "fixed_half_width":
        start, end = t - strategy.half_width_s, t + strategy.half_width_s
    else:  # next_gap [t, next], prev_gap [prev, t], full_neighbors [prev, next]
        start = t if strategy.variant == "next_gap" else prev_t
        end = t if strategy.variant == "prev_gap" else next_t
    # an edge taken from a missing (NaN) neighbor is the video's edge; as v0 <= v1 here, the rest is
    # min(max(edge, v0), v1) bit for bit, -0.0 too (np.clip drops its sign when bounds are arrays)
    named["start"] = start = np.where(np.isnan(start) | (start < v0), v0, np.where(start > v1, v1, start))
    named["end"] = end = np.where(np.isnan(end) | (end > v1), v1, np.where(end < v0, v0, end))
    check(start < end, DegenerateClipError,
          "{strategy} at t={t} yields degenerate clip [{start}, {end}] in video [{v0}, {v1}]")
    return start, end


def jitter(clip: Interval, max_jitter_s: float, video_span: Interval, rng) -> Interval:
    """Independently shift start and end by uniform draws in [-max, +max].

    The result is clamped to the video span; if clamping makes it
    degenerate the original clip is returned unchanged. max_jitter_s = 0 is
    the identity (no rng draws are consumed).
    """
    if max_jitter_s < 0:
        raise ValueError(f"max_jitter_s must be >= 0, got {max_jitter_s}")
    if max_jitter_s == 0:
        return clip
    start = clip.start_s + rng.uniform(-max_jitter_s, max_jitter_s)
    end = clip.end_s + rng.uniform(-max_jitter_s, max_jitter_s)
    start = min(max(start, video_span.start_s), video_span.end_s)
    end = min(max(end, video_span.start_s), video_span.end_s)
    if not start < end:
        return clip
    return Interval(start, end)
