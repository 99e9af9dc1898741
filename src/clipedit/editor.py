"""Boundary editing: per-segment similarities, Top-K, pairwise-IoU consensus.

Given a caption and its current clip, the teacher scores each 1-second
segment of the clip against the caption, keeps the Top-K segments,
enumerates every interval spanned by a pair of kept segments, and picks
the candidate maximizing summed IoU against all candidates. The edit is
applied only when IoU(initial, winner) clears the configured gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, ClipRef, FeatureStore, _pool_blocks, _video, write_jsonl
from .encoder import EncoderParams, segment_similarities
from .timeline import Interval, SegmentGrid, check_seg_len, ious, segment_bounds, segment_counts

# Bytes of one block's (B, C, C) float64 consensus IoU tensor: 32 captions
# at k=10 (C = 45 candidates). It bounds the memory consensus adds to an edit.
_IOU_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class EditConfig:
    k: int = 10
    seg_len_s: float = 1.0
    iou_gate: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError(f"iou_gate must be in [0,1], got {self.iou_gate}")
        check_seg_len(self.seg_len_s)


@dataclass(frozen=True)
class EditResult:
    caption_id: str
    initial: Interval
    edited: Interval
    applied: bool
    n_segments: int
    topk_indices: tuple[int, ...]
    winner_pair: tuple[int, int] | None


def top_k_segments(sims: np.ndarray, k: int) -> list[int]:
    """Indices of the min(k, n) largest similarities, ascending.

    Ties go to the lower index (stable sort on descending value).
    """
    sims = np.asarray(sims)
    if sims.ndim != 1 or sims.size == 0:
        raise ValueError("sims must be a non-empty 1-D vector")
    return sorted(int(i) for i in np.argsort(-sims, kind="stable")[:k])


def enumerate_candidates(
    indices: list[int], grid: SegmentGrid
) -> list[tuple[tuple[int, int], Interval]]:
    """All intervals [segment a start, segment b end] for pairs a < b.

    Lexicographic (a, b) order; fewer than two indices yield no candidates.
    """
    return [
        ((a, b), Interval(grid.segment(a).start_s, grid.segment(b).end_s))
        for a, b in combinations(indices, 2)
    ]


def consensus_argmax(candidates: list[Interval]) -> int:
    """Index of the candidate maximizing Σ_k IoU(cand_j, cand_k).

    The self term (a constant +1) is included. Ties break toward the
    longer interval, then the earlier start. The C×C IoU matrix comes from
    `timeline.ious`, so mathematically tied candidates score bit-equal and
    the tie-breaks fire.
    """
    if not candidates:
        raise ValueError("consensus over empty candidate list")
    starts = np.array([c.start_s for c in candidates])
    ends = np.array([c.end_s for c in candidates])
    lengths = ends - starts
    matrix = ious(starts[:, None], ends[:, None], starts, ends)
    keys = [
        (math.fsum(row), length, -start)
        for row, length, start in zip(matrix.tolist(), lengths.tolist(), starts.tolist())
    ]
    return max(range(len(keys)), key=keys.__getitem__)


def consensus_select(candidates: list[Interval]) -> Interval:
    return candidates[consensus_argmax(candidates)]


def _lead_bound(c: int) -> float:
    """Lead M that a candidate's `np.sum` key needs over every other key
    for `consensus_argmax` to pick that candidate too.

    An IoU entry is in [0, 1] in floats as well: the computed intersection
    is at most either length, so the union is at least the intersection. A
    key sums c entries, and `np.sum` in any order lands within
    gamma_{c-1}*c of the exact sum s, with unit roundoff u and
    gamma_n = n*u/(1 - n*u). A key above fl(key_j + M), which is at least
    key_j + M - 2*u*c, has s_b - s_j > 2*u*c >= u*(s_b + s_j), so the
    correctly rounded `math.fsum` keys order b strictly first.
    """
    u = float(np.finfo(np.float64).eps) / 2
    gamma = (c - 1) * u / (1 - (c - 1) * u)
    return 2 * gamma * c + 4 * u * c


def _decide(
    sims_rows: list[np.ndarray], origin: np.ndarray, seg_len_s: float, n_seg: np.ndarray,
    clip_end: np.ndarray, initials: list[Interval], cfg: EditConfig,
) -> list[tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]]:
    """`edit_from_sims` for a block of rows, done as arrays over the block.

    Row i's grid is (origin[i], seg_len_s, n_seg[i], clip_end[i]).
    NaN-padded negated scores sort stably behind every real score, NaN
    included, so a row's first min(k, n) columns are `top_k_segments`'.
    `np.triu_indices` pairs them in `enumerate_candidates`' order, bounded
    by `segment_bounds`. A row whose best `np.sum` of `ious` leads every
    other by more than `_lead_bound` keeps that winner; any other row (a
    near or exact tie) runs `consensus_argmax` on its own candidates.
    """
    m = np.array([min(s.size, cfg.k) for s in sims_rows])  # a Python min: k may pass int64
    k = max(2, int(m.max()))
    scores = np.full((len(sims_rows), max(k, max(s.size for s in sims_rows))), np.nan)
    for row, s in zip(scores, sims_rows):
        row[:s.size] = s
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    topk = np.sort(np.where(np.arange(k) < m[:, None], order, scores.shape[1]), axis=1)
    ia, ib = np.triu_indices(k, 1)
    a, b = topk[:, ia], topk[:, ib]
    valid = ib < m[:, None]
    grid = origin[:, None], seg_len_s, n_seg[:, None], clip_end[:, None]
    # a padding candidate is [-2, -1): it overlaps no clip, so it adds exact zeros
    starts = np.where(valid, segment_bounds(*grid, a)[0], -2.0)
    ends = np.where(valid, segment_bounds(*grid, b)[1], -1.0)
    keys = np.where(valid, np.sum(ious(starts[:, :, None], ends[:, :, None], starts[:, None, :],
                                       ends[:, None, :]), axis=2), -np.inf)
    sure = np.sum(keys + _lead_bound(len(ia)) >= keys.max(axis=1)[:, None], axis=1) == 1
    win = keys.argmax(axis=1)
    for i in np.flatnonzero(~sure & (m >= 2)).tolist():  # a near or exact tie
        cols = np.flatnonzero(valid[i])
        cands = [Interval(s, e) for s, e in zip(starts[i, cols].tolist(), ends[i, cols].tolist())]
        win[i] = cols[consensus_argmax(cands)]
    rows = np.arange(len(win))
    starts, ends, a, b = starts[rows, win], ends[rows, win], a[rows, win], b[rows, win]
    init = np.array([(iv.start_s, iv.end_s) for iv in initials])
    applied = (ious(init[:, 0], init[:, 1], starts, ends) >= cfg.iou_gate) & (m >= 2)
    return [
        (Interval(s, e) if ok else iv, ok, tuple(top[:mi]), (p, q) if mi >= 2 else None)
        for iv, s, e, p, q, top, mi, ok in zip(initials, starts.tolist(), ends.tolist(), a.tolist(),
                                               b.tolist(), topk.tolist(), m.tolist(), applied.tolist())
    ]


def edit_from_sims(
    sims: np.ndarray, grid: SegmentGrid, initial: Interval, cfg: EditConfig
) -> tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]:
    """The deterministic part of the edit, factored out for oracle tests.

    Returns (edited, applied, topk_indices, winner_pair).
    """
    sims = np.asarray(sims)
    top = top_k_segments(sims, cfg.k)
    if len(top) >= 2 and top[-1] >= grid.n_segments:  # more scores than segments
        grid.segment(next(t for t in top if t >= grid.n_segments))  # enumerate_candidates' error
    return _decide([sims], np.array([grid.origin_s]), grid.seg_len_s, np.array([grid.n_segments]),
                   np.array([grid.clip_end_s]), [initial], cfg)[0]


def edit_clip(
    teacher: EncoderParams,
    store: FeatureStore,
    caption_id: str,
    ref: ClipRef,
    cfg: EditConfig,
) -> EditResult:
    """Run the full edit for one caption (a block of one); falls back to the
    initial clip when the clip is too short to edit or the gate rejects it."""
    return edit_all(teacher, store, {caption_id: ref}, cfg)[1][0]


def edit_all(
    teacher: EncoderParams,
    store: FeatureStore,
    clips: ClipAssignment,
    cfg: EditConfig,
) -> tuple[ClipAssignment, list[EditResult]]:
    """Edit every assigned clip; results ordered by caption_id. Every clip is
    pooled a block at a time (`corpus._pool_blocks`) and each caption is
    scored on its own rows of the block; then `_decide` edits blocks of
    captions sized by `_IOU_BLOCK_BYTES` for the largest Top-K the clips can
    have, and leaves a clip of one segment as it is."""
    items = sorted(clips.items())
    recs = []
    for caption_id, ref in items:
        if caption_id not in store.caption_features:
            raise ValueError(f"no caption features for {caption_id!r}")
        try:
            recs.append(_video(store, ref.video_id, ref.interval.start_s, ref.interval.end_s))
        except ValueError as exc:
            raise ValueError(f"editing caption {caption_id!r}: {exc}") from exc
    initials = [ref.interval for _, ref in items]
    origin, clip_end = np.array([(iv.start_s, iv.end_s) for iv in initials]).reshape(-1, 2).T
    n_seg = segment_counts(clip_end - origin, cfg.seg_len_s)
    k = min(cfg.k, int(n_seg.max(initial=1)))  # a Python min: k may pass int64
    block = max(1, _IOU_BLOCK_BYTES // (8 * max(1, k * (k - 1) // 2) ** 2))
    sims = []
    for lo, hi, segs, first in _pool_blocks(recs, origin, clip_end, n_seg, cfg.seg_len_s):
        for (caption_id, _), f, n in zip(items[lo:hi], first.tolist(), n_seg[lo:hi].tolist()):
            cap = store.caption_features[caption_id]
            try:
                sims.append(segment_similarities(teacher, segs[f:f + n], cap))
            except ValueError as exc:
                raise ValueError(f"editing caption {caption_id!r}: {exc}") from exc
    results: list[EditResult] = []
    for lo in range(0, len(items), block):
        hi = lo + block
        decided = _decide(sims[lo:hi], origin[lo:hi], cfg.seg_len_s, n_seg[lo:hi], clip_end[lo:hi],
                          initials[lo:hi], cfg)
        results += [
            EditResult(caption_id, ref.interval, *d[:2], n, *d[2:])
            for (caption_id, ref), n, d in zip(items[lo:hi], n_seg[lo:hi].tolist(), decided)
        ]
    return {cid: ClipRef(ref.video_id, r.edited) for (cid, ref), r in zip(items, results)}, results


def write_edits(path: str | Path, results: list[EditResult]) -> None:
    write_jsonl(path, ({
        "caption_id": r.caption_id,
        "initial": [r.initial.start_s, r.initial.end_s],
        "edited": [r.edited.start_s, r.edited.end_s],
        "applied": r.applied,
        "n_segments": r.n_segments,
        "topk_indices": list(r.topk_indices),
        "winner_pair": list(r.winner_pair) if r.winner_pair is not None else None,
    } for r in results))
