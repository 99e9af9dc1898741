"""Boundary editing: per-segment similarities, Top-K, pairwise-IoU consensus.

Given a caption and its current clip, the teacher scores each 1-second
segment of the clip against the caption, keeps the Top-K segments,
enumerates every interval spanned by a pair of kept segments, and picks
the candidate maximizing summed IoU against all candidates. The edit is
applied only when IoU(initial, winner) clears the configured gate.

`edit_all` does this for many captions and does only the work whose result
can change. A clip of at most k segments keeps all of them without being
scored. The other clips are scored one pooling block at a time by one
product (`encoder._block_scores`), and a clip keeps that block's Top-K only
when its k-th and (k+1)-th scores differ by more than the product's error
bound; any other clip is scored again on its own (`_segment_scores`), so
the lower-index tie-break stays exact. Candidates and consensus then run as
arrays over blocks of captions (`_decide`). Given the results of an earlier
edit of the same clips with the same config, a caption whose Top-K did not
change keeps its result, which `_decide` would repeat exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, ClipRef, FeatureStore, _pool_blocks, _video, write_jsonl
from .encoder import (  # noqa: F401
    EncoderParams,
    _block_scores,
    _roundoff,
    _segment_scores,
    embed_captions,
    segment_similarities,
)
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


def top_k_segments(sims: np.ndarray, k: int) -> list[int] | list[list[int]]:
    """Indices of the min(k, n) largest similarities, ascending.

    Ties go to the lower index (stable sort on descending value). A 2-D
    block is taken row by row and gives one list per row; a short row is
    padded with -inf, which sorts after every score.
    """
    sims = np.asarray(sims)
    if sims.ndim not in (1, 2) or sims.shape[-1] == 0:
        raise ValueError("sims must be a non-empty 1-D vector")
    return np.sort(np.argsort(-sims, axis=-1, kind="stable")[..., :k], axis=-1).tolist()


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
    u, gamma = _roundoff(c - 1, np.dtype(np.float64))
    return 2 * gamma * c + 4 * u * c


def _decide(
    tops: list[list[int]], origin: np.ndarray, seg_len_s: float, n_seg: np.ndarray,
    clip_end: np.ndarray, initials: list[Interval], cfg: EditConfig,
) -> list[tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]]:
    """`edit_from_sims` for a block of rows, done as arrays over the block.

    Row i's grid is (origin[i], seg_len_s, n_seg[i], clip_end[i]) and tops[i]
    is its `top_k_segments` list. `np.triu_indices` pairs the lists, padded to
    the widest, in `enumerate_candidates`' order, bounded by `segment_bounds`.
    A row whose best `np.sum` of `ious` leads every other by more than
    `_lead_bound` keeps that winner; any other row (a near or exact tie) runs
    `consensus_argmax` on its own candidates.
    """
    m = np.array([len(t) for t in tops])
    k = max(2, int(m.max()))
    topk = np.array([t + [0] * (k - len(t)) for t in tops])
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
        (Interval(s, e) if ok else iv, ok, tuple(top), (p, q) if len(top) >= 2 else None)
        for iv, s, e, p, q, top, ok in zip(initials, starts.tolist(), ends.tolist(), a.tolist(),
                                           b.tolist(), tops, applied.tolist())
    ]


def edit_from_sims(
    sims: np.ndarray, grid: SegmentGrid, initial: Interval, cfg: EditConfig
) -> tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]:
    """The deterministic part of the edit, factored out for oracle tests.

    Returns (edited, applied, topk_indices, winner_pair).
    """
    top = top_k_segments(sims, cfg.k)
    if len(top) >= 2 and top[-1] >= grid.n_segments:  # more scores than segments
        grid.segment(next(t for t in top if t >= grid.n_segments))  # enumerate_candidates' error
    return _decide([top], np.array([grid.origin_s]), grid.seg_len_s, np.array([grid.n_segments]),
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


def _top_ks(
    teacher: EncoderParams, recs: list, origin: np.ndarray, clip_end: np.ndarray,
    n_seg: np.ndarray, caps: np.ndarray, cfg: EditConfig,
) -> list[list[int]]:
    """Each clip's `top_k_segments` list of its segment scores against caps[i].

    A clip of n <= k segments keeps range(n) and is not scored. The other
    clips of a pooling block are scored by one `_block_scores` product and
    take Top-K from the block, padded row by row. A clip keeps it when its
    k-th and (k+1)-th block scores differ by more than 4 * its rows' largest
    delta: each product lies within delta of the real scores, so the
    one-caption scores order the same k segments strictly first. Any other
    clip (a near or exact tie, NaN, a norm too small for the bound) is scored
    again by `_segment_scores` on a fresh copy of its caption row.
    """
    tops = [list(range(n)) for n in n_seg.tolist()]
    for lo, hi, segs, first in _pool_blocks(recs, origin, clip_end, n_seg, cfg.seg_len_s):
        n = n_seg[lo:hi]
        long = np.flatnonzero(n > cfg.k)
        if not long.size:
            continue
        clip = np.repeat(np.arange(hi - lo), n)
        pos = np.arange(clip.size) - first[clip]  # each segment's index in its clip
        rows = segs
        if long.size < hi - lo:  # only the rows of clips with n > k, copied
            sel = n[clip] > cfg.k
            clip, pos, rows = clip[sel], pos[sel], segs[sel]
        scores, delta = _block_scores(teacher, rows, caps[lo + clip])
        # row j of S and D holds clip long[j], padded with -inf scores and zero bounds
        S = np.full((long.size, int(n[long].max())), -np.inf, dtype=scores.dtype)
        D = np.zeros(S.shape)
        row = np.searchsorted(long, clip)
        S[row, pos], D[row, pos] = scores, delta
        top = top_k_segments(S, cfg.k)
        kept = np.zeros(S.shape, dtype=bool)
        kept[np.arange(long.size)[:, None], np.array(top)] = True
        kth = np.where(kept, S, np.inf).min(axis=1).astype(np.float64)
        gap = kth - np.where(kept, -np.inf, S).max(axis=1)  # minus the (k+1)-th score, in float64
        sure = gap > 4 * D.max(axis=1)  # False for NaN
        for j, i in enumerate(long.tolist()):
            f = int(first[i])
            tops[lo + i] = top[j] if sure[j] else top_k_segments(
                _segment_scores(teacher, segs[f:f + int(n[i])], caps[lo + i].copy()), cfg.k)
    return tops


def edit_all(
    teacher: EncoderParams,
    store: FeatureStore,
    clips: ClipAssignment,
    cfg: EditConfig,
) -> tuple[ClipAssignment, list[EditResult]]:
    """Edit every assigned clip; results ordered by caption_id. The captions are
    embedded in one call, every clip is pooled a block at a time (`corpus._pool_blocks`)
    and each caption gets the `top_k_segments` of its scores (`_top_ks`); then
    `_decide` edits blocks of captions sized by `_IOU_BLOCK_BYTES` for the largest
    Top-K the clips can have, and leaves a clip of one segment as it is."""
    return _edit_all(teacher, store, clips, cfg)


def _edit_all(
    teacher: EncoderParams,
    store: FeatureStore,
    clips: ClipAssignment,
    cfg: EditConfig,
    last: list[EditResult] = (),
) -> tuple[ClipAssignment, list[EditResult]]:
    """`edit_all`, given `last`, results of an earlier call with the same `cfg`: a
    caption whose initial clip, segment count and Top-K equal its result there
    keeps that result, which `_decide` would repeat, and only the others are decided."""
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
    ids = [caption_id for caption_id, _ in items]
    # each row equals `embed_caption`'s bit for bit
    caps = embed_captions(teacher, [store.caption_features[cid] for cid in ids], ids)
    tops = _top_ks(teacher, recs, origin, clip_end, n_seg, caps, cfg)
    # a result depends on its caption only through these four and `cfg`
    prev = {(r.caption_id, r.initial, r.n_segments, r.topk_indices): r for r in last}
    results = [prev.get((cid, iv, n, tuple(top)))
               for cid, iv, n, top in zip(ids, initials, n_seg.tolist(), tops)]
    todo = [i for i, r in enumerate(results) if r is None]
    for lo in range(0, len(todo), block):
        idx = todo[lo:lo + block]
        decided = _decide([tops[i] for i in idx], origin[idx], cfg.seg_len_s, n_seg[idx], clip_end[idx],
                          [initials[i] for i in idx], cfg)
        for i, n, d in zip(idx, n_seg[idx].tolist(), decided):
            results[i] = EditResult(ids[i], initials[i], *d[:2], n, *d[2:])
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
