"""Boundary editing: per-segment similarities, Top-K, pairwise-IoU consensus.

Given a caption and its current clip, the teacher scores each 1-second
segment of the clip against the caption, keeps the Top-K segments,
enumerates every interval spanned by a pair of kept segments, and picks
the candidate maximizing summed IoU against all candidates. The edit is
applied only when IoU(initial, winner) clears the configured gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, ClipRef, FeatureStore, _pool_blocks, _video, atomic_write
from .encoder import EncoderParams, embed_caption
from .timeline import Interval, SegmentGrid, iou, segment_grid

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
        if not self.seg_len_s > 0:
            raise ValueError(f"seg_len_s must be > 0, got {self.seg_len_s}")


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
    longer interval, then the earlier start. The C×C IoU matrix repeats
    `timeline.iou`'s expression elementwise, so mathematically tied
    candidates score bit-equal and the tie-breaks fire.
    """
    if not candidates:
        raise ValueError("consensus over empty candidate list")
    starts = np.array([c.start_s for c in candidates])
    ends = np.array([c.end_s for c in candidates])
    lengths = ends - starts
    inter = np.minimum.outer(ends, ends) - np.maximum.outer(starts, starts)
    union = np.add.outer(lengths, lengths) - inter
    matrix = np.where(inter > 0.0, inter / union, 0.0)
    keys = [
        (math.fsum(row), length, -start)
        for row, length, start in zip(matrix.tolist(), lengths.tolist(), starts.tolist())
    ]
    return max(range(len(keys)), key=keys.__getitem__)


def consensus_select(candidates: list[Interval]) -> Interval:
    return candidates[consensus_argmax(candidates)]


def segment_similarities(
    teacher: EncoderParams, seg_feats: np.ndarray, cap_feat: np.ndarray
) -> np.ndarray:
    """Cosine of each individually embedded segment against the caption."""
    z = seg_feats @ teacher.W_v.T + teacher.b_v
    z = z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    return z @ embed_caption(teacher, cap_feat)


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
    sims_rows: list[np.ndarray], grids: list[SegmentGrid], initials: list[Interval],
    cfg: EditConfig,
) -> list[tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]]:
    """`edit_from_sims` for a block of rows, done as arrays over the block.

    NaN-padded negated scores sort stably behind every real score, NaN
    included, so a row's first min(k, n) columns are `top_k_segments`'.
    `np.triu_indices` pairs them in `enumerate_candidates`' order, with
    `SegmentGrid.segment`'s float expressions. A row whose best `np.sum`
    consensus key leads every other by more than `_lead_bound` keeps that
    winner; any other row (a near or exact tie) runs `consensus_argmax`.
    """
    m = np.minimum([s.size for s in sims_rows], cfg.k)
    k = max(2, int(m.max()))
    scores = np.full((len(sims_rows), max(k, max(s.size for s in sims_rows))), np.nan)
    for row, s in zip(scores, sims_rows):
        row[:s.size] = s
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    topk = np.sort(np.where(np.arange(k) < m[:, None], order, scores.shape[1]), axis=1)
    ia, ib = np.triu_indices(k, 1)
    a, b = topk[:, ia], topk[:, ib]
    valid = ib < m[:, None]
    origin, seg_len, last, clip_end = (np.array(v)[:, None] for v in zip(*(
        (g.origin_s, g.seg_len_s, g.n_segments - 1, g.clip_end_s) for g in grids)))
    # a padding candidate is [-2, -1): it overlaps no clip, so it adds exact zeros
    starts = np.where(valid, origin + a * seg_len, -2.0)
    ends = np.where(valid, np.where(b == last, clip_end, origin + (b + 1) * seg_len), -1.0)
    lengths = ends - starts
    inter = (np.minimum(ends[:, :, None], ends[:, None, :])
             - np.maximum(starts[:, :, None], starts[:, None, :]))
    union = (lengths[:, :, None] + lengths[:, None, :]) - inter
    keys = np.where(valid, np.sum(np.maximum(inter, 0.0) / union, axis=2), -np.inf)
    sure = np.sum(keys + _lead_bound(len(ia)) >= keys.max(axis=1)[:, None], axis=1) == 1
    out = []
    for i, (top, mi, ok, j) in enumerate(
            zip(topk.tolist(), m.tolist(), sure.tolist(), keys.argmax(axis=1).tolist())):
        if mi < 2:
            out.append((initials[i], False, tuple(top[:mi]), None))
            continue
        if top[mi - 1] >= grids[i].n_segments:  # more scores than segments: the reference's error
            grids[i].segment(next(t for t in top if t >= grids[i].n_segments))
        pair, edited = (int(a[i, j]), int(b[i, j])), Interval(float(starts[i, j]), float(ends[i, j]))
        if not ok:  # a near or exact tie: the reference path decides
            cands = enumerate_candidates(top[:mi], grids[i])
            pair, edited = cands[consensus_argmax([iv for _, iv in cands])]
        applied = iou(initials[i], edited) >= cfg.iou_gate
        out.append((edited if applied else initials[i], applied, tuple(top[:mi]), pair))
    return out


def edit_from_sims(
    sims: np.ndarray, grid: SegmentGrid, initial: Interval, cfg: EditConfig
) -> tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]:
    """The deterministic part of the edit, factored out for oracle tests.

    Returns (edited, applied, topk_indices, winner_pair).
    """
    sims = np.asarray(sims)
    if sims.ndim != 1 or sims.size == 0:
        raise ValueError("sims must be a non-empty 1-D vector")
    return _decide([sims], [grid], [initial], cfg)[0]


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
    """Edit every assigned clip; results ordered by caption_id. The clips of
    two or more segments are pooled a block at a time (`corpus._pool_blocks`)
    and each caption is scored on its own rows of the block; then `_decide`
    edits blocks of captions sized by `_IOU_BLOCK_BYTES`."""
    block = max(1, _IOU_BLOCK_BYTES // (8 * max(1, cfg.k * (cfg.k - 1) // 2) ** 2))
    items = sorted(clips.items())
    grids, recs = [], []
    for caption_id, ref in items:
        if caption_id not in store.caption_features:
            raise ValueError(f"no caption features for {caption_id!r}")
        try:
            grids.append(segment_grid(ref.interval, cfg.seg_len_s))
            recs.append(_video(store, ref.video_id, ref.interval.start_s, ref.interval.end_s))
        except ValueError as exc:
            raise ValueError(f"editing caption {caption_id!r}: {exc}") from exc
    sims = [np.zeros(1)] * len(items)  # a clip of one segment is not pooled
    multi = [i for i, grid in enumerate(grids) if grid.n_segments >= 2]
    for lo, hi, segs, first in _pool_blocks(
        [recs[i] for i in multi],
        np.array([grids[i].origin_s for i in multi]),
        np.array([grids[i].clip_end_s for i in multi]),
        np.array([grids[i].n_segments for i in multi], dtype=np.int64),
        cfg.seg_len_s,
    ):
        for i, f in zip(multi[lo:hi], first.tolist()):
            caption_id = items[i][0]
            try:
                sims[i] = segment_similarities(
                    teacher, segs[f:f + grids[i].n_segments], store.caption_features[caption_id]
                )
            except ValueError as exc:
                raise ValueError(f"editing caption {caption_id!r}: {exc}") from exc
    results: list[EditResult] = []
    for lo in range(0, len(items), block):
        decided = _decide(sims[lo:lo + block], grids[lo:lo + block],
                          [ref.interval for _, ref in items[lo:lo + block]], cfg)
        results += [
            EditResult(caption_id, ref.interval, *d[:2], grid.n_segments, *d[2:])
            for (caption_id, ref), grid, d in zip(items[lo:lo + block], grids[lo:lo + block], decided)
        ]
    return {cid: ClipRef(ref.video_id, r.edited) for (cid, ref), r in zip(items, results)}, results


def write_edits(path: str | Path, results: list[EditResult]) -> None:
    lines = [
        json.dumps({
            "caption_id": r.caption_id,
            "initial": [r.initial.start_s, r.initial.end_s],
            "edited": [r.edited.start_s, r.edited.end_s],
            "applied": r.applied,
            "n_segments": r.n_segments,
            "topk_indices": list(r.topk_indices),
            "winner_pair": list(r.winner_pair) if r.winner_pair is not None else None,
        })
        for r in results
    ]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))
