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
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, ClipRef, FeatureStore, segment_features
from .encoder import EncoderParams, embed_caption
from .timeline import Interval, SegmentGrid, iou, segment_grid


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
    k_eff = min(k, sims.size)
    chosen = np.argsort(-sims, kind="stable")[:k_eff]
    return sorted(int(i) for i in chosen)


def enumerate_candidates(
    indices: list[int], grid: SegmentGrid
) -> list[tuple[tuple[int, int], Interval]]:
    """All intervals [segment a start, segment b end] for pairs a < b.

    Lexicographic (a, b) order; fewer than two indices yield no candidates.
    """
    out: list[tuple[tuple[int, int], Interval]] = []
    for ai in range(len(indices)):
        for bi in range(ai + 1, len(indices)):
            a, b = indices[ai], indices[bi]
            out.append(((a, b), Interval(grid.segment(a).start_s, grid.segment(b).end_s)))
    return out


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


def edit_from_sims(
    sims: np.ndarray, grid: SegmentGrid, initial: Interval, cfg: EditConfig
) -> tuple[Interval, bool, tuple[int, ...], tuple[int, int] | None]:
    """The deterministic part of the edit, factored out for oracle tests.

    Returns (edited, applied, topk_indices, winner_pair).
    """
    topk = top_k_segments(sims, cfg.k)
    if len(topk) < 2:
        return initial, False, tuple(topk), None
    pairs_and_intervals = enumerate_candidates(topk, grid)
    winner = consensus_argmax([iv for _, iv in pairs_and_intervals])
    pair, edited = pairs_and_intervals[winner]
    if iou(initial, edited) >= cfg.iou_gate:
        return edited, True, tuple(topk), pair
    return initial, False, tuple(topk), pair


def edit_clip(
    teacher: EncoderParams,
    store: FeatureStore,
    caption_id: str,
    ref: ClipRef,
    cfg: EditConfig,
) -> EditResult:
    """Run the full edit for one caption; falls back to the initial clip
    when the clip is too short to edit or the IoU gate rejects the winner."""
    cap_feat = store.caption_features.get(caption_id)
    if cap_feat is None:
        raise ValueError(f"no caption features for {caption_id!r}")
    try:
        grid = segment_grid(ref.interval, cfg.seg_len_s)
        if grid.n_segments < 2:
            return EditResult(
                caption_id=caption_id, initial=ref.interval, edited=ref.interval,
                applied=False, n_segments=grid.n_segments, topk_indices=(0,),
                winner_pair=None,
            )
        seg_feats = segment_features(store, ref.video_id, grid)
        sims = segment_similarities(teacher, seg_feats, cap_feat)
    except ValueError as exc:
        raise ValueError(f"editing caption {caption_id!r}: {exc}") from exc
    edited, applied, topk, pair = edit_from_sims(sims, grid, ref.interval, cfg)
    return EditResult(
        caption_id=caption_id, initial=ref.interval, edited=edited,
        applied=applied, n_segments=grid.n_segments, topk_indices=topk,
        winner_pair=pair,
    )


def edit_all(
    teacher: EncoderParams,
    store: FeatureStore,
    clips: ClipAssignment,
    cfg: EditConfig,
) -> tuple[ClipAssignment, list[EditResult]]:
    """Edit every assigned clip; results ordered by caption_id."""
    results = [edit_clip(teacher, store, cid, clips[cid], cfg) for cid in sorted(clips)]
    new_clips: ClipAssignment = {
        r.caption_id: ClipRef(clips[r.caption_id].video_id, r.edited) for r in results
    }
    return new_clips, results


def write_edits(path: str | Path, results: list[EditResult]) -> None:
    lines = []
    for r in results:
        lines.append(json.dumps({
            "caption_id": r.caption_id,
            "initial": [r.initial.start_s, r.initial.end_s],
            "edited": [r.edited.start_s, r.edited.end_s],
            "applied": r.applied,
            "n_segments": r.n_segments,
            "topk_indices": list(r.topk_indices),
            "winner_pair": list(r.winner_pair) if r.winner_pair is not None else None,
        }))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
