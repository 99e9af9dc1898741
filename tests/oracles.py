"""Independent reference implementations used to verify the pipeline.

Everything here is deliberately written from scratch against the intended
mathematics, structured differently from the package code: plain tuples
instead of domain types, explicit loops instead of vectorization. The one
shared convention is the canonical IoU expression (intersection via
min/max, union as len_a + len_b - intersection, accumulated with
math.fsum), so scores that are mathematically equal are bit-equal in both
implementations and tie-breaking decisions coincide.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------- intervals

def iou_ref(a: tuple[float, float], b: tuple[float, float]) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def grid_segments_ref(start: float, end: float, seg_len: float) -> list[tuple[float, float]]:
    """Segment extents: fixed-length pieces, last absorbs the remainder."""
    n = max(1, math.floor((end - start) / seg_len))
    segs = []
    for i in range(n):
        lo = start + i * seg_len
        hi = end if i == n - 1 else start + (i + 1) * seg_len
        segs.append((lo, hi))
    return segs


def row_owner_ref(row: int, row_end: float, gts: list[tuple[float, float]]) -> int | None:
    """Index of the first gt covering at least half of feature row
    [row, row_end), or None when no gt does."""
    for j, (lo, hi) in enumerate(gts):
        if min(row_end, hi) - max(float(row), lo) >= 0.5 * (row_end - row):
            return j
    return None


# ------------------------------------------------------------------ editing

def topk_ref(sims, k: int) -> list[int]:
    """k highest-similarity indices, ties to the lower index, ascending."""
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return sorted(order[: min(k, len(sims))])


def consensus_ref(cands: list[tuple[float, float]]) -> int:
    """Exhaustive argmax of summed pairwise IoU (self included)."""
    scores = []
    for j in range(len(cands)):
        scores.append(math.fsum(iou_ref(cands[j], cands[k]) for k in range(len(cands))))
    best = 0
    for j in range(1, len(cands)):
        s_best, s_j = scores[best], scores[j]
        if s_j > s_best:
            best = j
        elif s_j == s_best:
            len_best = cands[best][1] - cands[best][0]
            len_j = cands[j][1] - cands[j][0]
            if len_j > len_best or (len_j == len_best and cands[j][0] < cands[best][0]):
                best = j
    return best


def edit_ref(
    sims, k: int, clip: tuple[float, float], seg_len: float, gate: float
) -> tuple[tuple[float, float], bool]:
    """Full reference edit from a similarity vector: (edited, applied)."""
    segs = grid_segments_ref(clip[0], clip[1], seg_len)
    assert len(sims) == len(segs)
    top = topk_ref(sims, k)
    if len(top) < 2:
        return clip, False
    pairs = [(a, b) for i, a in enumerate(top) for b in top[i + 1:]]
    cands = [(segs[a][0], segs[b][1]) for a, b in pairs]
    winner = cands[consensus_ref(cands)]
    if iou_ref(clip, winner) >= gate:
        return winner, True
    return clip, False


# ---------------------------------------------------------------- gradients

def _loss_ref(W_v, b_v, W_c, b_c, tau, clip_batch, cap_batch) -> float:
    """Symmetric InfoNCE, recomputed with explicit per-pair loops."""
    B = len(clip_batch)
    clips, caps = [], []
    for i in range(B):
        pooled = W_v @ np.mean(clip_batch[i], axis=0) + b_v
        clips.append(pooled / np.linalg.norm(pooled))
        proj = W_c @ np.asarray(cap_batch[i]) + b_c
        caps.append(proj / np.linalg.norm(proj))
    total = 0.0
    for i in range(B):
        row = np.array([float(np.dot(clips[i], caps[j])) / tau for j in range(B)])
        col = np.array([float(np.dot(clips[j], caps[i])) / tau for j in range(B)])
        row_lse = np.max(row) + math.log(np.sum(np.exp(row - np.max(row))))
        col_lse = np.max(col) + math.log(np.sum(np.exp(col - np.max(col))))
        total += (row[i] - row_lse) + (col[i] - col_lse)
    return -total / (2 * B)


def fd_grads(params, clip_batch, cap_batch, step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of the reference loss for every block."""
    blocks = {
        "W_v": params.W_v.astype(np.float64).copy(),
        "b_v": params.b_v.astype(np.float64).copy(),
        "W_c": params.W_c.astype(np.float64).copy(),
        "b_c": params.b_c.astype(np.float64).copy(),
    }

    def loss_at(mutated: dict[str, np.ndarray]) -> float:
        return _loss_ref(
            mutated["W_v"], mutated["b_v"], mutated["W_c"], mutated["b_c"],
            params.tau, clip_batch, cap_batch,
        )

    grads = {}
    for name, base in blocks.items():
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        g_flat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = loss_at(blocks)
            flat[idx] = orig - step
            lo = loss_at(blocks)
            flat[idx] = orig
            g_flat[idx] = (hi - lo) / (2 * step)
        grads[name] = g
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Block-level relative error: ||a - b|| / max(||a||, ||b||, tiny)."""
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom
