"""Caption-to-clip retrieval metrics and interval-overlap reporting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, FeatureStore, _captions, atomic_write, clip_means, write_csv
from .encoder import EncoderParams, _roundoff, embed_captions, embed_clips
from .timeline import Interval, ious

R_AT_KS = (1, 5, 10)

# Bytes of one block of query-by-gallery scores: 64 float32 queries against
# a 10,000-clip gallery. It bounds the memory ranking adds to an eval.
_SCORE_BLOCK_BYTES = 64 * 10_000 * 4


@dataclass(frozen=True)
class RetrievalMetrics:
    r_at: dict[int, float]
    med_r: float
    n_queries: int

    def as_dict(self) -> dict:
        return {
            "r1": self.r_at[1], "r5": self.r_at[5], "r10": self.r_at[10],
            "medr": self.med_r, "n_queries": self.n_queries,
        }


@dataclass(frozen=True)
class IoUHistogram:
    bin_edges: tuple[float, ...]  # 11 edges, 0.0 .. 1.0
    counts: tuple[int, ...]       # 10 bins; IoU = 1.0 lands in the last
    mean_iou: float


def rank_of(sim_row: np.ndarray, true_index: int) -> int:
    """1-based rank of true_index with the gallery sorted by similarity
    descending, ties by gallery index ascending."""
    sim_row = np.asarray(sim_row)
    if not 0 <= true_index < sim_row.size:
        raise ValueError(f"true_index {true_index} out of range")
    s = sim_row[true_index]
    better = int(np.sum(sim_row > s))
    tied_before = int(np.sum(sim_row[:true_index] == s))
    return better + tied_before + 1


def _margin(e: int, *dtypes: np.dtype) -> float:
    """Half-width M of the band around a query's true-clip score outside
    which a blocked score orders a clip as the one-item gemv `U @ v` does.

    U and V rows are bit-equal to `embed_clip`/`embed_caption`: rounded
    x / ||x||, so with unit roundoff u and length e their norms are at most
    1 + (e + 3)u <= 1.01 while e*u <= 1e-3. Any float evaluation of a
    length-e dot product, in any order and with or without FMA, lies within
    gamma_e * sum|x_i y_i| <= gamma_e ||x|| ||y|| of the real value, with
    gamma_e = e*u / (1 - e*u). The block product `V @ U.T` and the gemv
    `U @ v` are two such evaluations, so they differ by at most 2*delta per
    pair, delta = 1.01**2 * gamma_e. A clip scoring above s_t + 4*delta in
    the block is strictly ahead of the true clip under gemv too, and one
    below s_t - 4*delta strictly behind. The extra 4u covers rounding
    s_t +- M (|s_t| < 1.03) and underflow in the products. u and gamma_e
    come from `encoder._roundoff` for the least precise of U, V and the
    scores. Past e*u > 1e-3 the bound is not worth using: M is infinite and
    every query falls back.
    """
    u, gamma = _roundoff(e, *dtypes)
    return 4 * 1.01**2 * gamma + 4 * u


def _query_ranks(U: np.ndarray, V: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """`rank_of(U @ V[q], targets[q])` for every query row q of V.

    Scores come from `V[block] @ U.T`, one block of queries at a time. A
    query whose best other clip scores below s_t - M, its true clip's
    score less the margin, has rank 1: one max pass certifies it. The
    other queries are counted: one whose other clips all score outside
    the margin is ranked from the block. The rest (near ties, exact ties,
    NaN) are ranked again by the one-item `rank_of(U @ v, t)` on a fresh
    copy of the query, so `rank_of`'s index tie-break decides exact ties.
    """
    score_dtype = np.result_type(U, V)
    M = _margin(U.shape[1], U.dtype, V.dtype, score_dtype)
    block = max(1, _SCORE_BLOCK_BYTES // (U.shape[0] * score_dtype.itemsize))
    ranks = np.ones(V.shape[0], dtype=np.int64)
    for lo in range(0, V.shape[0], block):
        S = V[lo:lo + block] @ U.T
        t = targets[lo:lo + block]
        rows = np.arange(S.shape[0])
        s_t = S[rows, t]
        S[rows, t] = -np.inf
        # NaN, an infinite M and exact ties fail `<`, so they are counted
        counted = np.flatnonzero(~(S.max(axis=1) < s_t - M))
        S[rows, t] = s_t
        if not counted.size:
            continue
        S, t, s_t, q = S[counted], t[counted], s_t[counted, None], lo + counted
        # int32 sums count a boolean block faster than np.count_nonzero
        better = np.sum(S > s_t + M, axis=1, dtype=np.int32)
        near = np.sum(S >= s_t - M, axis=1, dtype=np.int32) - better - 1
        ranks[q] = better + 1
        for i in np.flatnonzero(near != 0):
            ranks[q[i]] = rank_of(U @ V[q[i]].copy(), int(t[i]))
    return ranks


def recall_at_k(ranks: np.ndarray | list[int], k: int) -> float:
    ranks = np.asarray(ranks)
    if not ranks.size:
        raise ValueError("recall over empty rank list")
    return int(np.count_nonzero(ranks <= k)) / ranks.size


def median_rank(ranks: np.ndarray | list[int]) -> float:
    ranks = np.asarray(ranks)
    if not ranks.size:
        raise ValueError("median of empty rank list")
    return float(np.median(ranks))


def evaluate_retrieval(
    params: EncoderParams,
    store: FeatureStore,
    queries: list[str],
    gallery: ClipAssignment,
) -> RetrievalMetrics:
    """Rank each query caption against the full clip gallery.

    The gallery is ordered by caption_id so ranks are reproducible; every
    query must own a clip in the gallery.
    """
    if not queries:
        raise ValueError("no queries")
    for q in queries:
        if q not in gallery:
            raise ValueError(f"query {q!r} has no gallery clip")
    gallery_ids = sorted(gallery)
    pooled = clip_means(store, [gallery[cid] for cid in gallery_ids])
    return _evaluate_pooled(params, store, queries, gallery_ids, pooled)


def _evaluate_pooled(params: EncoderParams, store: FeatureStore, queries: list[str],
                     gallery_ids: list[str], pooled: np.ndarray) -> RetrievalMetrics:
    """`evaluate_retrieval` with row i of `pooled` the clip of the sorted gallery_ids[i]."""
    gal_pos = {cid: i for i, cid in enumerate(gallery_ids)}
    U = embed_clips(params, pooled, gallery_ids)
    V = embed_captions(params, _captions(store, queries), queries)
    ranks = _query_ranks(U, V, np.array([gal_pos[q] for q in queries]))
    return RetrievalMetrics(
        r_at={k: recall_at_k(ranks, k) for k in R_AT_KS},
        med_r=median_rank(ranks),
        n_queries=len(queries),
    )


def iou_histogram(pairs: list[tuple[Interval, Interval]]) -> IoUHistogram:
    """10 uniform bins over [0,1]; an IoU of exactly 1.0 joins the last bin."""
    if not pairs:
        raise ValueError("histogram over empty pair list")
    values = ious(*np.array([(a.start_s, a.end_s, b.start_s, b.end_s) for a, b in pairs]).T)
    edges = np.linspace(0.0, 1.0, 11)
    counts, _ = np.histogram(values, bins=edges)
    return IoUHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean_iou=float(values.mean()),
    )


def write_metrics(path: str | Path, metrics: RetrievalMetrics, gallery_mode: str) -> None:
    """`metrics.json` with the gallery-boundary mode used ("gt"|"initial")."""
    obj = metrics.as_dict()
    obj["gallery_mode"] = gallery_mode
    atomic_write(path, json.dumps(obj, indent=2) + "\n")


def write_iou_hist(path: str | Path, hist: IoUHistogram) -> None:
    """CSV with header bin_lo,bin_hi,count and a trailing mean row."""
    edges = hist.bin_edges
    bins = [[f"{lo:.1f}", f"{hi:.1f}", c] for lo, hi, c in zip(edges, edges[1:], hist.counts)]
    write_csv(path, [["bin_lo", "bin_hi", "count"], *bins, ["mean", "", f"{hist.mean_iou:.6f}"]])
