"""Caption-to-clip retrieval metrics and interval-overlap reporting."""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ClipAssignment, FeatureStore, clip_mean
from .encoder import EncoderParams, embed_caption, embed_clip
from .timeline import Interval, iou

R_AT_KS = (1, 5, 10)


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


def recall_at_k(ranks: list[int], k: int) -> float:
    if not ranks:
        raise ValueError("recall over empty rank list")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def median_rank(ranks: list[int]) -> float:
    if not ranks:
        raise ValueError("median of empty rank list")
    return float(statistics.median(ranks))


def evaluate_retrieval(
    params: EncoderParams,
    store: FeatureStore,
    queries: list[str],
    gallery: ClipAssignment,
    seg_len_s: float = 1.0,
) -> RetrievalMetrics:
    """Rank each query caption against the full clip gallery.

    The gallery is ordered by caption_id so ranks are reproducible; every
    query must own a clip in the gallery.
    """
    if not queries:
        raise ValueError("no queries")
    gallery_ids = sorted(gallery)
    gal_pos = {cid: i for i, cid in enumerate(gallery_ids)}
    for q in queries:
        if q not in gal_pos:
            raise ValueError(f"query {q!r} has no gallery clip")
    clip_embs = np.stack([
        embed_clip(params, clip_mean(store, gallery[cid], seg_len_s)[None])
        for cid in gallery_ids
    ])
    ranks = []
    for q in queries:
        cap = embed_caption(params, store.caption_features[q])
        ranks.append(rank_of(clip_embs @ cap, gal_pos[q]))
    return RetrievalMetrics(
        r_at={k: recall_at_k(ranks, k) for k in R_AT_KS},
        med_r=median_rank(ranks),
        n_queries=len(queries),
    )


def iou_histogram(pairs: list[tuple[Interval, Interval]]) -> IoUHistogram:
    """10 uniform bins over [0,1]; an IoU of exactly 1.0 joins the last bin."""
    if not pairs:
        raise ValueError("histogram over empty pair list")
    values = np.array([iou(a, b) for a, b in pairs])
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
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_iou_hist(path: str | Path, hist: IoUHistogram) -> None:
    """CSV with header bin_lo,bin_hi,count and a trailing mean row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "count"])
        for i, c in enumerate(hist.counts):
            w.writerow([f"{hist.bin_edges[i]:.1f}", f"{hist.bin_edges[i + 1]:.1f}", c])
        w.writerow(["mean", "", f"{hist.mean_iou:.6f}"])
