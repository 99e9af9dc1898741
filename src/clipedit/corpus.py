"""Annotation and feature ingestion plus a seeded synthetic-corpus generator.

File formats:
  annotations (JSON Lines, UTF-8): one object per line with fields
    caption_id (str), video_id (str), timestamp (number, seconds),
    split ("train"|"test"), optional gt_start/gt_end (numbers),
    optional text (str).
  video features `<video_id>.feat`: magic b"CFV1", uint32-LE dim,
    uint32-LE n_rows, then n_rows*dim float32-LE values, row-major.
    One row per second of video.
  caption features: `captions.feat` in the same binary layout (one row
    per caption) plus `captions.idx` JSON Lines mapping caption_id to
    its row index.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .timeline import Interval, segment_grid

log = logging.getLogger(__name__)

FEAT_MAGIC = b"CFV1"

# A feature row r covers the half-open second [r, r+1) of its video; a row
# is pooled into a segment when at least this fraction of the row's span
# overlaps the segment.
ROW_OVERLAP_MIN = 0.5


@dataclass(frozen=True)
class CaptionAnnotation:
    caption_id: str
    video_id: str
    timestamp_s: float
    gt_interval: Interval | None = None
    split: str = "train"
    text: str | None = None

    def __post_init__(self) -> None:
        if self.split not in ("train", "test"):
            raise ValueError(f"caption {self.caption_id}: split must be train|test, got {self.split!r}")
        if not math.isfinite(self.timestamp_s):
            raise ValueError(f"caption {self.caption_id}: non-finite timestamp")
        if self.gt_interval is not None and not self.gt_interval.contains(self.timestamp_s):
            log.warning(
                "caption %s: timestamp %.3f outside gt interval [%.3f, %.3f]",
                self.caption_id, self.timestamp_s,
                self.gt_interval.start_s, self.gt_interval.end_s,
            )


@dataclass(frozen=True)
class ClipRef:
    """A clip boundary bound to its owning video."""

    video_id: str
    interval: Interval


# The evolving per-caption training boundaries.
ClipAssignment = dict[str, ClipRef]


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    duration_s: float
    features: np.ndarray  # (ceil(duration_s), d) float32
    # clip_mean's table, keyed (start_s, end_s, seg_len_s); a replaced
    # record drops it with it
    pooled: dict[tuple[float, float, float], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"video {self.video_id}: features must be 2-D")
        if self.features.shape[0] != math.ceil(self.duration_s):
            raise ValueError(
                f"video {self.video_id}: {self.features.shape[0]} rows != "
                f"ceil(duration {self.duration_s})"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"video {self.video_id}: non-finite feature values")

    @property
    def span(self) -> Interval:
        return Interval(0.0, self.duration_s)


@dataclass
class FeatureStore:
    """Immutable-after-load container of per-video and per-caption features."""

    videos: dict[str, VideoRecord] = field(default_factory=dict)
    caption_features: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        for rec in self.videos.values():
            return rec.features.shape[1]
        for vec in self.caption_features.values():
            return vec.shape[0]
        raise ValueError("empty feature store has no dimension")

    def video_span(self, video_id: str) -> Interval:
        rec = self.videos.get(video_id)
        if rec is None:
            raise ValueError(f"unknown video_id {video_id!r}")
        return rec.span


@dataclass(frozen=True)
class SynthConfig:
    n_train_videos: int
    n_test_videos: int
    captions_per_video: int
    video_len_s: float
    gt_len_range: tuple[float, float]
    dim: int
    noise_sigma: float = 0.0
    caption_noise_sigma: float = 0.0
    align_gt_to_seconds: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.gt_len_range
        if not 0 < lo <= hi:
            raise ValueError(f"gt_len_range must satisfy 0 < min <= max, got {self.gt_len_range}")
        if self.captions_per_video * hi > self.video_len_s:
            raise ValueError(
                f"infeasible placement: {self.captions_per_video} captions x max gt "
                f"{hi}s exceed video length {self.video_len_s}s"
            )
        if self.noise_sigma < 0 or self.caption_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.dim < 1 or self.captions_per_video < 1:
            raise ValueError("dim and captions_per_video must be >= 1")


# --------------------------------------------------------------------------
# annotations


def _annotation_to_obj(a: CaptionAnnotation) -> dict:
    obj: dict = {
        "caption_id": a.caption_id,
        "video_id": a.video_id,
        "timestamp": a.timestamp_s,
        "split": a.split,
    }
    if a.gt_interval is not None:
        obj["gt_start"] = a.gt_interval.start_s
        obj["gt_end"] = a.gt_interval.end_s
    if a.text is not None:
        obj["text"] = a.text
    return obj


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write `data` (a str as UTF-8) to a temp file beside `path`, then `os.replace` it onto
    `path`; on error the temp file is removed and `path` is left as it was."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_annotations(path: str | Path, annotations: list[CaptionAnnotation]) -> None:
    """Write annotations as canonical JSON Lines (stable field order)."""
    lines = [json.dumps(_annotation_to_obj(a)) for a in annotations]
    atomic_write(path, "\n".join(lines) + "\n")


def load_annotations(path: str | Path, store: FeatureStore | None = None) -> list[CaptionAnnotation]:
    """Parse and validate an annotation file, sorted by (video_id, timestamp).

    Two captions of one video and split may not share a timestamp: the
    initial clips need strictly ordered neighbours, so the second one is
    rejected. When `store` is given, every video_id must resolve, every
    timestamp must lie within its video's span, and every caption must
    have caption features.
    """
    path = Path(path)
    out: list[CaptionAnnotation] = []
    line_of: dict[str, int] = {}  # caption_id -> line
    first_at: dict[tuple[str, str, float], str] = {}  # (video_id, split, timestamp) -> caption_id
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {line.strip()}")
            for key in ("caption_id", "video_id", "timestamp", "split"):
                if key not in obj:
                    raise ValueError(f"{path}:{lineno}: missing field {key!r}")
            gt = None
            if ("gt_start" in obj) != ("gt_end" in obj):
                raise ValueError(f"{path}:{lineno}: gt_start/gt_end must come together")
            if "gt_start" in obj:
                try:
                    gt = Interval(float(obj["gt_start"]), float(obj["gt_end"]))
                except (TypeError, ValueError) as exc:  # TypeError: a JSON null, list or object
                    raise ValueError(f"{path}:{lineno}: bad gt interval: {exc}") from exc
            try:
                ann = CaptionAnnotation(
                    caption_id=str(obj["caption_id"]),
                    video_id=str(obj["video_id"]),
                    timestamp_s=float(obj["timestamp"]),
                    gt_interval=gt,
                    split=str(obj["split"]),
                    text=str(obj["text"]) if "text" in obj else None,
                )
            except TypeError as exc:  # only float() of the timestamp raises it
                raise ValueError(f"{path}:{lineno}: timestamp must be a number: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if ann.caption_id in line_of:
                raise ValueError(f"{path}:{lineno}: duplicate caption_id {ann.caption_id!r}")
            if store is not None:
                rec = store.videos.get(ann.video_id)
                if rec is None:
                    raise ValueError(f"{path}:{lineno}: unknown video_id {ann.video_id!r}")
                if not rec.span.contains(ann.timestamp_s):
                    raise ValueError(
                        f"{path}:{lineno}: caption {ann.caption_id}: timestamp "
                        f"{ann.timestamp_s} outside video span [0.0, {rec.duration_s}]"
                    )
                if ann.caption_id not in store.caption_features:
                    raise ValueError(f"{path}:{lineno}: no caption features for {ann.caption_id!r}")
            first = first_at.setdefault((ann.video_id, ann.split, ann.timestamp_s), ann.caption_id)
            if first != ann.caption_id:
                raise ValueError(
                    f"{path}:{lineno}: caption {ann.caption_id!r} has the same video, split and "
                    f"timestamp {ann.timestamp_s} as the caption at {path}:{line_of[first]}"
                )
            line_of[ann.caption_id] = lineno
            out.append(ann)
    out.sort(key=lambda a: (a.video_id, a.timestamp_s))
    return out


# --------------------------------------------------------------------------
# binary feature files


def write_feat_matrix(path: str | Path, matrix: np.ndarray) -> None:
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    n_rows, dim = arr.shape
    atomic_write(path, FEAT_MAGIC + struct.pack("<II", dim, n_rows) + arr.tobytes())


def read_feat_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != FEAT_MAGIC:
        raise ValueError(f"{path}: bad magic bytes {raw[:4]!r}, expected {FEAT_MAGIC!r}")
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header")
    dim, n_rows = struct.unpack("<II", raw[4:12])
    expect = 12 + 4 * dim * n_rows
    if len(raw) != expect:
        raise ValueError(f"{path}: expected {expect} bytes for {n_rows}x{dim}, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4", offset=12)
    return flat.reshape(n_rows, dim).copy()


def write_features(dir_path: str | Path, store: FeatureStore) -> None:
    """Write every video as `<video_id>.feat` plus captions.feat/captions.idx."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for video_id in sorted(store.videos):
        write_feat_matrix(dir_path / f"{video_id}.feat", store.videos[video_id].features)
    cap_ids = sorted(store.caption_features)
    if cap_ids:
        cap_matrix = np.stack([store.caption_features[c] for c in cap_ids])
        write_feat_matrix(dir_path / "captions.feat", cap_matrix)
        lines = [json.dumps({"caption_id": c, "row": i}) for i, c in enumerate(cap_ids)]
        atomic_write(dir_path / "captions.idx", "\n".join(lines) + "\n")


def load_features(dir_path: str | Path) -> FeatureStore:
    """Load a directory of .feat files into a FeatureStore.

    Video durations are recovered as whole seconds (one row per second).
    """
    dir_path = Path(dir_path)
    feat_paths = sorted(dir_path.glob("*.feat"))
    if not feat_paths:
        raise ValueError(f"no feature files found in {dir_path}")
    store = FeatureStore()
    dim: int | None = None
    dim_src: Path | None = None
    for path in feat_paths:
        matrix = read_feat_matrix(path)
        if dim is None:
            dim, dim_src = matrix.shape[1], path
        elif matrix.shape[1] != dim:
            raise ValueError(
                f"dimension mismatch: {dim_src} has d={dim} but {path} has d={matrix.shape[1]}"
            )
        if path.name == "captions.feat":
            continue
        if not matrix.shape[0]:
            raise ValueError(f"{path}: video has no feature rows")
        video_id = path.stem
        store.videos[video_id] = VideoRecord(
            video_id=video_id, duration_s=float(matrix.shape[0]), features=matrix
        )
    cap_path = dir_path / "captions.feat"
    if cap_path.exists():
        cap_matrix = read_feat_matrix(cap_path)
        idx_path = dir_path / "captions.idx"
        if not idx_path.exists():
            raise ValueError(f"{cap_path} present but {idx_path} missing")
        non_finite = ~np.isfinite(cap_matrix).all(axis=1)
        zero = ~cap_matrix.any(axis=1)
        with idx_path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    cid, row = str(obj["caption_id"]), int(obj["row"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{idx_path}:{lineno}: malformed index line: {exc}") from exc
                if not 0 <= row < cap_matrix.shape[0]:
                    raise ValueError(f"{idx_path}:{lineno}: row {row} out of range")
                if non_finite[row] or zero[row]:
                    what = "non-finite" if non_finite[row] else "zero-norm"
                    raise ValueError(f"{idx_path}:{lineno}: caption {cid!r} has {what} features")
                store.caption_features[cid] = cap_matrix[row]
    return store


# --------------------------------------------------------------------------
# synthetic corpus


def sample_timestamp(gt: Interval, rng: np.random.Generator) -> float:
    """Uniform draw inside the ground-truth span."""
    return float(rng.uniform(gt.start_s, gt.end_s))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _place_gt_intervals(cfg: SynthConfig, rng: np.random.Generator) -> list[Interval]:
    """Place captions_per_video disjoint gt intervals inside one video."""
    k = cfg.captions_per_video
    lo, hi = cfg.gt_len_range
    if cfg.align_gt_to_seconds:
        ilo, ihi = math.ceil(lo), math.floor(hi)
        if ilo > ihi:
            raise ValueError(f"gt_len_range {cfg.gt_len_range} contains no whole second")
        lengths = rng.integers(ilo, ihi + 1, size=k).astype(float)
        slack = int(cfg.video_len_s) - int(lengths.sum())
        if slack < 0:
            raise ValueError(f"infeasible placement for {cfg}")
        gaps = rng.multinomial(slack, [1.0 / (k + 1)] * (k + 1)).astype(float)
    else:
        lengths = rng.uniform(lo, hi, size=k)
        slack = cfg.video_len_s - float(lengths.sum())
        if slack < 0:
            raise ValueError(f"infeasible placement for {cfg}")
        cuts = np.sort(rng.uniform(0.0, slack, size=k))
        gaps = np.diff(np.concatenate([[0.0], cuts, [slack]]))
    out = []
    cursor = 0.0
    for i in range(k):
        cursor += float(gaps[i])
        out.append(Interval(cursor, cursor + float(lengths[i])))
        cursor += float(lengths[i])
    return out


def _row_gt_overlap(row: int, row_end: float, gts: list[Interval]) -> int | None:
    """Index of the gt owning feature row [row, row_end), or None."""
    row_len = row_end - row
    best, best_ov = None, 0.0
    for j, gt in enumerate(gts):
        ov = min(row_end, gt.end_s) - max(float(row), gt.start_s)
        if ov > best_ov:
            best, best_ov = j, ov
    if best is not None and best_ov >= ROW_OVERLAP_MIN * row_len:
        return best
    return None


def synth_corpus(cfg: SynthConfig) -> tuple[FeatureStore, list[CaptionAnnotation]]:
    """Generate a corpus with known ground-truth alignments.

    Each caption gets a unit latent direction; feature rows inside its gt
    interval are normalize(u + noise_sigma*g), background rows are
    normalize(g), and the caption feature is
    normalize(u + caption_noise_sigma*g). Deterministic given cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    store = FeatureStore()
    annotations: list[CaptionAnnotation] = []
    n_rows = math.ceil(cfg.video_len_s)
    for split, count in (("train", cfg.n_train_videos), ("test", cfg.n_test_videos)):
        for v in range(count):
            video_id = f"v_{split}_{v:04d}"
            gts = _place_gt_intervals(cfg, rng)
            latents = [_unit(rng.standard_normal(cfg.dim)) for _ in gts]
            feats = np.empty((n_rows, cfg.dim))
            for row in range(n_rows):
                row_end = min(row + 1.0, cfg.video_len_s)
                owner = _row_gt_overlap(row, row_end, gts)
                g = rng.standard_normal(cfg.dim)
                if owner is None:
                    feats[row] = _unit(g)
                else:
                    feats[row] = _unit(latents[owner] + cfg.noise_sigma * g)
            store.videos[video_id] = VideoRecord(
                video_id=video_id,
                duration_s=float(n_rows),
                features=feats.astype(np.float32),
            )
            for j, gt in enumerate(gts):
                caption_id = f"{video_id}_c{j:02d}"
                cap = _unit(latents[j] + cfg.caption_noise_sigma * rng.standard_normal(cfg.dim))
                store.caption_features[caption_id] = cap.astype(np.float32)
                annotations.append(
                    CaptionAnnotation(
                        caption_id=caption_id,
                        video_id=video_id,
                        timestamp_s=sample_timestamp(gt, rng),
                        gt_interval=gt,
                        split=split,
                    )
                )
    annotations.sort(key=lambda a: (a.video_id, a.timestamp_s))
    return store, annotations


# --------------------------------------------------------------------------
# segment pooling


def _row_qualifies(r: int, start: float, end: float, duration: float) -> bool:
    """Whether >= ROW_OVERLAP_MIN of row r's span overlaps [start, end)."""
    row_end = min(r + 1.0, duration)
    return min(row_end, end) - max(float(r), start) >= ROW_OVERLAP_MIN * (row_end - r)


def segment_features(store: FeatureStore, video_id: str, grid) -> np.ndarray:
    """Pool per-second feature rows into one row per grid segment.

    A row joins a segment when >= 50% of the row's span overlaps it; a
    segment no row qualifies for takes its nearest row, so every segment
    maps to at least one row.
    """
    rec = store.videos.get(video_id)
    if rec is None:
        raise ValueError(f"unknown video_id {video_id!r}")
    duration = rec.duration_s
    n_rows = rec.features.shape[0]
    if grid.origin_s < -1e-9 or grid.clip_end_s > duration + 1e-9:
        raise ValueError(
            f"grid [{grid.origin_s}, {grid.clip_end_s}] outside video "
            f"{video_id} span [0, {duration}]"
        )
    feats = rec.features
    out = np.empty((grid.n_segments, feats.shape[1]), dtype=feats.dtype)
    last = grid.n_segments - 1
    for i in range(grid.n_segments):
        # the same expressions as grid.segment(i)
        start = grid.origin_s + i * grid.seg_len_s
        end = grid.clip_end_s if i == last else grid.origin_s + (i + 1) * grid.seg_len_s
        lo = max(0, math.floor(start))
        hi = min(n_rows, math.ceil(end))
        # rows strictly inside [start, end) always qualify, so only the two
        # edge rows need the overlap test and the qualifying rows are [lo, hi)
        if lo < hi and not _row_qualifies(lo, start, end, duration):
            lo += 1
        if lo < hi and not _row_qualifies(hi - 1, start, end, duration):
            hi -= 1
        if hi - lo == 1:
            out[i] = feats[lo]
        elif lo < hi:
            out[i] = feats[lo:hi].mean(axis=0)
        else:
            center = (start + end) / 2.0
            nearest = min(range(n_rows), key=lambda r: abs((r + 0.5) - center))
            out[i] = feats[nearest]
    return out


def clip_features(store: FeatureStore, ref: ClipRef, seg_len_s: float = 1.0) -> np.ndarray:
    """Segment-feature matrix for a clip on its default grid."""
    return segment_features(store, ref.video_id, segment_grid(ref.interval, seg_len_s))


def clip_mean(store: FeatureStore, ref: ClipRef, seg_len_s: float = 1.0) -> np.ndarray:
    """Mean of `clip_features` rows: the pooled vector `embed_clip` projects.

    It does not depend on any weights, so it is computed once per distinct
    clip and kept on the video's record; the returned array is read-only.
    """
    rec = store.videos.get(ref.video_id)
    if rec is None:
        raise ValueError(f"unknown video_id {ref.video_id!r}")
    key = (ref.interval.start_s, ref.interval.end_s, seg_len_s)
    pooled = rec.pooled.get(key)
    if pooled is None:
        pooled = clip_features(store, ref, seg_len_s).mean(axis=0)
        pooled.flags.writeable = False
        rec.pooled[key] = pooled
    return pooled
