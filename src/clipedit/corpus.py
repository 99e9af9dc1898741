"""Annotation and feature ingestion plus a seeded synthetic-corpus generator.

File formats (text UTF-8, binary little-endian), each read and written by one pair here:
  JSON Lines (`read_jsonl`/`write_jsonl`): one `json.dumps` object per line;
    blank lines are skipped, and every error names `path:line`.
  annotations: JSON Lines of caption_id (str), video_id (str), timestamp
    (number, seconds), split ("train"|"test"), optional gt_start/gt_end
    (numbers) and text (str).
  float32 container (`read_f32`/`write_f32`): 4 magic bytes, a `struct`
    header, then exactly the float32 values the header counts.
    `.feat`: b"CFV1", uint32 dim, uint32 n_rows, then n_rows*dim values,
      row-major: one row per second of a video, or per caption in
      `captions.feat`, whose rows the JSON Lines `captions.idx` maps to caption_ids.
    `.cfp` checkpoints: b"CFP1", uint32 d_in, uint32 d_out, float64 tau, then
      W_v (d_out*d_in), b_v (d_out), W_c (d_out*d_in), b_c (d_out).

Loading in bulk. `load_annotations` and `captions.idx` first take the bulk
path: `_jsonl_columns` decodes a chunk of lines at a time with the decoder
`read_jsonl` uses and keeps only each key's column, and every check runs as
one set or array pass over a column. On any doubt (a blank line, a line that
is not one UTF-8 JSON object, a check that fails) the loader runs its
per-line loop over `read_jsonl`, which owns every error message; the bulk
path raises nothing, and builds its objects (whose constructors log) only
once every check has passed. `read_f32` reads a file's header and payload with
one read, the payload straight into the array it returns, sized from the
file; any doubt there reads the file whole again to name the fault. Memory:
beyond what it returns, the bulk path holds its columns (lists of the
returned values) and one chunk's decoded objects.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterator

import numpy as np

from .timeline import Interval, segment_bounds, segment_counts, segment_grid

log = logging.getLogger(__name__)

FEAT_MAGIC = b"CFV1"
_FEAT_HEADER = "<II"  # dim, n_rows

# A feature row r covers the half-open second [r, r+1) of its video; a row
# is pooled into a segment when at least this fraction of the row's span
# overlaps the segment.
ROW_OVERLAP_MIN = 0.5


def _qualifies(r: np.ndarray, start: np.ndarray, end: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Whether >= ROW_OVERLAP_MIN of row r's span overlaps [start, end), elementwise."""
    row_end = np.minimum(r + 1.0, duration)
    return np.minimum(row_end, end) - np.maximum(r, start) >= ROW_OVERLAP_MIN * (row_end - r)


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

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"video {self.video_id}: features must be 2-D")
        if self.features.shape[0] != math.ceil(self.duration_s):
            raise ValueError(
                f"video {self.video_id}: {self.features.shape[0]} rows != "
                f"ceil(duration {self.duration_s})"
            )
        if not np.isfinite(self.features).all():
            raise ValueError(f"video {self.video_id}: non-finite feature values")


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
        return Interval(0.0, _video(self, video_id, 0.0, 0.0).duration_s)


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
        if self.align_gt_to_seconds and math.ceil(lo) > math.floor(hi):
            raise ValueError(f"gt_len_range {self.gt_len_range} contains no whole second")
        if self.captions_per_video * hi > self.video_len_s:
            raise ValueError(
                f"infeasible placement: {self.captions_per_video} captions x max gt "
                f"{hi}s exceed video length {self.video_len_s}s"
            )
        if self.noise_sigma < 0 or self.caption_noise_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.dim < 1 or self.captions_per_video < 1:
            raise ValueError("dim and captions_per_video must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _io_error(path: str | Path, action: str, exc: OSError) -> ValueError:
    """`<path>: cannot <action>: <reason>`, the one message for an `OSError` on a file."""
    return ValueError(f"{Path(path)}: cannot {action}: {exc.strerror or exc}")


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write `data` (a str as UTF-8) to a temp file beside `path`, then `os.replace` it onto
    `path`; on error the temp file is removed and `path` is left as it was. An `OSError`
    becomes a ValueError naming `path`."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise _io_error(path, "write", exc) from exc


# the C scanner `json.loads` runs, without its whitespace and extra-data passes
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path, required: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line; a line that is not UTF-8 JSON,
    not an object or lacks a `required` key raises a ValueError naming `path:line`, and a
    file that cannot be read one naming `path`."""
    path, keys = Path(path), frozenset(required)
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    line = raw.decode("utf-8")
                    try:
                        obj, end = _raw_decode(line)
                    except (ValueError, RecursionError):
                        end = -1
                    # anything but a bare object and newline (whitespace, a BOM, extra data,
                    # an error) is left to `json.loads`, so it decides exactly as it would
                    if end < 0 or line[end:] not in ("", "\n"):
                        obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                    raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    got = raw.decode().strip()
                    raise ValueError(f"{path}:{lineno}: expected a JSON object, got {got}")
                if not obj.keys() >= keys:  # one set test per line, not a loop per key
                    key = next(k for k in required if k not in obj)
                    raise ValueError(f"{path}:{lineno}: missing field {key!r}")
                yield lineno, obj
    except OSError as exc:
        raise _io_error(path, "read", exc) from exc


# A key's value in `_jsonl_columns` on a line without it; no JSON value has its type, `object`.
_ABSENT = object()

# Bytes of lines `_jsonl_columns` decodes at once: about 100 annotation lines,
# whose decoded objects are the bulk path's only memory beyond its columns.
# 64 KiB chunks measured no faster and left the heap about 0.6 MB larger.
_JSONL_CHUNK_BYTES = 16 * 1024


def _jsonl_columns(path: Path, keys: tuple[str, ...]) -> list[list] | None:
    """For each of `keys`, its value on every line of a JSON Lines file (`_ABSENT` where
    a line lacks it), as `read_jsonl` decodes the line. None when the file cannot be
    read or a line is blank or not one UTF-8 JSON object: `read_jsonl` then decides."""
    cols: list[list] = [[] for _ in keys]
    try:
        with open(path, "rb") as fh:
            while chunk := fh.readlines(_JSONL_CHUNK_BYTES):
                # a binary file's lines end at b"\n" only, as `read_jsonl`'s do
                lines = b"".join(chunk).decode("utf-8").split("\n")
                if not lines[-1]:
                    lines.pop()  # the piece after the chunk's last "\n"
                decoded = [_raw_decode(line) for line in lines]  # "" (a blank line) raises
                objs = [obj for obj, _ in decoded]
                if [end for _, end in decoded] != list(map(len, lines)) or set(map(type, objs)) != {dict}:
                    return None
                for col, key in zip(cols, keys):
                    col += [obj.get(key, _ABSENT) for obj in objs]
    except (OSError, ValueError, RecursionError):  # ValueError: not UTF-8, not JSON
        return None
    return cols


def write_jsonl(path: str | Path, objs) -> None:
    """Write each object as one `json.dumps` line through `atomic_write`; no objects, an empty file."""
    atomic_write(path, "".join(json.dumps(obj) + "\n" for obj in objs))


def read_f32(path: str | Path, magic: bytes, header: str, n_values) -> tuple[tuple, np.ndarray]:
    """(header fields, float32 payload) of a file that is `magic`, the `struct` format
    `header`, then exactly `n_values(*fields)` float32-LE values. One read fills the
    header and the array returned, sized from the file's size. Errors name the path as
    `Path(path)` prints it."""
    start = len(magic) + struct.calcsize(header)
    head = bytearray(start)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            payload = np.empty(max(size - start, 0) // 4, dtype="<f4")
            got = os.readv(fd, [head, payload, bytearray(1)])  # a byte past the end: the file grew
        finally:
            os.close(fd)
    except OSError as exc:
        raise _io_error(path, "read", exc) from exc
    fields = struct.unpack_from(header, head, len(magic))
    if got == size == start + 4 * n_values(*fields) and head.startswith(magic):
        return fields, payload
    del payload
    # any doubt: read the file whole, and name what is wrong with it
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _io_error(path, "read", exc) from exc
    if raw[:len(magic)] != magic:
        raise ValueError(f"{Path(path)}: bad magic bytes {raw[:len(magic)]!r}, expected {magic!r}")
    if len(raw) < start:
        raise ValueError(f"{Path(path)}: truncated header")
    fields = struct.unpack(header, raw[len(magic):start])
    expect = start + 4 * n_values(*fields)
    if len(raw) != expect:
        raise ValueError(f"{Path(path)}: expected {expect} bytes, got {len(raw)}")
    return fields, np.frombuffer(raw, dtype="<f4", offset=start).copy()  # valid now: it changed


def write_f32(path: str | Path, magic: bytes, header: str, fields: tuple, arrays) -> None:
    """`magic`, `fields` packed by `header`, then each array as float32-LE, written atomically."""
    values = [np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in arrays]
    atomic_write(path, b"".join([magic, struct.pack(header, *fields), *values]))


def write_csv(path: str | Path, rows) -> None:
    """Write `rows` with the default `csv.writer` dialect through `atomic_write`."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    atomic_write(path, buf.getvalue())


def _duplicate(line_of: dict[str, int], caption_id: str, path: Path, lineno: int) -> ValueError:
    """The error for `caption_id` seen again at `lineno`, naming both lines."""
    first = line_of[caption_id]
    return ValueError(f"{path}:{lineno}: duplicate caption_id {caption_id!r}, first at {path}:{first}")


def write_annotations(path: str | Path, annotations: list[CaptionAnnotation]) -> None:
    """Write annotations as canonical JSON Lines (stable field order)."""
    write_jsonl(path, map(_annotation_to_obj, annotations))


_ANNOTATION_KEYS = ("caption_id", "video_id", "timestamp", "split", "gt_start", "gt_end", "text")


def load_annotations(path: str | Path, store: FeatureStore | None = None) -> list[CaptionAnnotation]:
    """Parse and validate an annotation file, sorted by (video_id, timestamp).

    Two captions of one video and split may not share a timestamp: the
    initial clips need strictly ordered neighbours, so the second one is
    rejected. When `store` is given, every video_id must resolve, every
    timestamp and gt interval must lie within its video's span, and every
    caption must have caption features. The file is checked as columns
    first; on any doubt the per-line loop decides and names the line.
    """
    path = Path(path)
    out = _annotations_by_columns(path, store)
    if out is None:
        out = _annotations_by_line(path, store)
    out.sort(key=lambda a: (a.video_id, a.timestamp_s))
    return out


def _annotations_by_columns(path: Path, store: FeatureStore | None) -> list[CaptionAnnotation] | None:
    """`_annotations_by_line`'s result, its checks each one pass over a column of the
    whole file; None, having built and logged nothing, when any check fails."""
    cols = _jsonl_columns(path, _ANNOTATION_KEYS)
    if cols is None:
        return None
    cid, vid, ts, split, gs, ge, text = cols
    n = len(cid)
    number = {int, float}  # exact types: a bool is an int to isinstance
    ts_types, gt_types = set(map(type, ts)), set(map(type, gs)) | set(map(type, ge))
    if not (set(map(type, cid)) | set(map(type, vid)) | set(map(type, split)) <= {str}
            and set(split) <= {"train", "test"} and ts_types <= number
            and gt_types <= number | {object} and set(map(type, text)) <= {str, object}):
        return None
    has_gt = None  # None: every line has a gt
    if object in gt_types:
        has_gt = [g is not _ABSENT for g in gs]
        if has_gt != [g is not _ABSENT for g in ge]:
            return None
        gs, ge = list(compress(gs, has_gt)), list(compress(ge, has_gt))
    try:
        t, start, end = (np.array(col, dtype=np.float64) for col in (ts, gs, ge))
    except OverflowError:  # an integer past float range
        return None
    t_s = ts if int not in ts_types else t.tolist()  # the decoded floats, unless an int needs `float`
    # `CaptionAnnotation`'s and `Interval`'s checks, then both duplicate rules as set sizes
    if not (np.isfinite(t).all() and ((0.0 <= start) & (start < end) & (end < np.inf)).all()
            and len(set(cid)) == n and len(set(zip(vid, split, t_s))) == n):
        return None
    if store is not None:
        if not (set(vid) <= store.videos.keys() and set(cid) <= store.caption_features.keys()):
            return None
        dur = np.array([store.videos[v].duration_s for v in vid], dtype=np.float64)
        gt_dur = dur if has_gt is None else dur[np.array(has_gt, dtype=bool)]
        # the timestamp in [0, duration], and a gt inside it by `_video`'s span rule
        if not (((0.0 <= t) & (t <= dur)).all() and ((start >= -1e-9) & (end <= gt_dur + 1e-9)).all()):
            return None
    gts = list(map(Interval, *((gs, ge) if int not in gt_types else (start.tolist(), end.tolist()))))
    if has_gt is not None:
        it = iter(gts)
        gts = [next(it) if has else None for has in has_gt]
    texts = [None if x is _ABSENT else x for x in text]
    return list(map(CaptionAnnotation, cid, vid, t_s, gts, split, texts))


def _annotations_by_line(path: Path, store: FeatureStore | None) -> list[CaptionAnnotation]:
    """`load_annotations`' loop, unsorted: each line read, checked and built in turn,
    the first failing check raising its message."""
    out: list[CaptionAnnotation] = []
    line_of: dict[str, int] = {}  # caption_id -> line
    first_at: dict[tuple[str, str, float], str] = {}  # (video_id, split, timestamp) -> caption_id
    for lineno, obj in read_jsonl(path, ("caption_id", "video_id", "timestamp", "split")):
        if ("gt_start" in obj) != ("gt_end" in obj):
            raise ValueError(f"{path}:{lineno}: gt_start/gt_end must come together")
        # one expression per kind, not a loop per field: this runs once per line
        if not (isinstance(obj["caption_id"], str) and isinstance(obj["video_id"], str)
                and isinstance(obj["split"], str) and isinstance(obj.get("text", ""), str)):
            key = next(k for k in ("caption_id", "video_id", "split", "text")
                       if not isinstance(obj.get(k, ""), str))
            raise ValueError(f"{path}:{lineno}: {key} must be a string, got {obj[key]!r}")
        # exact types: a bool is an int to isinstance
        if type(obj["timestamp"]) not in (int, float) or "gt_start" in obj and (
                type(obj["gt_start"]) not in (int, float) or type(obj["gt_end"]) not in (int, float)):
            key = next(k for k in ("timestamp", "gt_start", "gt_end")
                       if k in obj and type(obj[k]) not in (int, float))
            raise ValueError(f"{path}:{lineno}: {key} must be a number, got {obj[key]!r}")
        try:
            gt = Interval(float(obj["gt_start"]), float(obj["gt_end"])) if "gt_start" in obj else None
            ann = CaptionAnnotation(
                caption_id=obj["caption_id"],
                video_id=obj["video_id"],
                timestamp_s=float(obj["timestamp"]),
                gt_interval=gt,
                split=obj["split"],
                text=obj.get("text"),
            )
        except (ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if line_of.setdefault(ann.caption_id, lineno) != lineno:
            raise _duplicate(line_of, ann.caption_id, path, lineno)
        if store is not None:
            rec = store.videos.get(ann.video_id)
            if rec is None:
                raise ValueError(f"{path}:{lineno}: unknown video_id {ann.video_id!r}")
            if not 0.0 <= ann.timestamp_s <= rec.duration_s:  # exact: `initial_clips` checks the same
                raise ValueError(
                    f"{path}:{lineno}: caption {ann.caption_id}: timestamp "
                    f"{ann.timestamp_s} outside video span [0.0, {rec.duration_s}]"
                )
            if gt is not None:
                try:
                    _video(store, ann.video_id, gt.start_s, gt.end_s)  # the span rule pooling applies
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: caption {ann.caption_id}: gt {exc}") from exc
            if ann.caption_id not in store.caption_features:
                raise ValueError(f"{path}:{lineno}: no caption features for {ann.caption_id!r}")
        first = first_at.setdefault((ann.video_id, ann.split, ann.timestamp_s), ann.caption_id)
        if first != ann.caption_id:
            raise ValueError(
                f"{path}:{lineno}: caption {ann.caption_id!r} has the same video, split and "
                f"timestamp {ann.timestamp_s} as the caption at {path}:{line_of[first]}"
            )
        out.append(ann)
    return out


# --------------------------------------------------------------------------
# binary feature files


def write_feat_matrix(path: str | Path, matrix: np.ndarray) -> None:
    if np.ndim(matrix) != 2:
        raise ValueError("feature matrix must be 2-D")
    n_rows, dim = np.shape(matrix)
    write_f32(path, FEAT_MAGIC, _FEAT_HEADER, (dim, n_rows), [matrix])


def read_feat_matrix(path: str | Path) -> np.ndarray:
    (dim, n_rows), flat = read_f32(path, FEAT_MAGIC, _FEAT_HEADER, lambda dim, n_rows: dim * n_rows)
    return flat.reshape(n_rows, dim)


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
        write_jsonl(dir_path / "captions.idx",
                    ({"caption_id": c, "row": i} for i, c in enumerate(cap_ids)))


def load_features(dir_path: str | Path) -> FeatureStore:
    """Load a directory of .feat files into a FeatureStore.

    Video durations are recovered as whole seconds (one row per second).
    """
    dir_path = Path(dir_path)
    try:
        # the names `Path.glob("*.feat")` finds, in its order: within one directory it sorts by name
        names = sorted(e.name for e in os.scandir(dir_path) if e.name.endswith(".feat"))
    except OSError:
        names = []
    if not names:
        raise ValueError(f"no feature files found in {dir_path}")
    prefix = os.path.join(dir_path, "") if dir_path.parts else ""  # `dir_path / name`, as a str
    store = FeatureStore()
    dim: int | None = None
    dim_src: str | None = None
    cap_matrix: np.ndarray | None = None
    for name in names:
        path = prefix + name
        matrix = read_feat_matrix(path)
        if dim is None:
            dim, dim_src = matrix.shape[1], path
        elif matrix.shape[1] != dim:
            raise ValueError(
                f"dimension mismatch: {dim_src} has d={dim} but {path} has d={matrix.shape[1]}"
            )
        if name == "captions.feat":
            cap_matrix = matrix
            continue
        if not matrix.shape[0]:
            raise ValueError(f"{path}: video has no feature rows")
        video_id = name[:-5] if len(name) > 5 else name  # `Path.stem`: ".feat" stays ".feat"
        try:
            store.videos[video_id] = VideoRecord(
                video_id=video_id, duration_s=float(matrix.shape[0]), features=matrix
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    cap_path = dir_path / "captions.feat"
    if cap_matrix is not None:
        idx_path = dir_path / "captions.idx"
        if not idx_path.exists():
            raise ValueError(f"{cap_path} present but {idx_path} missing")
        store.caption_features = _caption_rows(idx_path, cap_path, cap_matrix)
    return store


def _caption_rows(idx_path: Path, cap_path: Path, cap_matrix: np.ndarray) -> dict[str, np.ndarray]:
    """caption_id -> its row of `cap_matrix` (a view), by `captions.idx`: string ids, each
    once, integer rows in range whose features are finite and not all zero. The file is
    checked as columns first; on any doubt the per-line loop decides and names the line."""
    non_finite = ~np.isfinite(cap_matrix).all(axis=1)
    zero = ~cap_matrix.any(axis=1)
    cols = _jsonl_columns(idx_path, ("caption_id", "row"))
    if cols is not None:
        cids, rows = cols
        if (set(map(type, cids)) <= {str} and set(map(type, rows)) <= {int}  # a bool is not an int
                and len(set(cids)) == len(cids)
                and (not rows or 0 <= min(rows) and max(rows) < cap_matrix.shape[0])
                and not (non_finite | zero)[rows].any()):
            return dict(zip(cids, map(cap_matrix.__getitem__, rows)))
    out: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}  # caption_id -> line
    for lineno, obj in read_jsonl(idx_path, ("caption_id", "row")):
        cid, row = obj["caption_id"], obj["row"]
        if not isinstance(cid, str) or type(row) is not int:  # a bool is an int to isinstance
            raise ValueError(
                f"{idx_path}:{lineno}: malformed index line: caption_id must be a string "
                f"and row an integer, got {cid!r} and {row!r}"
            )
        if line_of.setdefault(cid, lineno) != lineno:
            raise _duplicate(line_of, cid, idx_path, lineno)
        if not 0 <= row < cap_matrix.shape[0]:
            raise ValueError(
                f"{idx_path}:{lineno}: row {row} out of range for the "
                f"{cap_matrix.shape[0]} rows of {cap_path}"
            )
        if non_finite[row] or zero[row]:
            what = "non-finite" if non_finite[row] else "zero-norm"
            raise ValueError(
                f"{idx_path}:{lineno}: caption {cid!r} has {what} features "
                f"(row {row} of {cap_path})"
            )
        out[cid] = cap_matrix[row]
    return out


# --------------------------------------------------------------------------
# synthetic corpus


def sample_timestamp(gt: Interval, rng: np.random.Generator) -> float:
    """Uniform draw inside the ground-truth span."""
    return float(rng.uniform(gt.start_s, gt.end_s))


def _unit(v: np.ndarray, key: str = "synth.seed") -> np.ndarray:
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:  # False for NaN; `key` is the setting behind `v`
        raise ValueError(f"{key}: a synthetic feature row has norm {norm}, which cannot be scaled to 1")
    return v / norm


def _place_gt_intervals(cfg: SynthConfig, rng: np.random.Generator) -> list[Interval]:
    """Place captions_per_video disjoint gt intervals inside one video."""
    k = cfg.captions_per_video
    lo, hi = cfg.gt_len_range
    if cfg.align_gt_to_seconds:
        lengths = rng.integers(math.ceil(lo), math.floor(hi) + 1, size=k).astype(float)
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
    edges = np.cumsum(np.column_stack([gaps[:k], lengths]).ravel())  # gap0, length0, gap1, ... in order
    starts, ends = edges[0::2], edges[1::2]
    if (bad := np.flatnonzero(~(starts < ends))).size:
        raise ValueError(f"synth.gt_len_range {cfg.gt_len_range}: a gt at {starts[bad[0]]} s has no width")
    return [Interval(*gt) for gt in zip(starts.tolist(), ends.tolist())]


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows fails `_unit`'s norm check
def synth_corpus(cfg: SynthConfig) -> tuple[FeatureStore, list[CaptionAnnotation]]:
    """Generate a corpus with known ground-truth alignments.

    Each caption gets a unit latent direction; feature rows inside its gt
    interval are normalize(u + noise_sigma*g), background rows are
    normalize(g), and the caption feature is
    normalize(u + caption_noise_sigma*g). A row is inside the first gt that
    covers half of it (`_qualifies`); as gts are disjoint, two can only when
    both cover exactly half. Deterministic given cfg.seed.
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
            inside = _qualifies(np.arange(n_rows)[:, None], np.array([gt.start_s for gt in gts]),
                                np.array([gt.end_s for gt in gts]), cfg.video_len_s)
            owners = np.where(inside.any(axis=1), inside.argmax(axis=1), -1).tolist()
            feats = np.empty((n_rows, cfg.dim))
            for row, owner in enumerate(owners):
                g = rng.standard_normal(cfg.dim)
                feats[row] = (_unit(g) if owner < 0 else
                              _unit(latents[owner] + cfg.noise_sigma * g, "synth.noise_sigma"))
            store.videos[video_id] = VideoRecord(
                video_id=video_id,
                duration_s=float(n_rows),
                features=feats.astype(np.float32),
            )
            for j, gt in enumerate(gts):
                caption_id = f"{video_id}_c{j:02d}"
                cap = _unit(latents[j] + cfg.caption_noise_sigma * rng.standard_normal(cfg.dim),
                            "synth.caption_noise_sigma")
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

# Bytes of one pooling block's gathered feature rows, counted as each clip's
# row span: about 1,000 clips of 8 rows at d=32. It bounds the memory
# pooling adds to an eval or an edit.
_POOL_BLOCK_BYTES = 1024 * 1024


def _video(store: FeatureStore, video_id: str, start_s: float, end_s: float) -> VideoRecord:
    """The video's record, checked to hold the span [start_s, end_s]."""
    rec = store.videos.get(video_id)
    if rec is None:
        raise ValueError(f"unknown video_id {video_id!r}")
    if start_s < -1e-9 or end_s > rec.duration_s + 1e-9:
        raise ValueError(
            f"grid [{start_s}, {end_s}] outside video {video_id} span [0, {rec.duration_s}]"
        )
    return rec


def _captions(store: FeatureStore, caption_ids: list[str]) -> list[np.ndarray]:
    """Each caption's feature row, in order; a caption without one is a ValueError naming it."""
    try:
        return [store.caption_features[cid] for cid in caption_ids]
    except KeyError as exc:
        raise ValueError(f"no caption features for {exc.args[0]!r}") from None


def _mean_runs(X: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """`X[f:f + n].mean(axis=0)` for each run of `first`/`count` (n >= 1), bit for bit.

    numpy's axis-0 sum starts from +0.0 and adds the rows in order when
    d >= 2, so all runs are summed at once: longest first, step j adds row
    j of every run at least j+1 long. numpy sums one column of 8 or more
    rows pairwise, so at d = 1 those runs take `.mean` of their own view.
    """
    order = np.argsort(-count, kind="stable")
    f, neg = first[order], -count[order]
    acc = X[f] + 0.0
    for j in range(1, -int(neg[0])):
        live = int(np.searchsorted(neg, -j))  # runs longer than j
        acc[:live] += X[f[:live] + j]
    out = np.empty_like(acc)
    # the divide of `.mean`: by an integer count, rounded back to X's dtype
    out[order] = np.true_divide(acc, -neg[:, None], out=acc, casting="unsafe")
    if X.shape[1] == 1:
        for i in np.flatnonzero(count >= 8).tolist():
            out[i] = X[first[i]:first[i] + count[i]].mean(axis=0)
    return out


def _pool_blocks(
    recs: list[VideoRecord], origin: np.ndarray, clip_end: np.ndarray, n_seg: np.ndarray,
    seg_len_s: float,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """`segment_features` for many clips, a block at a time.

    Clip i is the grid (origin[i], seg_len_s, n_seg[i], clip_end[i]) over
    recs[i]'s rows, already checked by `_video`. Each block holds the
    clips lo:hi whose sizes fit `_POOL_BLOCK_BYTES` (at least one, all of
    one dtype), a clip's size being the larger of its row span and its
    segment count, and yields (lo, hi, segs, first): the block's segment
    rows, clip after clip, and each clip's first row in `segs`.
    """
    sizes = np.maximum(np.ceil(clip_end) - np.floor(origin) + 1, n_seg).tolist()
    lo = 0
    while lo < len(recs):
        feats = recs[lo].features
        budget = _POOL_BLOCK_BYTES // (feats.itemsize * feats.shape[1]) - sizes[lo]
        hi = lo + 1
        while hi < len(recs) and sizes[hi] <= budget and recs[hi].features.dtype == feats.dtype:
            budget -= sizes[hi]
            hi += 1
        segs, first = _pool_block(recs[lo:hi], origin[lo:hi], clip_end[lo:hi], n_seg[lo:hi], seg_len_s)
        yield lo, hi, segs, first
        lo = hi


def _pool_block(
    recs: list[VideoRecord], origin: np.ndarray, clip_end: np.ndarray, n_seg: np.ndarray,
    seg_len_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of `_pool_blocks`: every segment's qualifying rows [lo, hi)
    as arrays, each clip's row range (the smallest lo to the largest hi over
    its segments) gathered clip after clip, then the segment means."""
    first = np.cumsum(n_seg) - n_seg
    clip = np.repeat(np.arange(len(recs)), n_seg)
    start, end = segment_bounds(origin[clip], seg_len_s, n_seg[clip], clip_end[clip],
                                np.arange(clip.size) - first[clip])
    n_rows, duration = np.array([(rec.features.shape[0], rec.duration_s) for rec in recs])[clip].T
    lo = np.maximum(0, np.floor(start).astype(np.int64))
    hi = np.minimum(n_rows, np.ceil(end)).astype(np.int64)
    # rows strictly inside [start, end) always qualify, so only the two
    # edge rows need the overlap test and the qualifying rows are [lo, hi)
    lo += (lo < hi) & ~_qualifies(lo, start, end, duration)
    hi -= (lo < hi) & ~_qualifies(hi - 1, start, end, duration)
    count = hi - lo
    # no row qualifies: the row whose centre r + 0.5 is nearest, the lower one on a tie
    none = count < 1
    lo[none] = np.clip(np.ceil((start[none] + end[none]) / 2.0 - 1.0), 0, n_rows[none] - 1)
    count[none] = 1
    clip_lo = np.minimum.reduceat(lo, first)
    clip_hi = np.maximum.reduceat(lo + count, first)
    offset = np.cumsum(clip_hi - clip_lo) - (clip_hi - clip_lo) - clip_lo
    gathered = np.concatenate([rec.features[a:b] for rec, a, b in
                               zip(recs, clip_lo.tolist(), clip_hi.tolist())])
    row0 = lo + offset[clip]
    # a one-row segment is its row; a longer one is its rows' mean
    segs = gathered[row0]
    multi = np.flatnonzero(count > 1)
    if multi.size:
        segs[multi] = _mean_runs(gathered, row0[multi], count[multi])
    return segs, first


def segment_features(store: FeatureStore, video_id: str, grid) -> np.ndarray:
    """Pool per-second feature rows into one row per grid segment.

    A row joins a segment when >= 50% of the row's span overlaps it; a
    segment no row qualifies for takes its nearest row, so every segment
    maps to at least one row.
    """
    rec = _video(store, video_id, grid.origin_s, grid.clip_end_s)
    _, _, segs, _ = next(_pool_blocks(
        [rec], np.array([grid.origin_s]), np.array([grid.clip_end_s]),
        np.array([grid.n_segments]), grid.seg_len_s,
    ))
    return segs


def clip_features(store: FeatureStore, ref: ClipRef, seg_len_s: float = 1.0) -> np.ndarray:
    """Segment-feature matrix for a clip on its default grid."""
    return segment_features(store, ref.video_id, segment_grid(ref.interval, seg_len_s))


def clip_means(store: FeatureStore, refs: list[ClipRef], seg_len_s: float = 1.0) -> np.ndarray:
    """Each ref's mean of `clip_features` rows (the pooled vector `embed_clip`
    projects), stacked, pooled a block of clips per array pass; nothing is
    kept, so a caller that needs the rows again keeps them."""
    origin = np.array([ref.interval.start_s for ref in refs])
    clip_end = np.array([ref.interval.end_s for ref in refs])
    n_seg = segment_counts(clip_end - origin, seg_len_s)
    recs = [_video(store, ref.video_id, ref.interval.start_s, ref.interval.end_s) for ref in refs]
    if not recs:
        return np.empty((0, 0), dtype=np.float32)
    blocks = _pool_blocks(recs, origin, clip_end, n_seg, seg_len_s)
    return np.concatenate([_mean_runs(segs, first, n_seg[lo:hi]) for lo, hi, segs, first in blocks])
