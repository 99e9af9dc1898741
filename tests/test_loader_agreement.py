"""The bulk load path and the per-line path agree: on every input the loaders
return equal objects and log the same records, or raise the same message.

The reference is the loader with its bulk steps switched off: `_jsonl_columns`
doubting every file (so `read_jsonl`'s loops decide), and `read_f32`'s one
read coming up short (so the file is read whole again)."""

import json
import logging
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clipedit import corpus
from clipedit.corpus import (
    SynthConfig,
    load_annotations,
    load_features,
    read_feat_matrix,
    synth_corpus,
    write_annotations,
    write_features,
)

from test_loader_fuzz import CORPUS, FILES, annotation_files, damaged, feat_cases


def outcome(load, caplog):
    """("ok", result, log records) or ("error", message, log records) of `load()`."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="clipedit.corpus"):
        try:
            got = ("ok", load())
        except ValueError as exc:
            got = ("error", str(exc))
    return got + ([(r.levelno, r.getMessage()) for r in caplog.records],)


def by_line(load):
    """`load` with the bulk steps off: every JSON Lines file doubted, every one-read short."""
    def run():
        with mock.patch.object(corpus, "_jsonl_columns", return_value=None), \
                mock.patch.object(corpus.os, "readv", return_value=0):
            return load()
    return run


def same_array(a, b) -> bool:
    """Bit for bit, NaN payloads too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def store_equal(a, b) -> bool:
    return (list(a.videos) == list(b.videos) and list(a.caption_features) == list(b.caption_features)
            and all(a.videos[v].duration_s == b.videos[v].duration_s
                    and same_array(a.videos[v].features, b.videos[v].features) for v in a.videos)
            and all(same_array(a.caption_features[c], b.caption_features[c]) for c in a.caption_features))


def assert_agree(load, caplog, equal=lambda a, b: a == b):
    bulk, ref = outcome(load, caplog), outcome(by_line(load), caplog)
    assert bulk[0] == ref[0] and bulk[2] == ref[2], (bulk, ref)
    if bulk[0] == "ok":
        assert equal(bulk[1], ref[1])
    else:
        assert bulk[1] == ref[1]


def annotations_agree(raw: bytes, with_store: bool, caplog) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "annotations.jsonl"
        path.write_bytes(raw)
        assert_agree(lambda: load_annotations(path, CORPUS[0] if with_store else None), caplog)


def features_agree(name: str, raw: bytes, caplog) -> None:
    with tempfile.TemporaryDirectory() as d:
        for other, data in FILES.items():
            (Path(d) / other).write_bytes(data)
        (Path(d) / name).write_bytes(raw)
        assert_agree(lambda: load_features(d), caplog, store_equal)


# `caplog` is cleared before each load, so one fixture serves every example
FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(annotation_files(), st.booleans())
def test_annotations_agree(caplog, raw, with_store):
    annotations_agree(raw, with_store, caplog)


@FUZZ
@given(st.one_of(feat_cases(), damaged(FILES["captions.idx"], 0).map(lambda r: ("captions.idx", r))))
def test_features_agree(caplog, case):
    features_agree(*case, caplog)


@FUZZ
@given(feat_cases())
def test_read_feat_matrix_agrees(caplog, case):
    name, raw = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(raw)
        assert_agree(lambda: read_feat_matrix(path), caplog, same_array)


ANN = FILES["annotations.jsonl"]
LINES = ANN.decode().splitlines()
FIRST = json.loads(LINES[0])


def with_line(i: int, text: str) -> bytes:
    lines = list(LINES)
    lines[i] = text
    return ("\n".join(lines) + "\n").encode()


def with_field(i: int, key: str, value: str) -> bytes:
    """Line i with `key` set to `value`, a JSON token written as is."""
    obj = json.loads(LINES[i])
    obj[key] = None
    return with_line(i, json.dumps(obj).replace(f'"{key}": null', f'"{key}": {value}'))


@pytest.mark.parametrize("raw", [
    ANN,
    ANN + b"\n",
    ANN.replace(b"\n", b"\n\n", 1),
    ANN.replace(b"\n", b"\n \t\n", 1),
    ANN.replace(b"\n", b"\r\n"),
    "﻿".encode() + ANN,
    ANN.rstrip(b"\n"),
    b"",
    # the merged-line case: joined with "," these three lines parse as three objects
    with_line(0, json.dumps(FIRST)[:-1] + ', "text": "x') + b'y"}\n' + LINES[1].encode() + b"," + LINES[2].encode() + b"\n",
    with_line(1, LINES[1][:-1] + ', "timestamp": -1}'),  # a duplicate key: the last one counts
    with_line(1, LINES[1][:-1] + ', "text": "a", "text": 3}'),
    with_field(1, "timestamp", "1e400"),
    with_field(1, "gt_end", "1e400"),
    with_field(1, "timestamp", "1" + "0" * 400),
    with_field(1, "gt_start", "NaN"),
    with_field(1, "timestamp", "-Infinity"),
    with_field(1, "timestamp", "true"),
    with_field(1, "text", "null"),
    with_field(1, "text", '{"x": 1}'),
    with_field(1, "text", '"caption text"'),
    with_field(1, "split", '"val"'),
    with_field(1, "caption_id", json.dumps(FIRST["caption_id"])),
    with_field(1, "timestamp", json.dumps(FIRST["timestamp"])) if FIRST["video_id"] in LINES[1] else ANN,
    with_line(1, json.dumps({k: v for k, v in json.loads(LINES[1]).items() if k != "gt_end"})),
    with_line(1, json.dumps({k: v for k, v in json.loads(LINES[1]).items() if k not in ("gt_start", "gt_end")})),
    with_line(1, json.dumps({k: v for k, v in json.loads(LINES[1]).items() if k != "split"})),
    with_line(1, "[1, 2]"),
    with_line(1, LINES[1] + ' {"b": 2}'),
    with_line(1, LINES[1] + ","),
    ANN.replace(b"\n", b"\n\xff\xfe\n", 1),
    ANN.replace(b"v_", b"v\xc3\xa9_"),  # UTF-8 that names no video in the store
], ids=["plain", "blank-last", "blank", "whitespace", "crlf", "bom", "no-final-newline", "empty",
        "merged-lines", "duplicate-key", "duplicate-key-text", "timestamp-1e400", "gt_end-1e400",
        "int-past-float", "nan-token", "minus-infinity", "bool", "text-null", "text-object", "text",
        "split-val", "duplicate-caption", "duplicate-timestamp", "gt_end-missing", "no-gt",
        "split-missing", "array", "extra-object", "extra-comma", "not-utf8", "unknown-video"])
@pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
def test_annotation_edges_agree(caplog, raw, with_store):
    annotations_agree(raw, with_store, caplog)


def test_timestamp_outside_gt_logs_the_same_records_in_order(caplog):
    lines = [json.loads(line) for line in LINES]
    for obj in lines[:3]:  # each timestamp just outside its gt, still inside its 6 s video
        obj["timestamp"] = obj["gt_end"] + 0.25 if obj["gt_end"] < 5.0 else obj["gt_start"] - 0.25
    raw = "".join(json.dumps(obj) + "\n" for obj in lines).encode()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "annotations.jsonl"
        path.write_bytes(raw)
        bulk = outcome(lambda: load_annotations(path, CORPUS[0]), caplog)
        assert corpus._annotations_by_columns(path, CORPUS[0]) is not None  # the bulk path decided
    assert bulk[0] == "ok"
    assert [m for _, m in bulk[2]] == [f"caption {o['caption_id']}: timestamp {o['timestamp']:.3f} outside gt "
                                       f"interval [{o['gt_start']:.3f}, {o['gt_end']:.3f}]" for o in lines[:3]]
    annotations_agree(raw, True, caplog)


IDX = FILES["captions.idx"].decode().splitlines()


def idx_with(i: int, text: str) -> bytes:
    lines = list(IDX)
    lines[i] = text
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("raw", [
    FILES["captions.idx"],
    b"",
    idx_with(1, IDX[1].replace('"row": 1', '"row": true')),
    idx_with(1, IDX[1].replace('"row": 1', '"row": 1.0')),
    idx_with(1, IDX[1].replace('"row": 1', '"row": -1')),
    idx_with(1, IDX[1].replace('"row": 1', '"row": 99')),
    idx_with(1, IDX[1].replace('"row": 1', '"row": 1' + "0" * 30)),
    idx_with(1, IDX[1][:-1] + ', "row": 0}'),  # a duplicate key: the last one counts
    idx_with(1, IDX[0]),
    idx_with(1, IDX[1].replace('"caption_id": ', '"caption_id": 7, "x": ')),
    idx_with(1, ""),
    FILES["captions.idx"].replace(b"\n", b"\r\n"),
], ids=["plain", "empty", "bool-row", "float-row", "negative-row", "row-past-end", "huge-row",
        "duplicate-key", "duplicate-caption", "int-caption", "blank", "crlf"])
def test_caption_index_edges_agree(caplog, raw):
    features_agree("captions.idx", raw, caplog)


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_zero_and_non_finite_caption_rows_agree(caplog, value):
    raw = FILES["captions.feat"]
    matrix = np.frombuffer(raw, dtype="<f4", offset=12).reshape(-1, 3).copy()
    matrix[2] = value
    features_agree("captions.feat", raw[:12] + matrix.tobytes(), caplog)


def test_undamaged_corpus_takes_the_bulk_path(tmp_path):
    """The agreement above is not vacuous: on a written corpus nothing falls back."""
    write_features(tmp_path, CORPUS[0])
    write_annotations(tmp_path / "annotations.jsonl", CORPUS[1])
    assert corpus._jsonl_columns(tmp_path / "captions.idx", ("caption_id", "row")) is not None
    assert corpus._annotations_by_columns(tmp_path / "annotations.jsonl", CORPUS[0]) is not None
    with mock.patch.object(corpus, "read_jsonl") as per_line:
        load_annotations(tmp_path / "annotations.jsonl", load_features(tmp_path))
    per_line.assert_not_called()


def test_a_short_read_is_read_again(tmp_path):
    """A file that changes under `read_f32` (here: its one read stops after the header)
    is read whole again, not returned half filled."""
    path = tmp_path / "v.feat"
    path.write_bytes(FILES["v_train_0000.feat"])
    readv = corpus.os.readv
    with mock.patch.object(corpus.os, "readv", side_effect=lambda fd, buffers: readv(fd, buffers[:1])):
        got = read_feat_matrix(path)
    assert same_array(got, read_feat_matrix(path))


# --------------------------------------------------------------------------
# memory: a loader's peak is what it returns plus one file or one chunk

# 4,000 captions: `annotations.jsonl` and `captions.idx` are several chunks each
MEMORY_CORPUS = SynthConfig(
    n_train_videos=300, n_test_videos=100, captions_per_video=10, video_len_s=30.0,
    gt_len_range=(1.0, 2.5), dim=16, seed=4,
)
# The Python objects decoded from one chunk of JSON Lines take 6-8 times its
# bytes. Each line also costs its columns (8 bytes per field) and its entries
# in the duplicate checks' sets, about 110 bytes for an annotation line.
CHUNK_OBJECTS = 10 * corpus._JSONL_CHUNK_BYTES
PER_LINE = 128
SLACK = 64 * 1024


def traced(load):
    """(bytes the result of `load()` retains, peak bytes above the start) under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = load()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return current - base, peak - base


@pytest.fixture(scope="module")
def memory_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")
    store, annotations = synth_corpus(MEMORY_CORPUS)
    write_features(d, store)
    write_annotations(d / "annotations.jsonl", annotations)
    for name in ("annotations.jsonl", "captions.idx"):
        assert (d / name).stat().st_size > 2 * corpus._JSONL_CHUNK_BYTES
    return d


def lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def test_load_annotations_peak_is_its_result_plus_one_chunk(memory_corpus):
    store = load_features(memory_corpus)
    path = memory_corpus / "annotations.jsonl"
    retained, peak = traced(lambda: load_annotations(path, store))
    assert peak <= retained + CHUNK_OBJECTS + PER_LINE * lines(path) + SLACK, (retained, peak)


def test_load_features_peak_is_its_result_plus_one_file_or_chunk(memory_corpus):
    largest = max(p.stat().st_size for p in memory_corpus.glob("*.feat"))
    retained, peak = traced(lambda: load_features(memory_corpus))
    bound = retained + max(largest, CHUNK_OBJECTS) + PER_LINE * lines(memory_corpus / "captions.idx") + SLACK
    assert peak <= bound, (retained, peak)
