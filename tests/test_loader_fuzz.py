"""Damaged input files: every loader either loads or raises a ValueError naming the file."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from clipedit.corpus import (
    SynthConfig,
    load_annotations,
    load_features,
    read_feat_matrix,
    read_jsonl,
    synth_corpus,
    write_annotations,
    write_features,
)
from clipedit.encoder import EncoderParams, load_checkpoint, save_checkpoint

NAN, INF = struct.pack("<f", np.nan), struct.pack("<f", np.inf)


@st.composite
def damaged(draw, raw: bytes, header: int):
    """`raw` truncated, bit-flipped, with NaN/inf bytes written in, a
    header field (uint32 at 4 or 8) rewritten, or bytes inserted."""
    kind = draw(st.sampled_from(["truncate", "flip", "nan", "dims", "insert"]))
    out = bytearray(raw)
    if kind == "truncate":
        return bytes(out[:draw(st.integers(0, len(raw) - 1))])
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, len(raw) * 8 - 1), min_size=1, max_size=8)):
            out[pos // 8] ^= 1 << (pos % 8)
    elif kind == "nan":
        pos = draw(st.integers(header // 4, (len(raw) - 4) // 4)) * 4
        out[pos:pos + 4] = draw(st.sampled_from([NAN, INF]))
    elif kind == "dims":
        value = draw(st.sampled_from([0, 1, 2, 3, 7, 2**31, 2**32 - 1]))
        pos = draw(st.sampled_from([4, 8]))
        out[pos:pos + 4] = struct.pack("<I", value)
    else:
        pos = draw(st.integers(0, len(raw)))
        out[pos:pos] = draw(st.binary(min_size=1, max_size=12))
    return bytes(out)


def loads_or_names(load, path, named=None):
    try:
        load(path)
    except ValueError as exc:
        assert str(named or path) in str(exc), str(exc)


CORPUS = synth_corpus(SynthConfig(
    n_train_videos=2, n_test_videos=1, captions_per_video=2, video_len_s=6.0,
    gt_len_range=(1.0, 2.0), dim=3, align_gt_to_seconds=True, seed=3,
))
FEAT = tempfile.TemporaryDirectory()
write_features(FEAT.name, CORPUS[0])
write_annotations(Path(FEAT.name) / "annotations.jsonl", CORPUS[1])
FILES = {p.name: p.read_bytes() for p in sorted(Path(FEAT.name).iterdir())}
CKPT = Path(FEAT.name) / "model.cfp"
save_checkpoint(CKPT, EncoderParams.init_random(3, rng=np.random.default_rng(0)))


def feat_cases():
    return st.sampled_from(sorted(n for n in FILES if n.endswith(".feat"))).flatmap(
        lambda n: st.tuples(st.just(n), damaged(FILES[n], 12)))


@settings(max_examples=300, deadline=None)
@given(feat_cases())
def test_read_feat_matrix(case):
    name, raw = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(raw)
        loads_or_names(read_feat_matrix, path)


@settings(max_examples=300, deadline=None)
@given(st.one_of(feat_cases(), damaged(FILES["captions.idx"], 0).map(lambda r: ("captions.idx", r))))
def test_load_features(case):
    name, raw = case
    with tempfile.TemporaryDirectory() as d:
        for other, data in FILES.items():
            (Path(d) / other).write_bytes(data)
        (Path(d) / name).write_bytes(raw)
        loads_or_names(load_features, d, Path(d) / name)


@settings(max_examples=300, deadline=None)
@given(damaged(CKPT.read_bytes(), 20))
def test_load_checkpoint(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.cfp"
        path.write_bytes(raw)
        loads_or_names(load_checkpoint, path)


FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.integers(10**300, 10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def annotation_files(draw):
    """The corpus' annotation file, its bytes damaged or one field of one line
    replaced by any JSON value."""
    raw = FILES["annotations.jsonl"]
    if draw(st.booleans()):
        return draw(damaged(raw, 0))
    lines = raw.decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    obj[draw(st.sampled_from(["caption_id", "video_id", "timestamp", "split",
                              "gt_start", "gt_end", "text"]))] = draw(FIELD_VALUES)
    lines[i] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(annotation_files(), st.booleans())
def test_load_annotations(raw, with_store):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "annotations.jsonl"
        path.write_bytes(raw)
        loads_or_names(lambda p: load_annotations(p, CORPUS[0] if with_store else None), path)


REQUIRED = {"annotations.jsonl": ("caption_id", "video_id", "timestamp", "split"),
            "captions.idx": ("caption_id", "row")}


def jsonl_line_ok(line: bytes, required) -> bool:
    """Whether `read_jsonl` must accept `line`: blank, or a UTF-8 JSON object with every required key."""
    if not line.strip():
        return True
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return False
    return isinstance(obj, dict) and all(key in obj for key in required)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REQUIRED)).flatmap(lambda n: st.tuples(st.just(n), damaged(FILES[n], 0))))
def test_read_jsonl(case):
    name, raw = case
    lines = raw.split(b"\n")  # a binary file's lines end at b"\n" only
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(raw)
        try:
            got = list(read_jsonl(path, REQUIRED[name]))
        except ValueError as exc:
            named = re.match(re.escape(f"{path}:") + r"(\d+): ", str(exc))
            assert named, str(exc)
            n = int(named.group(1))
            assert all(jsonl_line_ok(line, REQUIRED[name]) for line in lines[:n - 1])
            assert not jsonl_line_ok(lines[n - 1], REQUIRED[name])
        else:
            assert all(jsonl_line_ok(line, REQUIRED[name]) for line in lines)
            expect = [(n, json.loads(line)) for n, line in enumerate(lines, 1) if line.strip()]
            assert json.dumps(got) == json.dumps(expect)  # as text: NaN == NaN
