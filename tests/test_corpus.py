import contextlib
import io
import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clipedit import corpus, editor
from clipedit.corpus import (
    ROW_OVERLAP_MIN,
    CaptionAnnotation,
    ClipRef,
    FeatureStore,
    SynthConfig,
    VideoRecord,
    atomic_write,
    load_annotations,
    clip_features,
    clip_means,
    load_features,
    read_feat_matrix,
    read_jsonl,
    sample_timestamp,
    segment_features,
    synth_corpus,
    write_annotations,
    write_feat_matrix,
    write_features,
)
from clipedit.editor import EditConfig, edit_all, write_edits
from clipedit.encoder import EncoderParams, save_checkpoint
from clipedit.evalrep import RetrievalMetrics, iou_histogram, write_iou_hist, write_metrics
from clipedit.timeline import Interval, segment_grid

from conftest import make_store
from oracles import row_owner_ref


class TestAnnotations:
    def make(self, **kw):
        base = dict(caption_id="c1", video_id="v1", timestamp_s=12.0, split="train")
        base.update(kw)
        return CaptionAnnotation(**base)

    def test_minimal_roundtrip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"caption_id":"c1","video_id":"v1","timestamp":12.0,"split":"train"}\n')
        anns = load_annotations(path)
        assert len(anns) == 1
        assert anns[0].gt_interval is None
        assert anns[0].timestamp_s == 12.0

    def test_sorted_by_video_then_timestamp(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        lines = [
            {"caption_id": "c2", "video_id": "v1", "timestamp": 30.0, "split": "train"},
            {"caption_id": "c3", "video_id": "v0", "timestamp": 99.0, "split": "train"},
            {"caption_id": "c1", "video_id": "v1", "timestamp": 5.0, "split": "train"},
        ]
        path.write_text("\n".join(json.dumps(o) for o in lines))
        anns = load_annotations(path)
        assert [a.caption_id for a in anns] == ["c3", "c1", "c2"]

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"caption_id":"c1","video_id":"v1","timestamp":1.0,"split":"train"}\n'
            '{"caption_id":"c2","video_id":"v1","split":"train"}\n'
        )
        with pytest.raises(ValueError, match=":2"):
            load_annotations(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"caption_id":"c1"\n')
        with pytest.raises(ValueError, match=":1"):
            load_annotations(path)

    def test_duplicate_caption_id_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        line = '{"caption_id":"c1","video_id":"v1","timestamp":1.0,"split":"train"}\n'
        path.write_text(line + line)
        both = r"ann\.jsonl:2: duplicate caption_id 'c1', first at .*ann\.jsonl:1$"
        with pytest.raises(ValueError, match=both):
            load_annotations(path)

    def test_duplicate_timestamp_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"caption_id":"c1","video_id":"v1","timestamp":7.25,"split":"train"}\n'
            '{"caption_id":"c2","video_id":"v1","timestamp":7.25,"split":"test"}\n'
            '{"caption_id":"c3","video_id":"v2","timestamp":7.25,"split":"train"}\n'
            '{"caption_id":"c4","video_id":"v1","timestamp":7.25,"split":"train"}\n'
        )
        # another split or another video may share the timestamp; the
        # second caption of one video and split may not
        with pytest.raises(ValueError, match=r"ann\.jsonl:4: caption 'c4'.*ann\.jsonl:1$"):
            load_annotations(path)

    def test_half_gt_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"caption_id":"c1","video_id":"v1","timestamp":1.0,"split":"train","gt_start":0.0}\n')
        with pytest.raises(ValueError, match="gt_start/gt_end"):
            load_annotations(path)

    def test_timestamp_outside_video_rejected_with_store(self, tmp_path):
        store = make_store({"v1": np.zeros((10, 3))})
        path = tmp_path / "ann.jsonl"
        path.write_text('{"caption_id":"c1","video_id":"v1","timestamp":55.0,"split":"train"}\n')
        with pytest.raises(ValueError, match="c1"):
            load_annotations(path, store)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("gt,what", [
        ((4.0, 12.5), r"gt grid \[4\.0, 12\.5\] outside video v1 span \[0, 10\.0\]$"),
        ((9.5, 10.5), r"gt grid \[9\.5, 10\.5\] outside video v1 span \[0, 10\.0\]$"),
    ])
    def test_gt_outside_video_rejected_with_store(self, tmp_path, split, gt, what):
        store = make_store({"v1": np.zeros((10, 3))}, {"c1": np.ones(3), "c2": np.ones(3)})
        path = tmp_path / "ann.jsonl"
        lines = [
            {"caption_id": "c1", "video_id": "v1", "timestamp": 9.0, "split": split,
             "gt_start": 8.0, "gt_end": 10.0},  # a gt may end where its video ends
            {"caption_id": "c2", "video_id": "v1", "timestamp": 2.0, "split": split,
             "gt_start": gt[0], "gt_end": gt[1]},
        ]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        assert len(load_annotations(path)) == 2  # without a store there is no span to check
        with pytest.raises(ValueError, match=r"ann\.jsonl:2: caption c2: " + what):
            load_annotations(path, store)
        path.write_text(json.dumps(lines[0]) + "\n")
        assert load_annotations(path, store)[0].gt_interval == Interval(8.0, 10.0)

    def test_caption_without_features_rejected_with_store(self, tmp_path):
        store = make_store({"v1": np.zeros((10, 3))}, {"c1": np.ones(3)})
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"caption_id":"c1","video_id":"v1","timestamp":1.0,"split":"train"}\n'
            '{"caption_id":"c2","video_id":"v1","timestamp":2.0,"split":"train"}\n'
        )
        with pytest.raises(ValueError, match=r"ann\.jsonl:2: no caption features for 'c2'"):
            load_annotations(path, store)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            self.make(split="validation")

    @pytest.mark.parametrize("bad", ["[" * 100_000, "1" * 5_000], ids=["deep_nesting", "long_integer"])
    def test_json_past_the_parser_limits_names_line(self, tmp_path, bad):
        path = tmp_path / "ann.jsonl"
        good = '{"caption_id":"c1","video_id":"v1","timestamp":1.0,"split":"train"}'
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(ValueError, match=r"ann\.jsonl:2: malformed JSON: "):
            load_annotations(path)

    def test_no_annotations_write_the_empty_file_of_no_edits(self, tmp_path):
        write_annotations(tmp_path / "ann.jsonl", [])
        write_edits(tmp_path / "edits.jsonl", [])
        assert (tmp_path / "ann.jsonl").read_bytes() == (tmp_path / "edits.jsonl").read_bytes() == b""
        assert load_annotations(tmp_path / "ann.jsonl") == []

    def test_write_read_write_byte_identical(self, tmp_path):
        anns = [
            self.make(caption_id="a", timestamp_s=3.25, gt_interval=Interval(1.0, 6.5), text="pour the oil"),
            self.make(caption_id="b", timestamp_s=9.0, split="test"),
        ]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        write_annotations(p1, anns)
        write_annotations(p2, load_annotations(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestFeatureFiles:
    def test_matrix_roundtrip_bit_exact(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
        path = tmp_path / "x.feat"
        write_feat_matrix(path, m)
        back = read_feat_matrix(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            read_feat_matrix(path)

    def test_truncated_body(self, tmp_path):
        m = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "x.feat"
        write_feat_matrix(path, m)
        full = path.read_bytes()
        cuts = [(full[:-8], "expected")]
        # the magic, then part of the header
        cuts += [(full[:n], "truncated header") for n in range(4, 12)]
        for cut, message in cuts:
            path.write_bytes(cut)
            with pytest.raises(ValueError, match=message):
                read_feat_matrix(path)

    def test_store_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        store = make_store(
            {"va": rng.standard_normal((6, 4)), "vb": rng.standard_normal((9, 4))},
            {"c1": rng.standard_normal(4), "c2": rng.standard_normal(4)},
        )
        write_features(tmp_path, store)
        back = load_features(tmp_path)
        assert set(back.videos) == {"va", "vb"}
        for vid in store.videos:
            assert np.array_equal(back.videos[vid].features, store.videos[vid].features)
            assert back.videos[vid].duration_s == store.videos[vid].duration_s
        assert set(back.caption_features) == {"c1", "c2"}
        for cid in store.caption_features:
            assert np.array_equal(back.caption_features[cid], store.caption_features[cid])

    def test_store_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        store = make_store({"v": rng.standard_normal((5, 3))}, {"c": rng.standard_normal(3)})
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_features(d1, store)
        write_features(d2, load_features(d1))
        for name in ("v.feat", "captions.feat", "captions.idx"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("video_id", [".", "..", "a.b", ".a"])
    def test_video_id_is_the_file_stem(self, tmp_path, video_id):
        # "..feat" is video "." as `Path.stem` reads it, not "..feat" as splitext does
        feats = np.arange(6, dtype=np.float32).reshape(3, 2)
        write_features(tmp_path, make_store({video_id: feats}, {}))
        assert [p.stem for p in tmp_path.glob("*.feat")] == [video_id]
        back = load_features(tmp_path)
        assert list(back.videos) == [video_id]
        assert np.array_equal(back.videos[video_id].features, feats)

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        write_feat_matrix(tmp_path / "a.feat", np.ones((2, 3), dtype=np.float32))
        write_feat_matrix(tmp_path / "b.feat", np.ones((2, 4), dtype=np.float32))
        with pytest.raises(ValueError) as exc:
            load_features(tmp_path)
        assert "a.feat" in str(exc.value) and "b.feat" in str(exc.value)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no feature files found"):
            load_features(tmp_path)

    def test_each_file_is_read_once(self, tmp_path):
        store, _ = synth_corpus(TestSynthCorpus.CFG)
        write_features(tmp_path, store)
        reads = []

        def counting(path):
            reads.append(os.path.basename(path))
            return read_feat_matrix(path)
        with mock.patch.object(corpus, "read_feat_matrix", counting):
            loaded = load_features(tmp_path)
        assert sorted(reads) == sorted(p.name for p in tmp_path.glob("*.feat"))
        assert "captions.feat" in reads
        for cid, vec in store.caption_features.items():
            assert np.array_equal(loaded.caption_features[cid], vec)

    def test_captions_without_index_rejected(self, tmp_path):
        write_feat_matrix(tmp_path / "captions.feat", np.ones((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="captions.idx"):
            load_features(tmp_path)


def jsonl_by_json_loads(path, data: bytes) -> list:
    """What `read_jsonl(path)` must give: (line, `json.loads(line)`) per non-blank line,
    up to the first line `json.loads` rejects or that is not an object, as its message."""
    out: list = []
    for lineno, raw in enumerate(io.BytesIO(data), start=1):  # a binary file's lines end at b"\n"
        line = raw.decode("utf-8")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            return out + [f"{path}:{lineno}: malformed JSON: {exc}"]
        if not isinstance(obj, dict):
            return out + [f"{path}:{lineno}: expected a JSON object, got {line.strip()}"]
        out.append((lineno, obj))
    return out


class TestReadPath:
    """Edges of the fast read path: each must behave as `json.loads` per line and `Path.glob`."""

    @pytest.mark.parametrize("data", [
        b'{"a": 1}\n{"b": [2, 3]}',
        b'{"a": 1}\r\n',
        b' {"a": 1}\n',
        b'{"a": 1} \t\n',
        '\ufeff{"a": 1}\n'.encode("utf-8"),
        b'{"a": 1}{"b": 2}\n',
        b'[1, 2]\n',
        b'{"a": 1}\n{"a": \n',  # a failed decode must not read as a match ending at "\n"
        b'{"a":[1\n2]}, {"b":3}\n',  # joined, these two lines would parse as two objects
    ], ids=["plain", "crlf", "leading_space", "trailing_space_tab", "bom", "extra_object", "array",
            "malformed_last_line", "split_object"])
    def test_read_jsonl_decides_each_line_as_json_loads(self, tmp_path, data):
        path = tmp_path / "x.jsonl"
        path.write_bytes(data)
        got: list = []
        try:
            got.extend(read_jsonl(path))
        except ValueError as exc:
            got.append(str(exc))
        assert got == jsonl_by_json_loads(path, data)

    def test_feat_names_order_and_ids_match_path_glob(self, tmp_path):
        for name in (".x.feat", ".feat", "a.b.feat", "B.feat", "a.feat", "x.FEAT"):
            write_feat_matrix(tmp_path / name, np.ones((2, 3), dtype=np.float32))
        reads = []

        def counting(path):
            reads.append(os.path.basename(path))
            return read_feat_matrix(path)
        with mock.patch.object(corpus, "read_feat_matrix", counting):
            store = load_features(tmp_path)
        paths = sorted(tmp_path.glob("*.feat"))
        assert reads == [p.name for p in paths] == [".feat", ".x.feat", "B.feat", "a.b.feat", "a.feat"]
        assert list(store.videos) == [p.stem for p in paths] == [".feat", ".x", "B", "a.b", "a"]

    def test_feat_errors_name_the_path_as_path_prints_it(self, tmp_path, monkeypatch):
        (tmp_path / "a.feat").write_bytes(b"XXXX")
        monkeypatch.chdir(tmp_path)
        for given in (".", "./", ""):
            with pytest.raises(ValueError) as exc:
                load_features(given)
            assert str(exc.value).startswith("a.feat: bad magic bytes")
        with pytest.raises(ValueError) as exc:
            load_features(str(tmp_path) + "/./")
        assert str(exc.value).startswith(f"{tmp_path / 'a.feat'}: bad magic bytes")

    @pytest.mark.parametrize("where", ["missing", "file"])
    def test_no_directory_finds_no_feature_files(self, tmp_path, where):
        target = tmp_path / "x"
        if where == "file":
            write_feat_matrix(target, np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ValueError) as exc:
            load_features(target)
        assert str(exc.value) == f"no feature files found in {target}"


class TestVideoRecord:
    def test_row_count_must_match_duration(self):
        with pytest.raises(ValueError, match="rows"):
            VideoRecord("v", 5.0, np.zeros((4, 3), dtype=np.float32))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 3), dtype=np.float32)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            VideoRecord("v", 2.0, bad)


def _cursor_placement(cfg, rng):
    """The gt placement as first written: draws as `_place_gt_intervals` does, then one cursor
    that adds gap i, then length i, per gt. Returns [(start, end)]."""
    k, (lo, hi) = cfg.captions_per_video, cfg.gt_len_range
    if cfg.align_gt_to_seconds:
        lengths = rng.integers(math.ceil(lo), math.floor(hi) + 1, size=k).astype(float)
        slack = int(cfg.video_len_s) - int(lengths.sum())
        gaps = rng.multinomial(slack, [1.0 / (k + 1)] * (k + 1)).astype(float)
    else:
        lengths = rng.uniform(lo, hi, size=k)
        slack = cfg.video_len_s - float(lengths.sum())
        cuts = np.sort(rng.uniform(0.0, slack, size=k))
        gaps = np.diff(np.concatenate([[0.0], cuts, [slack]]))
    out, cursor = [], 0.0
    for i in range(k):
        cursor += float(gaps[i])
        if not cursor < (end := cursor + float(lengths[i])):
            raise ValueError(f"synth.gt_len_range {cfg.gt_len_range}: a gt at {cursor} s has no width")
        out.append((cursor, end))
        cursor = end
    return out


class TestSynthCorpus:
    CFG = SynthConfig(
        n_train_videos=3, n_test_videos=1, captions_per_video=3,
        video_len_s=30.0, gt_len_range=(3.0, 6.0), dim=12, seed=42,
    )

    def test_shape_and_split(self):
        store, anns = synth_corpus(self.CFG)
        assert len(store.videos) == 4
        assert len(anns) == 12
        assert sum(1 for a in anns if a.split == "train") == 9
        for rec in store.videos.values():
            assert rec.features.shape == (30, 12)

    def test_gt_disjoint_and_timestamp_inside(self):
        _, anns = synth_corpus(self.CFG)
        by_video = {}
        for a in anns:
            assert a.gt_interval is not None
            assert a.gt_interval.contains(a.timestamp_s)
            by_video.setdefault(a.video_id, []).append(a.gt_interval)
        for gts in by_video.values():
            gts.sort(key=lambda g: g.start_s)
            for g1, g2 in zip(gts, gts[1:]):
                assert g1.end_s <= g2.start_s

    def test_deterministic(self):
        s1, a1 = synth_corpus(self.CFG)
        s2, a2 = synth_corpus(self.CFG)
        assert a1 == a2
        for vid in s1.videos:
            assert np.array_equal(s1.videos[vid].features, s2.videos[vid].features)
        for cid in s1.caption_features:
            assert np.array_equal(s1.caption_features[cid], s2.caption_features[cid])

    def test_zero_noise_rows_equal_caption(self, zero_noise_corpus):
        store, anns = zero_noise_corpus
        for a in anns[:6]:
            cap = store.caption_features[a.caption_id].astype(np.float64)
            cap /= np.linalg.norm(cap)
            rows = store.videos[a.video_id].features
            grid = segment_grid(a.gt_interval, 1.0)
            for i in range(grid.n_segments):
                row = rows[int(grid.segment(i).start_s)].astype(np.float64)
                row /= np.linalg.norm(row)
                assert float(row @ cap) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_zero_noise_row_follows_the_half_row_owner(self, seed):
        # fractional gts and a fractional video end, so rows are split by gt edges
        cfg = SynthConfig(
            n_train_videos=3, n_test_videos=1, captions_per_video=4,
            video_len_s=29.5, gt_len_range=(0.4, 4.0), dim=6,
            noise_sigma=0.0, caption_noise_sigma=0.0, align_gt_to_seconds=False, seed=seed,
        )
        store, anns = synth_corpus(cfg)
        for video_id, rec in store.videos.items():
            caps = sorted((a.gt_interval.start_s, a.gt_interval.end_s, a.caption_id)
                          for a in anns if a.video_id == video_id)
            gts = [(lo, hi) for lo, hi, _ in caps]
            for row, feat in enumerate(rec.features):
                owner = row_owner_ref(row, min(row + 1.0, cfg.video_len_s), gts)
                for j, (_, _, cid) in enumerate(caps):
                    assert np.array_equal(feat, store.caption_features[cid]) == (owner == j)

    def test_zero_noise_background_near_orthogonal(self):
        cfg = SynthConfig(
            n_train_videos=20, n_test_videos=0, captions_per_video=2,
            video_len_s=60.0, gt_len_range=(3.0, 5.0), dim=64,
            noise_sigma=0.0, caption_noise_sigma=0.0, seed=9,
        )
        store, anns = synth_corpus(cfg)
        sims = []
        for a in anns:
            cap = store.caption_features[a.caption_id].astype(np.float64)
            cap /= np.linalg.norm(cap)
            rows = store.videos[a.video_id].features.astype(np.float64)
            for r in range(rows.shape[0]):
                mid = r + 0.5
                if not a.gt_interval.contains(mid):
                    sims.append(float(rows[r] / np.linalg.norm(rows[r]) @ cap))
        assert len(sims) >= 1000
        assert abs(np.mean(sims)) < 3.0 / math.sqrt(64)

    def test_infeasible_placement_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            SynthConfig(
                n_train_videos=1, n_test_videos=0, captions_per_video=10,
                video_len_s=30.0, gt_len_range=(3.0, 6.0), dim=4,
            )

    @pytest.mark.parametrize("key", ["noise_sigma", "caption_noise_sigma"])
    @pytest.mark.parametrize("sigma", [1e200, 1e308])
    def test_overflowing_noise_is_rejected_naming_its_key(self, key, sigma):
        # pytest turns a RuntimeWarning into an error, so none may print
        cfg = SynthConfig(**{**self.CFG.__dict__, key: sigma})
        with pytest.raises(ValueError, match=f"^synth.{key}: a synthetic feature row has norm inf"):
            synth_corpus(cfg)

    def test_gt_too_short_to_place_names_gt_len_range(self):
        cfg = SynthConfig(**{**self.CFG.__dict__, "gt_len_range": (1e-320, 1e-320)})
        with pytest.raises(ValueError, match=r"^synth.gt_len_range \(1e-320, 1e-320\): a gt at .* s has no width$"):
            synth_corpus(cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 6), hi=st.sampled_from([1e-320, 1e-3, 0.4, 1.0, 1.7, 2.0, 3.5, 7.0]),
        lo_frac=st.sampled_from([0.1, 0.5, 1.0]), room=st.sampled_from([1.0, 1.3, 4.0]),
        align=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_placement_equals_the_cursor_loop(self, k, hi, lo_frac, room, align, seed):
        lo = hi * lo_frac
        if align and math.ceil(lo) > math.floor(hi):
            return  # rejected by SynthConfig
        cfg = SynthConfig(n_train_videos=1, n_test_videos=0, captions_per_video=k,
                          video_len_s=max(k * hi * room, 0.5), gt_len_range=(lo, hi), dim=2,
                          align_gt_to_seconds=align, seed=seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = _cursor_placement(cfg, ref_rng)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                corpus._place_gt_intervals(cfg, rng)
            return
        got = corpus._place_gt_intervals(cfg, rng)
        assert [(gt.start_s, gt.end_s) for gt in got] == want
        assert [type(gt.start_s) for gt in got] == [float] * k
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_aligned_range_without_a_whole_second_is_rejected(self):
        with pytest.raises(ValueError, match=r"^gt_len_range \(0.2, 0.8\) contains no whole second$"):
            SynthConfig(**{**self.CFG.__dict__, "gt_len_range": (0.2, 0.8), "align_gt_to_seconds": True})
        SynthConfig(**{**self.CFG.__dict__, "gt_len_range": (0.2, 0.8)})  # fractional gts may

    def test_aligned_gt_on_integer_seconds(self):
        cfg = SynthConfig(
            n_train_videos=2, n_test_videos=0, captions_per_video=3,
            video_len_s=40.0, gt_len_range=(4.0, 7.0), dim=8,
            align_gt_to_seconds=True, seed=3,
        )
        _, anns = synth_corpus(cfg)
        for a in anns:
            assert a.gt_interval.start_s == int(a.gt_interval.start_s)
            assert a.gt_interval.end_s == int(a.gt_interval.end_s)


class TestSampleTimestamp:
    def test_inside_bounds(self):
        rng = np.random.default_rng(0)
        gt = Interval(10.0, 10.0001)
        for _ in range(50):
            t = sample_timestamp(gt, rng)
            assert 10.0 <= t <= 10.0001

    def test_uniform_mean(self):
        rng = np.random.default_rng(123)
        draws = [sample_timestamp(Interval(0.0, 1.0), rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_seed_reproducible(self):
        a = sample_timestamp(Interval(3.0, 9.0), np.random.default_rng(5))
        b = sample_timestamp(Interval(3.0, 9.0), np.random.default_rng(5))
        assert a == b


class TestSegmentFeatures:
    def test_integer_aligned_unit_grid_picks_exact_rows(self, tiny_store):
        grid = segment_grid(Interval(2.0, 6.0), 1.0)
        out = segment_features(tiny_store, "v1", grid)
        assert out.shape == (4, 3)
        for i, row_val in enumerate([2.0, 3.0, 4.0, 5.0]):
            assert np.allclose(out[i], row_val)

    def test_two_second_segments_average_pairs(self, tiny_store):
        grid = segment_grid(Interval(0.0, 8.0), 2.0)
        out = segment_features(tiny_store, "v1", grid)
        assert np.allclose(out[:, 0], [0.5, 2.5, 4.5, 6.5])

    def test_small_final_segment_takes_nearest_row(self, tiny_store):
        # [7.0, 7.4): the 0.4s overlap is under half of row 7's span
        grid = segment_grid(Interval(7.0, 7.4), 1.0)
        out = segment_features(tiny_store, "v1", grid)
        assert np.allclose(out[0], 7.0)

    def test_half_overlap_rule_on_offset_grid(self, tiny_store):
        # [1.5, 3.5): row 1 overlaps 0.5 (qualifies at exactly 50%), row 2 fully,
        # row 3 by 0.5 (qualifies)
        grid = segment_grid(Interval(1.5, 3.5), 2.0)
        out = segment_features(tiny_store, "v1", grid)
        assert np.allclose(out[0], (1.0 + 2.0 + 3.0) / 3.0)

    def test_unknown_video(self, tiny_store):
        with pytest.raises(ValueError, match="unknown video_id"):
            segment_features(tiny_store, "vX", segment_grid(Interval(0, 2), 1.0))

    def test_grid_outside_video_rejected(self, tiny_store):
        with pytest.raises(ValueError, match="outside"):
            segment_features(tiny_store, "v1", segment_grid(Interval(5.0, 11.0), 1.0))

    def test_finite_output(self, zero_noise_corpus):
        store, anns = zero_noise_corpus
        a = anns[0]
        grid = segment_grid(Interval(0.0, store.videos[a.video_id].duration_s), 1.0)
        out = segment_features(store, a.video_id, grid)
        assert np.all(np.isfinite(out))


def segment_features_ref(store, video_id, grid):
    """The per-row loop `segment_features` replaced, kept as its reference."""
    rec = store.videos[video_id]
    duration = rec.duration_s
    n_rows = rec.features.shape[0]
    out = np.empty((grid.n_segments, rec.features.shape[1]), dtype=rec.features.dtype)
    for i in range(grid.n_segments):
        seg = grid.segment(i)
        r_lo = max(0, math.floor(seg.start_s))
        r_hi = min(n_rows, math.ceil(seg.end_s))
        rows = []
        for r in range(r_lo, r_hi):
            row_end = min(r + 1.0, duration)
            ov = min(row_end, seg.end_s) - max(float(r), seg.start_s)
            if ov >= ROW_OVERLAP_MIN * (row_end - r):
                rows.append(r)
        if rows:
            out[i] = rec.features[rows].mean(axis=0)
        else:
            center = (seg.start_s + seg.end_s) / 2.0
            nearest = min(range(n_rows), key=lambda r: abs((r + 0.5) - center))
            out[i] = rec.features[nearest]
    return out


@st.composite
def pooling_cases(draw):
    """(feature seed, rows, last row length, clip start, clip end, seg_len_s):
    fractional or half-row clip edges inside a video whose last row may be short."""
    n_rows = draw(st.integers(1, 14))
    last_len = draw(st.sampled_from([1.0, 0.25, 0.5, 0.6, 0.9]))
    duration = n_rows - 1 + last_len
    step = draw(st.sampled_from([0.5, 0.01])) if duration >= 0.5 else 0.01  # half rows or hundredths
    n_steps = int(duration / step)
    a = draw(st.integers(0, n_steps - 1))
    b = draw(st.integers(a + 1, n_steps))
    seg_len = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5]))
    return draw(st.integers(0, 2**32 - 1)), n_rows, last_len, a * step, b * step, seg_len


@settings(max_examples=400, deadline=None)
@given(pooling_cases())
@example((0, 8, 1.0, 7.0, 7.4, 1.0))    # one segment under half a row: nearest row
@example((1, 8, 1.0, 2.3, 2.6, 0.3))    # inside one row: nearest row
@example((2, 8, 0.5, 1.5, 7.5, 2.0))    # half-row edges, short last row
@example((3, 12, 0.25, 0.37, 11.25, 1.3))
def test_segment_features_matches_row_loop(case):
    seed, n_rows, last_len, start, end, seg_len = case
    rows = np.random.default_rng(seed).standard_normal((n_rows, 5)).astype(np.float32)
    store = FeatureStore()
    store.videos["v"] = VideoRecord("v", n_rows - 1 + last_len, rows)
    grid = segment_grid(Interval(start, end), seg_len)
    assert np.array_equal(
        segment_features(store, "v", grid), segment_features_ref(store, "v", grid)
    )


def nearest_row_ref(center, n_rows):
    """The per-segment loop the closed-form nearest row replaced, kept as its reference."""
    return min(range(n_rows), key=lambda r: abs((r + 0.5) - center))


@st.composite
def uncovered_clips(draw):
    """(rows, clips): one-segment clips under half a row long, so no row
    qualifies, centred on whole and half seconds, their float neighbours,
    or anywhere in the video."""
    n_rows = draw(st.integers(1, 3_600))
    clips = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, n_rows))
        near = [k, k + 0.5, math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
        center = draw(st.sampled_from(near) | st.floats(0.0, float(n_rows)))
        center = min(max(center, 0.0), float(n_rows))
        half = draw(st.sampled_from([0.01, 0.0625, 0.125, 0.2]))
        clips.append((max(0.0, center - half), min(float(n_rows), center + half)))
    return n_rows, clips


@settings(max_examples=200, deadline=None)
@given(uncovered_clips())
# a tie, both ends, a row centre
@example((4, [(1.875, 2.125), (0.0, 0.125), (3.875, 4.0), (2.375, 2.625)]))
def test_uncovered_segment_takes_the_nearest_row_lower_on_a_tie(case):
    n_rows, clips = case
    rows = np.arange(n_rows, dtype=np.float32)[:, None] * np.array([1.0, -1.0], dtype=np.float32)
    store = make_store({"v": rows})
    got = clip_means(store, [ClipRef("v", Interval(a, b)) for a, b in clips], seg_len_s=0.5)
    assert got[:, 0].tolist() == [nearest_row_ref((a + b) / 2.0, n_rows) for a, b in clips]


class TestClipMean:
    def test_equals_mean_of_clip_features_and_is_kept(self, tiny_store):
        ref = ClipRef("v1", Interval(1.5, 5.0))
        got = clip_means(tiny_store, [ref])[0]
        assert np.array_equal(got, clip_features(tiny_store, ref).mean(axis=0))

    def test_seg_len_is_part_of_the_key(self, tiny_store):
        ref = ClipRef("v1", Interval(0.0, 5.0))
        assert np.allclose(clip_means(tiny_store, [ref], 1.0)[0], 2.0)
        assert np.allclose(clip_means(tiny_store, [ref], 2.0)[0], (0.5 + 3.0) / 2.0)

    def test_replaced_record_is_pooled_again(self, tiny_store):
        ref = ClipRef("v1", Interval(2.0, 6.0))
        stale = clip_means(tiny_store, [ref])[0].copy()
        rows = tiny_store.videos["v1"].features + 10.0
        tiny_store.videos["v1"] = VideoRecord("v1", 8.0, rows)
        fresh = clip_means(tiny_store, [ref])[0]
        assert np.array_equal(fresh, rows[2:6].mean(axis=0))
        assert not np.array_equal(fresh, stale)

    def test_unknown_video(self, tiny_store):
        with pytest.raises(ValueError, match="unknown video_id"):
            clip_means(tiny_store, [ClipRef("vX", Interval(0.0, 2.0))])[0]


@st.composite
def block_cases(draw):
    """(d, seed, videos as (rows, last row length), clips as (video, start, end),
    seg_len_s, how many clips are pooled beforehand, block budget in rows or None)."""
    d = draw(st.sampled_from([1, 2, 5]))
    videos = draw(st.lists(
        st.tuples(st.integers(1, 30), st.sampled_from([1.0, 0.25, 0.5, 0.6, 0.9])),
        min_size=1, max_size=4,
    ))
    clips = []
    for _ in range(draw(st.integers(1, 10))):
        v = draw(st.integers(0, len(videos) - 1))
        duration = videos[v][0] - 1 + videos[v][1]
        step = draw(st.sampled_from([0.5, 0.01])) if duration >= 0.5 else 0.01
        n_steps = int(duration / step)
        a = draw(st.integers(0, n_steps - 1))
        clips.append((v, a * step, draw(st.integers(a + 1, n_steps)) * step))
    clips += draw(st.lists(st.sampled_from(clips), max_size=3))  # duplicate refs
    seg_len = draw(st.sampled_from([0.3, 0.5, 1.0, 1.3, 2.0, 8.0, 9.5]))
    budget = draw(st.sampled_from([None, 1, 12, 40]))
    return (d, draw(st.integers(0, 2**32 - 1)), videos, clips, seg_len,
            draw(st.integers(0, len(clips))), budget)


def block_store(d, seed, videos):
    rng = np.random.default_rng(seed)
    store = FeatureStore()
    for v, (n_rows, last_len) in enumerate(videos):
        # mixed magnitudes, so a change in summation order shows in the bits
        rows = rng.standard_normal((n_rows, d)) * 10.0 ** rng.integers(-3, 4, (n_rows, d))
        store.videos[f"v{v}"] = VideoRecord(f"v{v}", n_rows - 1 + last_len, rows.astype(np.float32))
    return store


def budget_patch(budget, d):
    """Pooling blocks of `budget` float32 rows of width d (1: one clip a block);
    None keeps the module's budget."""
    if budget is None:
        return contextlib.nullcontext()
    return mock.patch.object(corpus, "_POOL_BLOCK_BYTES", 4 * d * budget)


BLOCK_EXAMPLES = [
    (1, 0, [(30, 1.0)], [(0, 0.0, 29.5), (0, 3.0, 14.0)], 1.0, 0, None),  # d=1, >= 8 segments
    (1, 1, [(30, 0.5)], [(0, 0.0, 29.5), (0, 0.5, 20.0)], 8.0, 0, 1),    # d=1, >= 8 rows a segment
    (2, 2, [(8, 1.0), (5, 0.25)], [(0, 7.0, 7.4), (1, 2.3, 2.6), (1, 0.5, 4.25)], 1.0, 1, 1),
    (5, 3, [(12, 0.6), (3, 1.0)], [(0, 0.37, 11.6), (1, 0.0, 3.0), (0, 1.5, 7.5)], 1.3, 2, 12),
]


@settings(max_examples=300, deadline=None)
@given(block_cases())
@example(BLOCK_EXAMPLES[0])
@example(BLOCK_EXAMPLES[1])
@example(BLOCK_EXAMPLES[2])
@example(BLOCK_EXAMPLES[3])
def test_clip_means_match_row_loop(case):
    d, seed, videos, clips, seg_len, n_before, budget = case
    store = block_store(d, seed, videos)
    refs = [ClipRef(f"v{v}", Interval(a, b)) for v, a, b in clips]
    expect = [
        segment_features_ref(store, ref.video_id, segment_grid(ref.interval, seg_len)).mean(axis=0)
        for ref in refs
    ]
    with budget_patch(budget, d):
        for ref in refs[:n_before]:  # earlier calls leave no state behind
            clip_means(store, [ref], seg_len)[0]
        got = clip_means(store, refs, seg_len)
    assert got.shape == (len(refs), d) and got.dtype == np.float32
    for ref, row, want in zip(refs, got, expect):
        assert np.array_equal(row, want)
        assert np.array_equal(clip_means(store, [ref], seg_len)[0], want)


@settings(max_examples=150, deadline=None)
@given(block_cases())
@example(BLOCK_EXAMPLES[0])
@example(BLOCK_EXAMPLES[1])
@example(BLOCK_EXAMPLES[2])  # one-segment clips beside longer ones
@example(BLOCK_EXAMPLES[3])
def test_edit_all_pools_like_row_loop(case):
    d, seed, videos, clips, seg_len, _, budget = case
    store = block_store(d, seed, videos)
    assignment = {f"c{i:02d}": ClipRef(f"v{v}", Interval(a, b)) for i, (v, a, b) in enumerate(clips)}
    for cid in assignment:
        store.caption_features[cid] = np.ones(d, dtype=np.float32)
    seen, real = [], editor._pool_blocks

    def record(*args):  # each clip's rows of each block the editor pools
        for lo, hi, segs, first in real(*args):
            seen.extend(np.split(segs.copy(), first[1:]))
            yield lo, hi, segs, first
    with budget_patch(budget, d), mock.patch.object(editor, "_pool_blocks", record):
        edit_all(EncoderParams.identity(d), store, assignment, EditConfig(k=3, seg_len_s=seg_len))
    grids = [(ref, segment_grid(ref.interval, seg_len)) for _, ref in sorted(assignment.items())]
    expect = [segment_features_ref(store, ref.video_id, g) for ref, g in grids]
    assert len(seen) == len(expect)
    for got, want in zip(seen, expect):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("budget", [128, 256])
def test_short_segments_keep_blocks_in_budget(budget):
    # at seg_len_s = 0.1 a clip has about ten segments per row of its span;
    # a block of two or more clips must still hold its segment rows in budget
    store = block_store(4, 5, [(30, 1.0), (12, 0.5)])
    refs = [ClipRef(f"v{i % 2}", Interval(0.25 * i, 0.25 * i + 3.0 + i % 4)) for i in range(12)]
    blocks, real = [], corpus._pool_block

    def record(recs, *args):
        segs, first = real(recs, *args)
        blocks.append((len(recs), segs.nbytes))
        return segs, first
    with budget_patch(budget, 4), mock.patch.object(corpus, "_pool_block", record):
        got = clip_means(store, refs, 0.1)
    assert any(n > 1 for n, _ in blocks)
    for n, nbytes in blocks:
        assert n == 1 or nbytes <= 4 * 4 * budget
    for ref, row in zip(refs, got):
        grid = segment_grid(ref.interval, 0.1)
        assert np.array_equal(row, segment_features_ref(store, ref.video_id, grid).mean(axis=0))


class TestBlockPoolingErrors:
    STORE_ROWS = {"v1": np.arange(24, dtype=np.float32).reshape(8, 3)}

    def test_unknown_video_and_outside_span_keep_their_messages(self):
        store = make_store(self.STORE_ROWS)
        good = ClipRef("v1", Interval(0.0, 4.0))
        with pytest.raises(ValueError, match=r"^unknown video_id 'vX'$"):
            clip_means(store, [good, ClipRef("vX", Interval(0.0, 2.0))])
        with pytest.raises(ValueError, match=r"^grid \[5.0, 9.5\] outside video v1 span \[0, 8.0\]$"):
            clip_means(store, [good, ClipRef("v1", Interval(5.0, 9.5))])

    def test_video_span_is_the_pooling_span_and_keeps_its_message(self):
        store = make_store(self.STORE_ROWS)
        assert store.video_span("v1") == Interval(0.0, 8.0)
        with pytest.raises(ValueError, match=r"^unknown video_id 'vX'$"):
            store.video_span("vX")

    @pytest.mark.parametrize("budget", [None, 1])
    def test_edit_all_names_the_first_failing_caption(self, budget):
        store = make_store(self.STORE_ROWS)
        clips = {
            "c3": ClipRef("vX", Interval(0.0, 4.0)),
            "c1": ClipRef("v1", Interval(0.0, 4.0)),
            "c4": ClipRef("v1", Interval(6.0, 12.0)),
            "c2": ClipRef("v1", Interval(5.0, 9.5)),
        }
        for cid in clips:
            store.caption_features[cid] = np.ones(3, dtype=np.float32)
        teacher, cfg = EncoderParams.identity(3), EditConfig(k=3)
        with budget_patch(budget, 3):
            with pytest.raises(ValueError, match=r"^editing caption 'c2': grid \[5.0, 9.5\] outside"):
                edit_all(teacher, store, clips, cfg)
            del clips["c2"]
            with pytest.raises(ValueError, match=r"^editing caption 'c3': unknown video_id 'vX'$"):
                edit_all(teacher, store, clips, cfg)

    def test_edit_all_checks_one_segment_clips_too(self):
        store = make_store(self.STORE_ROWS, {"c1": np.ones(3)})
        with pytest.raises(ValueError, match=r"^editing caption 'c1': unknown video_id 'vX'$"):
            edit_all(EncoderParams.identity(3), store, {"c1": ClipRef("vX", Interval(0.0, 1.5))},
                     EditConfig(k=3))


OUTPUT_WRITERS = {
    "feat_matrix": lambda p: write_feat_matrix(p, np.ones((2, 3))),
    "annotations": lambda p: write_annotations(p, []),
    "checkpoint": lambda p: save_checkpoint(p, EncoderParams.identity(4)),
    "edits": lambda p: write_edits(p, []),
    "metrics": lambda p: write_metrics(p, RetrievalMetrics({1: 1.0, 5: 1.0, 10: 1.0}, 1.0, 1), "gt"),
    "iou_hist": lambda p: write_iou_hist(p, iou_histogram([(Interval(0.0, 1.0), Interval(0.0, 2.0))])),
    "atomic_write": lambda p: atomic_write(p, "value,r1\r\n"),
}


@pytest.mark.parametrize("write", OUTPUT_WRITERS.values(), ids=OUTPUT_WRITERS.keys())
def test_failed_replace_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    path.write_bytes(b"old contents")

    def failing_replace(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing_replace)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot write: disk full$"):
            write(path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    write(path)  # and with a working os.replace the new file lands whole
    assert path.read_bytes() != b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
