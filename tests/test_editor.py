import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clipedit import editor
from clipedit.corpus import ClipRef, FeatureStore, VideoRecord, segment_features
from clipedit.editor import (
    EditConfig,
    consensus_argmax,
    consensus_select,
    edit_all,
    edit_clip,
    edit_from_sims,
    enumerate_candidates,
    segment_similarities,
    top_k_segments,
    write_edits,
)
from clipedit.encoder import EncoderParams
from clipedit.timeline import Interval, iou, segment_grid

from oracles import consensus_ref, edit_ref, topk_ref


def unit_grid(n):
    return segment_grid(Interval(0.0, float(n)), 1.0)


class TestTopK:
    def test_basic(self):
        assert top_k_segments(np.array([0.1, 0.9, 0.3, 0.7]), 2) == [1, 3]

    def test_tie_breaks_to_lower_index(self):
        assert top_k_segments(np.array([0.5, 0.5, 0.5]), 2) == [0, 1]

    def test_k_at_least_length_returns_all(self):
        assert top_k_segments(np.array([0.3, 0.1, 0.2]), 7) == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_k_segments(np.array([]), 2)

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=15))
    def test_matches_reference(self, sims, k):
        assert top_k_segments(np.array(sims), k) == topk_ref(sims, k)


class TestEnumerateCandidates:
    def test_three_indices_give_lexicographic_pairs(self):
        got = enumerate_candidates([2, 5, 7], unit_grid(9))
        assert [(p, (iv.start_s, iv.end_s)) for p, iv in got] == [
            ((2, 5), (2.0, 6.0)), ((2, 7), (2.0, 8.0)), ((5, 7), (5.0, 8.0)),
        ]

    def test_adjacent_pair(self):
        got = enumerate_candidates([0, 1], unit_grid(4))
        assert len(got) == 1
        assert got[0][1] == Interval(0.0, 2.0)

    def test_single_index_empty(self):
        assert enumerate_candidates([3], unit_grid(6)) == []

    def test_count_is_m_choose_2(self):
        got = enumerate_candidates([0, 2, 4, 6, 8], unit_grid(10))
        assert len(got) == math.comb(5, 2)

    def test_last_segment_absorbs_remainder(self):
        grid = segment_grid(Interval(0.0, 4.5), 1.0)
        got = enumerate_candidates([0, 3], grid)
        assert got[0][1] == Interval(0.0, 4.5)


class TestConsensus:
    def test_three_candidate_scores_and_winner(self):
        cands = [iv for _, iv in enumerate_candidates([2, 5, 7], unit_grid(9))]
        # oracle-computed pairwise-IoU sums (self term included):
        # [2,6] -> 11/6, [2,8] -> 13/6, [5,8] -> 5/3
        scores = [
            math.fsum(
                (lambda inter, ua, ub: 0.0 if inter <= 0 else inter / (ua + ub - inter))(
                    min(c.end_s, o.end_s) - max(c.start_s, o.start_s),
                    c.length_s, o.length_s,
                )
                for o in cands
            )
            for c in cands
        ]
        assert scores[0] == pytest.approx(11.0 / 6.0)
        assert scores[1] == pytest.approx(13.0 / 6.0)
        assert scores[2] == pytest.approx(5.0 / 3.0)
        assert consensus_select(cands) == Interval(2.0, 8.0)

    def test_shared_topk_triplet_winner(self):
        # candidates from indices [0,1,2] on a unit grid; [0,3] dominates
        # ([0,2] and [1,3] tie below it with equal scores)
        cands = [iv for _, iv in enumerate_candidates([0, 1, 2], unit_grid(3))]
        assert [(c.start_s, c.end_s) for c in cands] == [(0, 2), (0, 3), (1, 3)]
        assert consensus_select(cands) == Interval(0.0, 3.0)
        assert consensus_ref([(0.0, 2.0), (0.0, 3.0), (1.0, 3.0)]) == 1

    def test_single_candidate(self):
        assert consensus_select([Interval(4.0, 9.0)]) == Interval(4.0, 9.0)

    def test_tie_prefers_longer(self):
        # both score 1 + IoU([0,2],[0,3]); the longer interval wins
        cands = [Interval(0.0, 2.0), Interval(0.0, 3.0)]
        assert consensus_select(cands) == Interval(0.0, 3.0)

    def test_tie_prefers_earlier_start_at_equal_length(self):
        cands = [Interval(1.0, 3.0), Interval(0.0, 2.0)]
        assert consensus_select(cands) == Interval(0.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            consensus_select([])

    def test_contiguous_run_full_span_only_up_to_five(self):
        # Over all pairs of a contiguous unit run, the summed-IoU argmax is
        # the full span for m <= 5 but a central sub-interval for m >= 6:
        # mid intervals overlap more of the candidate set. This bounds what
        # the editor can recover exactly, so freeze it.
        def winner(m):
            cands = [Interval(float(a), float(b + 1))
                     for a in range(m) for b in range(a, m) if a < b]
            return consensus_select(cands)

        for m in range(2, 6):
            assert winner(m) == Interval(0.0, float(m)), m
        assert winner(6) == Interval(1.0, 5.0)
        assert winner(9) == Interval(1.0, 8.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle(self, seed):
        # fractional origins and non-unit segments make the float rounding
        # of candidate bounds differ from the whole-second case
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(2, 10))
        seg_len = float(rng.choice([0.5, 0.7, 1.0, 1.3]))
        origin = float(rng.integers(0, 5000)) / 100.0
        end = origin + n * seg_len + float(rng.uniform(0.0, seg_len))
        grid = segment_grid(Interval(origin, end), seg_len)
        top = topk_ref(rng.standard_normal(grid.n_segments), k)
        cands = [iv for _, iv in enumerate_candidates(top, grid)]
        got = consensus_argmax(cands)
        want = consensus_ref([(c.start_s, c.end_s) for c in cands])
        assert got == want

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_self_term_does_not_change_argmax(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        top = topk_ref(rng.standard_normal(n), int(rng.integers(2, 8)))
        cands = [(iv.start_s, iv.end_s) for _, iv in enumerate_candidates(top, unit_grid(n))]

        def score(j, include_self):
            return math.fsum(
                (lambda inter, ua, ub: 0.0 if inter <= 0 else inter / (ua + ub - inter))(
                    min(cands[j][1], cands[k][1]) - max(cands[j][0], cands[k][0]),
                    cands[j][1] - cands[j][0], cands[k][1] - cands[k][0],
                )
                for k in range(len(cands)) if include_self or k != j
            )

        with_self = [score(j, True) for j in range(len(cands))]
        without = [score(j, False) for j in range(len(cands))]
        assert np.argmax(with_self) == np.argmax(without)


def make_recovery_store(n_rows=10, gt_lo=3, gt_hi=6, d=8):
    """Rows gt_lo..gt_hi equal the caption's latent; the rest are
    orthogonal one-hot distractors."""
    rows = np.zeros((n_rows, d), dtype=np.float32)
    u = np.zeros(d)
    u[0] = 1.0
    for i in range(n_rows):
        if gt_lo <= i <= gt_hi:
            rows[i] = u
        else:
            rows[i, 1 + (i % (d - 1))] = 1.0
    store = FeatureStore()
    store.videos["v1"] = VideoRecord("v1", float(n_rows), rows)
    store.caption_features["c1"] = u.astype(np.float32)
    return store


class TestEditClip:
    def test_zero_noise_recovers_gt_span(self):
        store = make_recovery_store()
        res = edit_clip(
            EncoderParams.identity(8), store, "c1",
            ClipRef("v1", Interval(0.0, 10.0)), EditConfig(k=4),
        )
        assert res.topk_indices == (3, 4, 5, 6)
        assert res.edited == Interval(3.0, 7.0)
        assert res.applied and res.winner_pair == (3, 6)

    def test_single_segment_passthrough(self):
        store = make_recovery_store()
        res = edit_clip(
            EncoderParams.identity(8), store, "c1",
            ClipRef("v1", Interval(4.0, 5.5)), EditConfig(k=4),
        )
        assert res.n_segments == 1
        assert res.edited == res.initial and not res.applied

    @pytest.mark.parametrize("clip", [Interval(4.0, 5.5), Interval(0.0, 10.0)], ids=["one", "ten"])
    def test_zero_norm_caption_raises_for_every_clip(self, clip):
        store = make_recovery_store()
        store.caption_features["c1"] = np.zeros(8, dtype=np.float32)
        with pytest.raises(ValueError, match=r"^editing caption 'c1': degenerate embedding"):
            edit_clip(EncoderParams.identity(8), store, "c1", ClipRef("v1", clip), EditConfig(k=4))

    def test_gate_one_rejects_changed_boundary(self):
        store = make_recovery_store()
        res = edit_clip(
            EncoderParams.identity(8), store, "c1",
            ClipRef("v1", Interval(0.0, 10.0)), EditConfig(k=4, iou_gate=1.0),
        )
        assert res.edited == res.initial and not res.applied
        assert res.winner_pair == (3, 6)  # the rejected winner is still recorded

    def test_k_one_never_edits(self):
        store = make_recovery_store()
        res = edit_clip(
            EncoderParams.identity(8), store, "c1",
            ClipRef("v1", Interval(0.0, 10.0)), EditConfig(k=1),
        )
        assert res.edited == res.initial and not res.applied
        assert res.winner_pair is None

    def test_unknown_caption(self):
        store = make_recovery_store()
        with pytest.raises(ValueError, match="no caption features"):
            edit_clip(
                EncoderParams.identity(8), store, "cX",
                ClipRef("v1", Interval(0.0, 10.0)), EditConfig(),
            )


class TestEditFromSims:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_editor(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        k = int(rng.integers(2, 16))
        gate = float(rng.uniform(0.0, 1.0))
        sims = rng.standard_normal(n)
        clip = Interval(0.0, float(n))
        got_iv, got_applied, _, _ = edit_from_sims(
            sims, unit_grid(n), clip, EditConfig(k=k, iou_gate=gate)
        )
        ref_iv, ref_applied = edit_ref(sims, k, (0.0, float(n)), 1.0, gate)
        assert (got_iv.start_s, got_iv.end_s) == ref_iv
        assert got_applied == ref_applied

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_edited_contained_in_initial(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        start = float(rng.uniform(0, 50))
        clip = Interval(start, start + n * 0.7)
        grid = segment_grid(clip, 0.7)
        sims = rng.standard_normal(grid.n_segments)
        edited, _, _, _ = edit_from_sims(sims, grid, clip, EditConfig(k=int(rng.integers(2, 12))))
        assert clip.start_s <= edited.start_s < edited.end_s <= clip.end_s

    def test_k_past_int64_equals_k_at_the_score_count(self):
        sims = np.random.default_rng(0).standard_normal(7)
        initial = Interval(0.0, 7.0)
        assert (edit_from_sims(sims, unit_grid(7), initial, EditConfig(k=10**21))
                == edit_from_sims(sims, unit_grid(7), initial, EditConfig(k=7)))

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        sims = rng.standard_normal(n)
        cfg = EditConfig(k=int(rng.integers(2, 10)))
        clip = Interval(0.0, float(n))
        base = edit_from_sims(sims, unit_grid(n), clip, cfg)
        scaled = edit_from_sims(sims * 4.0, unit_grid(n), clip, cfg)  # exact in floats
        cubed = edit_from_sims(sims**3, unit_grid(n), clip, cfg)
        assert base == scaled == cubed

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_gate_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        sims = rng.standard_normal(n)
        clip = Interval(0.0, float(n))
        applied = []
        for gate in (0.0, 0.3, 0.6, 0.9, 1.0):
            _, a, _, _ = edit_from_sims(
                sims, unit_grid(n), clip, EditConfig(k=6, iou_gate=gate)
            )
            applied.append(a)
        # once the gate rejects, higher gates keep rejecting
        assert applied == sorted(applied, reverse=True)


class TestEditAll:
    def build(self, n_videos=3):
        rng = np.random.default_rng(0)
        store = FeatureStore()
        clips = {}
        for v in range(n_videos):
            vid = f"v{v}"
            rows = rng.standard_normal((12, 6)).astype(np.float32)
            store.videos[vid] = VideoRecord(vid, 12.0, rows)
            for c in range(2):
                cid = f"{vid}_c{c}"
                store.caption_features[cid] = rng.standard_normal(6).astype(np.float32)
                clips[cid] = ClipRef(vid, Interval(float(c), float(c + 8)))
        return store, clips

    def test_empty(self):
        store, _ = self.build()
        new, results = edit_all(EncoderParams.identity(6), store, {}, EditConfig())
        assert new == {} and results == []

    def test_zero_gate_applies_everywhere(self):
        store, clips = self.build()
        _, results = edit_all(EncoderParams.identity(6), store, clips, EditConfig(k=5, iou_gate=0.0))
        assert all(r.applied for r in results)

    def test_rerun_identical(self):
        store, clips = self.build()
        p = EncoderParams.init_random(6, rng=np.random.default_rng(1))
        out1 = edit_all(p, store, clips, EditConfig(k=5))
        out2 = edit_all(p, store, clips, EditConfig(k=5))
        assert out1 == out2

    def test_k_past_int64_equals_k_at_the_segment_count(self):
        store, clips = self.build(n_videos=20)  # 40 clips, each of 8 one-second segments
        p = EncoderParams.init_random(6, rng=np.random.default_rng(1))
        plans = []
        for cfg in (EditConfig(k=10**21), EditConfig(k=8)):
            with patch.object(editor, "_decide", wraps=editor._decide) as decide:
                out = edit_all(p, store, clips, cfg)
            plans.append(([len(call.args[0]) for call in decide.call_args_list], out))
        # the same results from the same `_decide` blocks: at k = 8 one block holds all 40 captions
        assert plans[0] == plans[1] and plans[1][0] == [40]

    def test_results_ordered_by_caption_id(self):
        store, clips = self.build()
        _, results = edit_all(EncoderParams.identity(6), store, clips, EditConfig())
        ids = [r.caption_id for r in results]
        assert ids == sorted(ids)

    def test_error_names_caption(self):
        store, clips = self.build()
        del store.caption_features["v0_c0"]
        with pytest.raises(ValueError, match="v0_c0"):
            edit_all(EncoderParams.identity(6), store, clips, EditConfig())


def reference_edit(teacher, store, caption_id, ref, cfg):
    """One caption edited with the public reference steps, one at a time."""
    grid = segment_grid(ref.interval, cfg.seg_len_s)
    if grid.n_segments < 2:
        return ref.interval, False, grid.n_segments, (0,), None
    seg_feats = segment_features(store, ref.video_id, grid)
    sims = segment_similarities(teacher, seg_feats, store.caption_features[caption_id])
    topk = top_k_segments(sims, cfg.k)
    if len(topk) < 2:
        return ref.interval, False, grid.n_segments, tuple(topk), None
    cands = enumerate_candidates(topk, grid)
    pair, edited = cands[consensus_argmax([iv for _, iv in cands])]
    applied = iou(ref.interval, edited) >= cfg.iou_gate
    return edited if applied else ref.interval, applied, grid.n_segments, tuple(topk), pair


class TestBlockEditor:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        seg_len=st.sampled_from([0.5, 0.7, 1.0, 1.3]),
        k=st.integers(min_value=1, max_value=14),
        gate=st.sampled_from([0.0, 0.4, 0.8]),
        per_block=st.sampled_from([1, 2, 3, None]),
    )
    @settings(max_examples=150, deadline=None)
    # one block of clips of 2, 1, 1, 13, 2, 12 and 1 segments
    @example(seed=0, seg_len=1.0, k=4, gate=0.0, per_block=None)
    def test_matches_reference_steps(self, seed, seg_len, k, gate, per_block):
        rng = np.random.default_rng(seed)
        d = 6
        # every row is one of three palette rows, so pooled segments repeat
        # and their scores tie
        palette = rng.standard_normal((3, d)).astype(np.float32)
        store = FeatureStore()
        store.videos["v"] = VideoRecord("v", 40.0, palette[rng.integers(0, 3, size=40)])
        clips = {}
        for c in range(7):
            cid = f"c{c}"
            store.caption_features[cid] = rng.standard_normal(d).astype(np.float32)
            origin = float(rng.integers(0, 2500)) / 100.0  # fractional grid origins
            length = float(rng.choice([0.3, rng.uniform(0.5, 2.5), rng.uniform(2.0, 14.0)]))
            clips[cid] = ClipRef("v", Interval(origin, origin + length))
        teacher = EncoderParams.init_random(d, rng=np.random.default_rng(seed + 1))
        cfg = EditConfig(k=k, seg_len_s=seg_len, iou_gate=gate)
        # blocks are sized for the largest Top-K the clips can have
        top = min(k, max(segment_grid(ref.interval, seg_len).n_segments for ref in clips.values()))
        c = max(1, top * (top - 1) // 2)
        budget = 8 * c * c * per_block if per_block else editor._IOU_BLOCK_BYTES
        with patch.object(editor, "_IOU_BLOCK_BYTES", budget), \
                patch.object(editor, "_decide", wraps=editor._decide) as decide:
            new_clips, results = edit_all(teacher, store, clips, cfg)
        assert decide.call_count == (-(-len(clips) // per_block) if per_block else 1)
        for r in results:
            want = reference_edit(teacher, store, r.caption_id, clips[r.caption_id], cfg)
            got = (r.edited, r.applied, r.n_segments, r.topk_indices, r.winner_pair)
            assert got == want
            assert edit_clip(teacher, store, r.caption_id, clips[r.caption_id], cfg) == r
            assert new_clips[r.caption_id] == ClipRef("v", r.edited)

    def test_exact_tie_falls_back_to_consensus_argmax(self):
        # all five unit segments kept: [0,4], [0,5] and [1,5] tie exactly,
        # and the longer [0,5] wins the tie-break
        with patch.object(editor, "consensus_argmax", wraps=consensus_argmax) as spy:
            edited, applied, topk, pair = edit_from_sims(
                np.zeros(5), unit_grid(5), Interval(0.0, 5.0), EditConfig(k=5)
            )
        assert spy.call_count == 1
        assert (edited, applied, topk, pair) == (Interval(0.0, 5.0), True, (0, 1, 2, 3, 4), (0, 4))

    def test_clear_winner_skips_consensus_argmax(self):
        with patch.object(editor, "consensus_argmax", wraps=consensus_argmax) as spy:
            res = edit_clip(
                EncoderParams.identity(8), make_recovery_store(), "c1",
                ClipRef("v1", Interval(0.0, 10.0)), EditConfig(k=4),
            )
        assert spy.call_count == 0
        assert res.edited == Interval(3.0, 7.0) and res.winner_pair == (3, 6)

    def test_more_scores_than_segments_raises_like_enumerate_candidates(self):
        sims = np.array([0.0, 0.9, 0.2, 0.8, 0.7])  # Top-3 (1, 3, 4) on a 3-segment grid
        with pytest.raises(IndexError, match=r"segment index 3 out of range \[0, 3\)"):
            enumerate_candidates(top_k_segments(sims, 3), unit_grid(3))
        with pytest.raises(IndexError, match=r"segment index 3 out of range \[0, 3\)"):
            edit_from_sims(sims, unit_grid(3), Interval(0.0, 3.0), EditConfig(k=3))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_nan_scores_keep_top_k_segments_order(self, k):
        sims = np.array([0.2, np.nan, 0.9, np.nan, 0.1, 0.5])
        _, _, topk, _ = edit_from_sims(sims, unit_grid(6), Interval(0.0, 6.0), EditConfig(k=k))
        assert topk == tuple(top_k_segments(sims, k))


class TestWriteEdits:
    def test_jsonl_shape(self, tmp_path):
        store = make_recovery_store()
        res = edit_clip(
            EncoderParams.identity(8), store, "c1",
            ClipRef("v1", Interval(0.0, 10.0)), EditConfig(k=4),
        )
        path = tmp_path / "edits.jsonl"
        write_edits(path, [res])
        obj = json.loads(path.read_text().strip())
        assert obj == {
            "caption_id": "c1",
            "initial": [0.0, 10.0],
            "edited": [3.0, 7.0],
            "applied": True,
            "n_segments": 10,
            "topk_indices": [3, 4, 5, 6],
            "winner_pair": [3, 6],
        }


class TestEditConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EditConfig(k=0)
        with pytest.raises(ValueError):
            EditConfig(iou_gate=1.5)
        with pytest.raises(ValueError):
            EditConfig(seg_len_s=0.0)

    def test_seg_len_below_floor_rejected(self):
        with pytest.raises(ValueError, match=r"^seg_len_s must be >= 0\.01, got 1e-06$"):
            EditConfig(seg_len_s=1e-6)
