import copy
import itertools
import math
import pickle
import re
import tracemalloc
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clipedit import encoder
from clipedit.corpus import SynthConfig, clip_features, read_f32, synth_corpus, write_f32
from clipedit.cotrain import build_initial_assignment
from clipedit.encoder import (
    _TENSORS,
    AdamState,
    EncoderParams,
    NumericError,
    TrainConfig,
    embed_caption,
    embed_captions,
    embed_clip,
    embed_clips,
    info_nce,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    similarity,
    train_epoch,
    _info_nce,
    _segment_scores,
    _train_epoch,
    _unit,
    _views,
)
from clipedit.timeline import InitStrategy

from oracles import fd_grads, rel_err, _loss_ref


def random_params(rng, d, dtype=np.float64):
    return EncoderParams.init_random(d, rng=rng, dtype=dtype)


def _normalized_ref(z):
    """The one-item embedding's last step as first written: z / ||z||."""
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _per_row_embeddings(rows, W, b):
    """The embedding rule as first written: a loop of one `row @ W.T` per row, then z / ||z||."""
    Wt = W.T
    projected = [row @ Wt for row in rows]
    if not projected:
        return np.empty((0, W.shape[0]), dtype=np.result_type(W, b))
    return _normalized_ref(np.array(projected) + b)


def huge_row(d, dtype=np.float32):
    """±3e38 entries: finite float32 whose projection or norm overflows."""
    return (3e38 * (-1.0) ** np.arange(d)).astype(dtype)


class TestEncoderParams:
    def test_init_random_bounds_and_zero_bias(self):
        p = random_params(np.random.default_rng(0), 25)
        bound = 1 / math.sqrt(25)
        assert np.all(np.abs(p.W_v) <= bound) and np.all(np.abs(p.W_c) <= bound)
        assert np.all(p.b_v == 0) and np.all(p.b_c == 0)
        assert p.tau == 0.07

    def test_copy_is_deep(self):
        p = random_params(np.random.default_rng(0), 4)
        q = p.copy()
        q.W_v[0, 0] += 1.0
        assert p.W_v[0, 0] != q.W_v[0, 0]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"^W_c shape \(4, 4\) != \(3, 3\)$"):
            EncoderParams(np.eye(3), np.zeros(3), np.eye(4), np.zeros(4))
        with pytest.raises(ValueError, match=r"^b_c shape \(1,\) != \(3,\)$"):
            EncoderParams(np.eye(3), np.zeros(3), np.eye(3), np.zeros(1))

    def test_tau_positive(self):
        with pytest.raises(ValueError, match="tau"):
            EncoderParams(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), tau=0.0)

    @pytest.mark.parametrize("name", ["b_v", "W_c", "b_c"])
    def test_mixed_dtypes_rejected_naming_the_tensor(self, name):
        tensors = {"W_v": np.eye(2), "b_v": np.zeros(2), "W_c": np.eye(2), "b_c": np.zeros(2)}
        tensors[name] = tensors[name].astype(np.float32)
        with pytest.raises(ValueError, match=f"^{name} dtype float32 != W_v dtype float64$"):
            EncoderParams(**tensors)

    @pytest.mark.parametrize("d_out,d_in", [(5, 5), (3, 6), (32, 32)])
    def test_tensors_are_back_to_back_views_of_one_buffer(self, d_out, d_in):
        p = EncoderParams.init_random(d_in, d_out, rng=np.random.default_rng(0))
        starts = [getattr(p, name).__array_interface__["data"][0] - p._buf.ctypes.data for name in _TENSORS]
        sizes = [getattr(p, name).nbytes for name in _TENSORS]
        assert starts == [sum(sizes[:i]) for i in range(4)] and p._buf.nbytes == sum(sizes)
        assert all(np.shares_memory(getattr(p, name), p._buf) for name in _TENSORS)
        w = np.full((d_out, d_in), 0.5, dtype=np.float32)
        p.W_c = w  # assigning copies into the buffer
        assert np.shares_memory(p.W_c, p._buf) and np.array_equal(p.W_c, w)
        for twin in (p.copy(), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin.equals(p) and not np.shares_memory(twin._buf, p._buf)
            assert all(np.shares_memory(getattr(twin, name), twin._buf) for name in _TENSORS)

    @pytest.mark.parametrize("d_out,d_in", [(0, 3), (3, 0), (0, 0)])
    def test_zero_dimension_rejected(self, d_out, d_in):
        # fails before zero dimensions were rejected: such params embedded every row as zero-norm
        W, b = np.zeros((d_out, d_in)), np.zeros(d_out)
        with pytest.raises(ValueError, match=f"^d_out and d_in must be >= 1, got d_out={d_out}, d_in={d_in}$"):
            EncoderParams(W, b, W, b)

    def test_nonfinite_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            EncoderParams(w, np.zeros(2), np.eye(2), np.zeros(2))


class TestEmbeddings:
    def test_identity_single_row(self):
        p = EncoderParams.identity(3)
        x = np.array([3.0, 0.0, 4.0])
        assert np.allclose(embed_clip(p, x[None, :]), x / 5.0)

    def test_meanpool_idempotent_on_identical_rows(self):
        p = random_params(np.random.default_rng(1), 5)
        x = np.random.default_rng(2).standard_normal(5)
        one = embed_clip(p, x[None, :])
        two = embed_clip(p, np.stack([x, x]))
        assert np.allclose(one, two)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 8)
        for _ in range(5):
            v = embed_clip(p, rng.standard_normal((4, 8)))
            c = embed_caption(p, rng.standard_normal(8))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6
            assert abs(np.linalg.norm(c) - 1.0) < 1e-6

    def test_caption_scale_invariance_with_zero_bias(self):
        p = random_params(np.random.default_rng(4), 6)
        x = np.random.default_rng(5).standard_normal(6)
        assert np.allclose(embed_caption(p, x), embed_caption(p, 3.0 * x))

    def test_identity_unit_input_fixed_point(self):
        p = EncoderParams.identity(4)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(embed_caption(p, x), x)

    def test_degenerate_embedding_errors(self):
        p = EncoderParams.identity(3)
        with pytest.raises(ValueError, match="degenerate"):
            embed_clip(p, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            embed_caption(p, np.zeros(3))

    @settings(max_examples=150, deadline=None)
    @given(
        d_in=st.integers(1, 70), d_out=st.integers(1, 70), n_seg=st.integers(1, 6),
        param_dtype=st.sampled_from([np.float32, np.float64]),
        feat_dtype=st.sampled_from([np.float32, np.float64]),
        scale=st.sampled_from([1e-4, 1.0, 1e4]), bias=st.sampled_from([0.0, 0.3, 5.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_item_embeddings_equal_direct_formula(
        self, d_in, d_out, n_seg, param_dtype, feat_dtype, scale, bias, seed
    ):
        rng = np.random.default_rng(seed)
        p = EncoderParams.init_random(d_in, d_out, rng=rng, dtype=param_dtype)
        p.b_v[:] = bias * rng.standard_normal(d_out)
        p.b_c[:] = bias * rng.standard_normal(d_out)
        segs = (scale * rng.standard_normal((n_seg, d_in))).astype(feat_dtype)
        cap = (scale * rng.standard_normal(d_in)).astype(feat_dtype)
        clip_ref = _normalized_ref(segs.mean(axis=0) @ p.W_v.T + p.b_v)
        cap_ref = _normalized_ref(cap @ p.W_c.T + p.b_c)
        clip, caption = embed_clip(p, segs), embed_caption(p, cap)
        assert clip.shape == clip_ref.shape and clip.dtype == clip_ref.dtype
        assert caption.shape == cap_ref.shape and caption.dtype == cap_ref.dtype
        assert np.array_equal(clip, clip_ref) and np.array_equal(caption, cap_ref)

    def test_embed_clip_needs_a_segment_matrix(self):
        p = EncoderParams.identity(3)
        for bad in (np.ones(3), np.ones((0, 3)), np.ones((1, 1, 3))):
            with pytest.raises(ValueError, match="n_segments >= 1"):
                embed_clip(p, bad)

    def test_similarity_trivials(self):
        u = np.array([1.0, 0.0])
        assert similarity(u, u) == 1.0
        assert similarity(u, np.array([0.0, 1.0])) == 0.0
        assert similarity(u, -u) == -1.0


class TestBatchedEmbeddings:
    @settings(max_examples=200, deadline=None)
    @given(
        d_in=st.integers(1, 70), d_out=st.integers(1, 70), n=st.integers(1, 40),
        param_dtype=st.sampled_from([np.float32, np.float64]),
        feat_dtype=st.sampled_from([np.float32, np.float64]),
        scale=st.sampled_from([1e-4, 1.0, 1e4]), bias=st.sampled_from([0.0, 0.3, 5.0]),
        offset=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_stacked_one_item_embeddings(
        self, d_in, d_out, n, param_dtype, feat_dtype, scale, bias, offset, seed
    ):
        rng = np.random.default_rng(seed)
        p = EncoderParams.init_random(d_in, d_out, rng=rng, dtype=param_dtype)
        p.b_v[:] = bias * rng.standard_normal(d_out)
        p.b_c[:] = bias * rng.standard_normal(d_out)
        X = (scale * rng.standard_normal((n, d_in))).astype(feat_dtype)
        if offset:  # rows that start off the allocator's alignment
            buf = np.empty(n * d_in + 1, dtype=feat_dtype)
            buf[1:] = X.ravel()
            X = buf[1:].reshape(n, d_in)
        clips_ref = np.stack([embed_clip(p, x[None]) for x in X])
        caps_ref = np.stack([embed_caption(p, x) for x in X])
        for rows in (X, list(X)):
            clips, caps = embed_clips(p, rows), embed_captions(p, rows)
            assert clips.dtype == clips_ref.dtype and np.array_equal(clips, clips_ref)
            assert caps.dtype == caps_ref.dtype and np.array_equal(caps, caps_ref)
            # and both equal the per-row loop, not only the one-row calls of themselves
            assert np.array_equal(clips, _per_row_embeddings(rows, p.W_v, p.b_v))
            assert np.array_equal(caps, _per_row_embeddings(rows, p.W_c, p.b_c))

    def test_empty(self):
        for dtype, rows in itertools.product([np.float32, np.float64], [[], np.zeros((0, 3))]):
            p = EncoderParams.identity(3, dtype=dtype)
            for embed, W, b in ((embed_clips, p.W_v, p.b_v), (embed_captions, p.W_c, p.b_c)):
                got, want = embed(p, rows), _per_row_embeddings(rows, W, b)
                assert got.shape == want.shape == (0, 3) and got.dtype == want.dtype == dtype

    def test_zero_norm_row_named_by_id(self):
        p = EncoderParams.identity(3)
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm clip 'b'"):
            embed_clips(p, rows, ["a", "b", "c"])
        with pytest.raises(ValueError, match="zero-norm caption 'b'"):
            embed_captions(p, rows, ["a", "b", "c"])
        with pytest.raises(ValueError, match="degenerate"):
            embed_clips(p, rows)

    @pytest.mark.parametrize("params", ["identity", "random"])
    def test_overflowing_row_named_by_id(self, params):
        # identity: the norm overflows; random: the projection itself overflows
        d = 8
        p = (EncoderParams.identity(d, dtype=np.float32) if params == "identity"
             else random_params(np.random.default_rng(0), d, dtype=np.float32))
        rows = np.stack([np.ones(d, dtype=np.float32), huge_row(d), np.ones(d, dtype=np.float32)])
        with pytest.raises(ValueError, match="degenerate embedding: non-finite-norm caption 'b'$"):
            embed_captions(p, rows, ["a", "b", "c"])
        with pytest.raises(ValueError, match="degenerate embedding: non-finite-norm clip 'b'$"):
            embed_clips(p, rows, ["a", "b", "c"])
        with pytest.raises(ValueError, match="degenerate embedding: non-finite-norm caption$"):
            embed_caption(p, rows[1])
        with pytest.raises(ValueError, match="degenerate embedding: non-finite-norm clip$"):
            embed_clip(p, rows[1:2])

    def test_nan_row_is_non_finite_not_zero(self):
        p = EncoderParams.identity(3)
        with pytest.raises(ValueError, match="non-finite-norm caption 'x'"):
            embed_captions(p, [np.array([np.nan, 0.0, 0.0])], ["x"])


class TestInfoNCE:
    def test_single_pair_loss_zero(self):
        p = EncoderParams.identity(3)
        x = np.array([1.0, 2.0, 2.0])
        loss, grads = info_nce(p, [x[None, :]], x[None, :])
        assert loss == 0.0
        for g in grads.values():
            assert np.allclose(g, 0.0)

    def test_two_identical_pairs_ln2(self):
        p = EncoderParams.identity(3)
        x = np.array([1.0, 2.0, 2.0])
        loss, _ = info_nce(p, [x[None, :], x[None, :]], np.stack([x, x]), with_grads=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params(rng, 5)
            clips = [rng.standard_normal((2, 5)) for _ in range(3)]
            caps = rng.standard_normal((3, 5))
            loss, _ = info_nce(p, clips, caps, with_grads=False)
            assert loss >= 0.0

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, 5)
        clips = [rng.standard_normal((2, 5)) for _ in range(4)]
        caps = rng.standard_normal((4, 5))
        base, _ = info_nce(p, clips, caps, with_grads=False)
        perm = [2, 0, 3, 1]
        shuffled, _ = info_nce(p, [clips[i] for i in perm], caps[perm], with_grads=False)
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_batch_size_mismatch(self):
        p = EncoderParams.identity(2)
        with pytest.raises(ValueError, match="mismatch"):
            info_nce(p, [np.ones((1, 2))], np.ones((2, 2)))

    @pytest.mark.parametrize("caps, i", [
        # caption i is the next clip's: term i is the only non-finite one
        *((np.eye(3)[[(j + 1) % 3 if j == i else j for j in range(3)]], i) for i in range(3)),
        # both positives anti-aligned: terms 0 and 1 are non-finite, and the first is named
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 0),
    ], ids=["only-0", "only-1", "only-2", "first-of-two"])
    def test_nonfinite_loss_names_batch_index(self, caps, i):
        # clip j is unit vector j; a vanishing temperature underflows the diagonal
        # softmax of a caption that misses its clip to zero
        B = len(caps)
        with pytest.raises(NumericError, match=rf"^non-finite loss contribution at batch index {i}$"):
            info_nce(EncoderParams.identity(B, tau=1e-9), [row[None] for row in np.eye(B)], caps)

    @pytest.mark.parametrize("name", ["W_v", "W_c"])
    def test_overflowing_norm_names_the_projection_and_batch_index(self, name):
        # finite float32 weights whose row-1 projection norm overflows; pytest turns
        # a RuntimeWarning into an error, so none may print
        p = EncoderParams.identity(4, dtype=np.float32)
        getattr(p, name)[:] *= np.float32(1e20)
        rows = np.array([np.full(4, 1e-25), np.ones(4), np.ones(4)], dtype=np.float32)
        with pytest.raises(NumericError, match=f"^non-finite norm of the {name} projection at batch index 1$"):
            info_nce(p, [r[None] for r in rows], rows)

    def test_matches_reference_loss(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng, 4)
            b = int(rng.integers(2, 6))
            clips = [rng.standard_normal((int(rng.integers(1, 4)), 4)) for _ in range(b)]
            caps = rng.standard_normal((b, 4))
            loss, _ = info_nce(p, clips, caps, with_grads=False)
            ref = _loss_ref(p.W_v, p.b_v, p.W_c, p.b_c, p.tau, clips, list(caps))
            assert loss == pytest.approx(ref, rel=1e-10)


class TestGradients:
    @pytest.mark.parametrize("batch,dim", [(2, 4), (3, 6), (5, 4)])
    def test_matches_finite_differences(self, batch, dim):
        rng = np.random.default_rng(batch * 100 + dim)
        p = random_params(rng, dim)
        clips = [rng.standard_normal((int(rng.integers(1, 4)), dim)) for _ in range(batch)]
        caps = rng.standard_normal((batch, dim))
        _, grads = info_nce(p, clips, caps)
        fd = fd_grads(p, clips, list(caps))
        for name in ("W_v", "b_v", "W_c", "b_c"):
            assert rel_err(fd[name], grads[name]) < 1e-4, name


class TestTrainEpoch:
    def _setup(self, seed=7):
        store, anns = synth_corpus(SynthConfig(
            n_train_videos=4, n_test_videos=0, captions_per_video=3,
            video_len_s=40.0, gt_len_range=(5.0, 8.0), dim=16,
            noise_sigma=0.0, caption_noise_sigma=0.0,
            align_gt_to_seconds=True, seed=seed,
        ))
        assign = build_initial_assignment(store, anns, InitStrategy("midpoint_neighbors"))
        return store, assign

    def test_zero_learning_rate_keeps_params(self):
        store, assign = self._setup()
        cfg = TrainConfig(batch_size=4, learning_rate=0.0, epochs=1, seed=0)
        p = random_params(np.random.default_rng(0), 16, dtype=np.float32)
        before = p.copy()
        _, loss = train_epoch(p, store, assign, cfg, np.random.default_rng(0))
        assert math.isfinite(loss) and loss > 0
        assert p.equals(before)

    def test_deterministic_given_seed(self):
        store, assign = self._setup()
        cfg = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=1, seed=0)
        outs = []
        for _ in range(2):
            p = random_params(np.random.default_rng(1), 16, dtype=np.float32)
            train_epoch(p, store, assign, cfg, np.random.default_rng(2))
            outs.append(p)
        assert outs[0].equals(outs[1])

    def test_single_pair_tail_batch_dropped(self):
        store, assign = self._setup()
        ids = sorted(assign)[:5]
        sub = {cid: assign[cid] for cid in ids}
        cfg = TrainConfig(batch_size=2, learning_rate=1e-3, seed=0)
        p = random_params(np.random.default_rng(0), 16, dtype=np.float32)
        opt = make_optimizer(cfg)
        train_epoch(p, store, sub, cfg, np.random.default_rng(0), opt)
        assert opt.t == 2  # batches of 2, 2; the lone trailing pair is skipped

    def test_partial_batch_of_two_kept(self):
        store, assign = self._setup()
        ids = sorted(assign)[:5]
        sub = {cid: assign[cid] for cid in ids}
        cfg = TrainConfig(batch_size=3, learning_rate=1e-3, seed=0)
        p = random_params(np.random.default_rng(0), 16, dtype=np.float32)
        opt = make_optimizer(cfg)
        train_epoch(p, store, sub, cfg, np.random.default_rng(0), opt)
        assert opt.t == 2  # batches of 3 and 2

    def test_loss_non_increasing_on_separable_data(self):
        store, assign = self._setup()
        cfg = TrainConfig(batch_size=6, learning_rate=0.5, epochs=1, optimizer="sgd", seed=0)
        p = random_params(np.random.default_rng(1), 16, dtype=np.float32)
        opt = make_optimizer(cfg)
        rng = np.random.default_rng(0)
        losses = [train_epoch(p, store, assign, cfg, rng, opt)[1] for _ in range(5)]
        assert all(b <= a for a, b in zip(losses, losses[1:])), losses

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("n_pairs", [12, 11])  # batches of 5, 5 and then 2 (kept) or 1 (dropped)
    def test_matches_per_batch_clip_matrix_loop(self, dtype, optimizer, n_pairs):
        store, assign = self._setup()
        ids = sorted(assign)[:n_pairs]
        sub = {cid: assign[cid] for cid in ids}
        for cid in ids[1:4]:  # three more captions on the first caption's clip
            sub[cid] = sub[ids[0]]
        cfg = TrainConfig(batch_size=5, learning_rate=1e-2, optimizer=optimizer, seed=0)
        p = random_params(np.random.default_rng(3), 16, dtype=dtype)
        ref = p.copy()
        opt, ref_opt = make_optimizer(cfg), make_optimizer(cfg)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            _, loss = train_epoch(p, store, sub, cfg, rng, opt)
            order = ref_rng.permutation(len(ids))
            losses = []
            for lo in range(0, len(order), cfg.batch_size):
                batch = [ids[i] for i in order[lo:lo + cfg.batch_size]]
                if len(batch) < 2:
                    continue
                clip_feats = [clip_features(store, sub[cid]) for cid in batch]
                cap_feats = np.stack([store.caption_features[cid] for cid in batch])
                batch_loss, grads = info_nce(ref, clip_feats, cap_feats)
                ref_opt.step(ref, grads)
                losses.append(batch_loss)
            assert len(losses) == (3 if n_pairs == 12 else 2)
            assert loss == float(np.mean(losses))
            assert p.equals(ref)
        assert not p.equals(random_params(np.random.default_rng(3), 16, dtype=dtype))

    def test_empty_assignment(self):
        store, _ = self._setup()
        cfg = TrainConfig(batch_size=4)
        p = random_params(np.random.default_rng(0), 16)
        _, loss = train_epoch(p, store, {}, cfg, np.random.default_rng(0))
        assert loss == 0.0


class TestTrainConfig:
    def test_batch_size_floor(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=1)

    def test_optimizer_name(self):
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="lion")

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


class TestWeightPlacement:
    @settings(max_examples=150, deadline=None)
    @given(
        d_in=st.integers(1, 70), d_out=st.integers(1, 70), n=st.integers(1, 12),
        dtype=st.sampled_from([np.float32, np.float64]), offset=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_do_not_depend_on_where_the_weights_sit(self, d_in, d_out, n, dtype, offset, seed):
        # the weight buffer is whatever array holds it (a `.cfp` payload as read), so no
        # product may change with its alignment; a BLAS that rounds by alignment fails here
        rng = np.random.default_rng(seed)
        p = EncoderParams.init_random(d_in, d_out, rng=rng, dtype=dtype)
        p.b_v[:] = 0.3 * rng.standard_normal(d_out)
        p.b_c[:] = 0.3 * rng.standard_normal(d_out)
        host = np.empty(offset + p._buf.size, dtype=dtype)
        host[offset:] = p._buf
        moved = EncoderParams._of(host[offset:], d_out, d_in, p.tau)
        X, C = (rng.standard_normal((n, d_in)).astype(np.float32) for _ in range(2))
        caps = embed_captions(p, C)
        assert np.array_equal(embed_clips(moved, X), embed_clips(p, X))
        assert np.array_equal(embed_captions(moved, C), caps)
        assert np.array_equal(_segment_scores(moved, X, caps), _segment_scores(p, X, caps))
        grads, moved_grads = np.zeros(p._buf.size), np.zeros(p._buf.size)
        assert _info_nce(moved, X, C, moved_grads) == _info_nce(p, X, C, grads)
        assert np.array_equal(moved_grads, grads)


class TestCheckpoints:
    def test_roundtrip_exact(self, tmp_path):
        p = random_params(np.random.default_rng(0), 5, dtype=np.float32)
        path = tmp_path / "m.cfp"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        assert q.equals(p)
        assert q.tau == p.tau

    def test_write_read_write_byte_identical(self, tmp_path):
        p = random_params(np.random.default_rng(1), 7, dtype=np.float32)
        p1, p2 = tmp_path / "a.cfp", tmp_path / "b.cfp"
        save_checkpoint(p1, p)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rectangular_projection(self, tmp_path):
        rng = np.random.default_rng(2)
        p = EncoderParams.init_random(6, d_out=3, rng=rng, dtype=np.float32)
        path = tmp_path / "m.cfp"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        assert q.W_v.shape == (3, 6) and q.equals(p)

    def test_zero_dimension_names_the_file(self, tmp_path):
        # fails before zero dimensions were rejected: a d_out = 0 file loaded, its payload empty
        path = tmp_path / "m.cfp"
        write_f32(path, encoder.CKPT_MAGIC, encoder._CKPT_HEADER, (4, 0, 0.07), [])
        message = f"{path}: d_out and d_in must be >= 1, got d_out=0, d_in=4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_loaded_weights_are_the_read_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "m.cfp"
        save_checkpoint(path, random_params(np.random.default_rng(4), 5, dtype=np.float32))
        payloads = []

        def spy(*args):
            fields, payload = read_f32(*args)
            payloads.append(payload)
            return fields, payload
        monkeypatch.setattr(encoder, "read_f32", spy)
        q = load_checkpoint(path)
        assert len(payloads) == 1 and q._buf is payloads[0]  # no second copy

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.cfp"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        p = random_params(np.random.default_rng(3), 4, dtype=np.float32)
        path = tmp_path / "m.cfp"
        save_checkpoint(path, p)
        full = path.read_bytes()
        for cut, message in ((full[:-4], "expected"), (full[:10], "truncated header")):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match=message):
                load_checkpoint(path)


# ------------------------------------------------- the per-tensor reference step
# The training step as written before the weights shared one buffer: four
# separate arrays, `_info_nce` allocating each gradient, and optimizers that
# replace each tensor with `setattr`. The flat step must repeat it bit for bit.


def _per_tensor_info_nce(params, means, cap_feats):
    B = len(means)
    tau = params.tau
    U, norm_v = _unit(means @ params.W_v.T + params.b_v)
    V, norm_c = _unit(cap_feats @ params.W_c.T + params.b_c)
    S = U @ V.T
    A = S / tau
    P = np.exp(A - A.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    Q = np.exp(A - A.max(axis=0, keepdims=True))
    Q /= Q.sum(axis=0, keepdims=True)
    diag = np.arange(B)
    loss = float((-0.5 / B * (np.log(P[diag, diag]) + np.log(Q[diag, diag]))).sum())
    dS = (P + Q - 2.0 * np.eye(B)) / (2.0 * B * tau)
    dU = dS @ V
    dV = dS.T @ U
    d_pooled = (dU - (dU * U).sum(axis=1, keepdims=True) * U) / norm_v
    d_zc = (dV - (dV * V).sum(axis=1, keepdims=True) * V) / norm_c
    return loss, {
        "W_v": d_pooled.T @ means,
        "b_v": d_pooled.sum(axis=0),
        "W_c": d_zc.T @ cap_feats,
        "b_c": d_zc.sum(axis=0),
    }


@dataclass
class AllocatingAdam:
    """Adam's step as first written: each moment update allocates a new array."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            p = getattr(params, name)
            if name not in self.m:
                self.m[name] = np.zeros_like(p, dtype=np.float64)
                self.v[name] = np.zeros_like(p, dtype=np.float64)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            setattr(params, name, (p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype))


@dataclass
class PerTensorSGD:
    lr: float = 1e-2

    def step(self, params, grads):
        for name, g in grads.items():
            p = getattr(params, name)
            setattr(params, name, (p - self.lr * g).astype(p.dtype))


def _per_tensor_epoch(params, pooled, caps, cfg, rng, optimizer) -> float:
    order = rng.permutation(len(caps))
    losses = []
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2:
            continue
        loss, grads = _per_tensor_info_nce(params, pooled[idx], caps[idx])
        optimizer.step(params, grads)
        losses.append(loss)
    return float(np.mean(losses))


def _train_rows_of(rng, n, d):
    """n pooled clip rows and n caption rows, float32 as the loaders give them."""
    return (rng.standard_normal((n, d)).astype(np.float32), rng.standard_normal((n, d)).astype(np.float32))


def _moments(params, opt):
    return _views(opt.m, params.d_out, params.d_in), _views(opt.v, params.d_out, params.d_in)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [5, 32])
    def test_in_place_moments_equal_allocating_step(self, dtype, d):
        rng = np.random.default_rng(d)
        p = random_params(rng, d, dtype=dtype)
        ref = p.copy()
        opt = AdamState(lr=1e-2, beta1=0.8, beta2=0.99)
        ref_opt = AllocatingAdam(lr=1e-2, beta1=0.8, beta2=0.99)
        for step in range(150):
            scale = 10.0 ** rng.integers(-6, 3)
            grads = {name: (scale * rng.standard_normal(getattr(p, name).shape)).astype(dtype)
                     for name in ("W_v", "b_v", "W_c", "b_c")}
            if step % 7 == 0:
                grads["b_c"][:] = 0.0
            opt.step(p, grads)
            ref_opt.step(ref, grads)
            assert p.equals(ref), step
        m, v = _moments(p, opt)
        for name in grads:
            assert np.array_equal(m[name], ref_opt.m[name])
            assert np.array_equal(v[name], ref_opt.v[name])

    def test_single_step_matches_hand_formula(self):
        p = EncoderParams(
            W_v=np.zeros((1, 1)), b_v=np.zeros(1), W_c=np.zeros((1, 1)), b_c=np.zeros(1)
        )
        opt = AdamState(lr=0.1)
        g = {"W_v": np.array([[2.0]]), "b_v": np.zeros(1),
             "W_c": np.zeros((1, 1)), "b_c": np.zeros(1)}
        opt.step(p, g)
        # bias-corrected first step moves by ~lr * sign(g)
        expect = -0.1 * 2.0 / (2.0 + 1e-8)
        assert p.W_v[0, 0] == pytest.approx(expect, rel=1e-9)

    def test_deep_copy_steps_identically_and_independently(self):
        rng = np.random.default_rng(11)
        p = random_params(rng, 5)
        opt = AdamState(lr=1e-2)

        def grads():
            return {name: rng.standard_normal(getattr(p, name).shape) for name in _TENSORS}

        for _ in range(3):
            opt.step(p, grads())
        q, twin = p.copy(), copy.deepcopy(opt)
        for _ in range(3):
            g = grads()
            opt.step(p, g)
            twin.step(q, g)
            assert p.equals(q)
        assert twin.t == opt.t
        assert np.array_equal(twin.m, opt.m) and np.array_equal(twin.v, opt.v)
        frozen = p.copy(), twin.m.copy(), twin.v.copy()
        opt.step(p, grads())
        assert q.equals(frozen[0]) and not p.equals(q)
        assert np.array_equal(twin.m, frozen[1]) and np.array_equal(twin.v, frozen[2])


class TestFlatStep:
    """`_train_epoch` over the flat buffer against the per-tensor reference step."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [5, 32])  # d = 5 starts b_v, W_c and b_c off any 64-byte boundary
    def test_equals_per_tensor_reference(self, d, dtype, optimizer):
        rng = np.random.default_rng(d)
        pooled, caps = _train_rows_of(rng, 70, d)  # batches of 32, 32 and 6
        cfg = TrainConfig(batch_size=32, learning_rate=1e-2, optimizer=optimizer)
        p = random_params(rng, d, dtype=dtype)
        ref = SimpleNamespace(**{name: getattr(p, name).copy() for name in _TENSORS}, tau=p.tau)
        opt = make_optimizer(cfg)
        ref_opt = AllocatingAdam(lr=cfg.learning_rate) if optimizer == "adam" else PerTensorSGD(cfg.learning_rate)
        for epoch in range(3):
            _, loss = _train_epoch(p, pooled, caps, cfg, np.random.default_rng(epoch), opt)
            assert loss == _per_tensor_epoch(ref, pooled, caps, cfg, np.random.default_rng(epoch), ref_opt)
            for name in _TENSORS:
                assert getattr(p, name).dtype == getattr(ref, name).dtype == dtype
                assert np.array_equal(getattr(p, name), getattr(ref, name)), (epoch, name)
            if optimizer == "adam":
                m, v = _moments(p, opt)
                assert opt.t == ref_opt.t
                assert all(np.array_equal(m[n], ref_opt.m[n]) and np.array_equal(v[n], ref_opt.v[n])
                           for n in _TENSORS)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("other,message", [
        ({"W_v": (2, 2), "b_v": (2,), "W_c": (2, 2), "b_c": (2,)}, r"W_v shape \(2, 2\) != \(3, 4\)"),
        ({"W_v": (3, 4), "b_v": (1,), "W_c": (3, 4), "b_c": (3,)}, r"b_v shape \(1,\) != \(3,\)"),
    ], ids=["another-encoder", "broadcastable-bias"])
    def test_gradients_of_another_shape_raise_before_any_update(self, optimizer, other, message):
        # [broadcastable-bias] fails before the shapes were compared: the (1,) gradient stepped every bias
        p = EncoderParams.init_random(4, 3, rng=np.random.default_rng(0))
        before = p.copy()
        opt = make_optimizer(TrainConfig(optimizer=optimizer))
        grads = {name: np.ones(shape) for name, shape in other.items()}
        with pytest.raises(ValueError, match=f"^{message}$"):
            opt.step(p, grads)
        assert p.equals(before) and getattr(opt, "m", None) is None and getattr(opt, "t", 0) == 0

    def test_info_nce_gradients_equal_per_tensor_reference(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 5, dtype=np.float32)
        means, caps = _train_rows_of(rng, 7, 5)
        loss, grads = info_nce(p, [row[None] for row in means], caps)
        ref_loss, ref = _per_tensor_info_nce(p, means, caps)
        assert loss == ref_loss
        for name in _TENSORS:
            assert grads[name].dtype == ref[name].dtype == np.float64
            assert np.array_equal(grads[name], ref[name])
        again = info_nce(p, [row[None] for row in means], caps)[1]
        assert not np.shares_memory(again["W_v"], grads["W_v"])  # a fresh buffer on every call

    def test_steady_state_optimizer_step_allocates_no_weight_sized_temporary(self):
        d, B = 128, 32
        rng = np.random.default_rng(0)
        pooled, caps = _train_rows_of(rng, 2 * B, d)
        cfg = TrainConfig(batch_size=B)
        p = EncoderParams.init_random(d, rng=rng)
        opt = make_optimizer(cfg)
        _train_epoch(p, pooled, caps, cfg, np.random.default_rng(1), opt)  # the first step makes the moments
        peaks = []

        def traced(update):
            def run(*args):
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    update(*args)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    if started:
                        tracemalloc.stop()
            return run

        for name in ("step", "_step"):  # whichever update `_train_epoch` calls
            if hasattr(opt, name):
                setattr(opt, name, traced(getattr(opt, name)))
        _train_epoch(p, pooled, caps, cfg, np.random.default_rng(2), opt)
        assert len(peaks) == 2
        assert max(peaks) < d * d * np.dtype(np.float64).itemsize, peaks

    @pytest.mark.parametrize("names", [("W_v",), ("b_v",), ("W_c",), ("b_c",), ("b_v", "b_c"), ("W_c", "b_v")])
    def test_nonfinite_weight_after_a_step_names_the_first_tensor(self, names):
        # a NaN first moment leaves its weight NaN after the next step, and nothing else
        rng = np.random.default_rng(5)
        pooled, caps = _train_rows_of(rng, 8, 5)
        cfg = TrainConfig(batch_size=8)
        p = random_params(rng, 5, dtype=np.float32)
        opt = make_optimizer(cfg)
        _train_epoch(p, pooled, caps, cfg, np.random.default_rng(0), opt)
        for name in names:
            _moments(p, opt)[0][name].flat[-1] = np.nan
        first = min(names, key=_TENSORS.index)
        with pytest.raises(NumericError, match=f"^non-finite values in {first} after an optimizer step$"):
            _train_epoch(p, pooled, caps, cfg, np.random.default_rng(0), opt)

    @pytest.mark.parametrize("names", [("W_v",), ("b_v",), ("W_c",), ("b_c",), ("b_v", "b_c"), ("W_c", "b_v")])
    def test_nonfinite_gradient_names_the_first_tensor(self, monkeypatch, names):
        rng = np.random.default_rng(6)
        means, caps = _train_rows_of(rng, 4, 5)
        p = random_params(rng, 5)
        grads = np.zeros(p._buf.size)
        poisoned = [_views(grads, p.d_out, p.d_in)[name] for name in names]

        class PoisonedNumpy:
            """numpy, except that a product or sum written into a poisoned gradient ends in NaN."""

            def __getattr__(self, attr):
                return getattr(np, attr)

            def _poison(self, out):
                if any(out is not None and np.shares_memory(out, t) for t in poisoned):
                    out.flat[-1] = np.nan
                return out

            def matmul(self, *args, out=None, **kwargs):
                return self._poison(np.matmul(*args, out=out, **kwargs))

            def sum(self, *args, out=None, **kwargs):
                return self._poison(np.sum(*args, out=out, **kwargs))

        monkeypatch.setattr(encoder, "np", PoisonedNumpy())
        first = min(names, key=_TENSORS.index)
        with pytest.raises(NumericError, match=f"^non-finite gradient in {first}$"):
            _info_nce(p, means, caps, grads)
