import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clipedit.evalrep as evalrep
from clipedit.corpus import ClipRef, FeatureStore, VideoRecord, clip_mean
from clipedit.encoder import EncoderParams, embed_caption, embed_captions, embed_clip, embed_clips
from clipedit.evalrep import (
    RetrievalMetrics,
    R_AT_KS,
    evaluate_retrieval,
    iou_histogram,
    median_rank,
    rank_of,
    recall_at_k,
    write_iou_hist,
    write_metrics,
)
from clipedit.timeline import Interval, iou

ranks_lists = st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=60)


class TestRankOf:
    def test_best(self):
        assert rank_of(np.array([0.2, 0.9, 0.5]), 1) == 1

    def test_tie_broken_by_index(self):
        assert rank_of(np.array([0.9, 0.9, 0.1]), 1) == 2

    def test_all_identical_last(self):
        n = 6
        assert rank_of(np.full(n, 0.4), n - 1) == n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rank_of(np.array([0.1]), 1)


class TestRecallAtK:
    def test_basic(self):
        assert recall_at_k([1, 2, 1, 5], 1) == 0.5

    def test_k_above_max_rank(self):
        assert recall_at_k([3, 7, 2], 10) == 1.0

    def test_miss(self):
        assert recall_at_k([3], 1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([], 1)

    @given(ranks_lists)
    def test_monotone_in_k(self, ranks):
        values = [recall_at_k(ranks, k) for k in (1, 5, 10, 50)]
        assert values == sorted(values)


class TestMedianRank:
    def test_odd(self):
        assert median_rank([1, 3, 5]) == 3

    def test_even_averages(self):
        assert median_rank([1, 3]) == 2.0

    def test_singleton(self):
        assert median_rank([7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_rank([])

    @given(ranks_lists)
    def test_reverse_invariant(self, ranks):
        assert median_rank(ranks) == median_rank(list(reversed(ranks)))


def separable_store(n: int, d: int = 16):
    """n captions, each with a 4-second one-hot clip in its own video."""
    store = FeatureStore()
    gallery = {}
    for i in range(n):
        vid, cid = f"v{i}", f"c{i}"
        rows = np.zeros((6, d), dtype=np.float32)
        rows[:, i % d] = 1.0
        rows[:, (i * 7 + 3) % d] += 0.25  # break exact ties between videos
        store.videos[vid] = VideoRecord(vid, 6.0, rows)
        cap = np.zeros(d, dtype=np.float32)
        cap[i % d] = 1.0
        cap[(i * 7 + 3) % d] += 0.25
        store.caption_features[cid] = cap
        gallery[cid] = ClipRef(vid, Interval(1.0, 5.0))
    return store, gallery


class TestEvaluateRetrieval:
    def test_singleton_gallery(self):
        store, gallery = separable_store(1)
        m = evaluate_retrieval(EncoderParams.identity(16), store, ["c0"], gallery)
        assert m.r_at[1] == 1.0 and m.med_r == 1.0 and m.n_queries == 1

    def test_separable_perfect(self):
        store, gallery = separable_store(8)
        m = evaluate_retrieval(EncoderParams.identity(16), store, sorted(gallery), gallery)
        assert m.r_at[1] == 1.0 and m.r_at[5] == 1.0 and m.med_r == 1.0

    def test_monotone_r_at_k(self):
        store, gallery = separable_store(12)
        p = EncoderParams.init_random(16, rng=np.random.default_rng(0))
        m = evaluate_retrieval(p, store, sorted(gallery), gallery)
        assert m.r_at[1] <= m.r_at[5] <= m.r_at[10] <= 1.0
        assert 1.0 <= m.med_r <= m.n_queries

    def test_query_without_gallery_clip_rejected(self):
        store, gallery = separable_store(3)
        with pytest.raises(ValueError, match="cX"):
            evaluate_retrieval(EncoderParams.identity(16), store, ["cX"], gallery)

    def test_chance_level_band(self):
        # untrained params on symmetric data should rank near the middle
        n = 20
        store, gallery = separable_store(n)
        meds = []
        for seed in range(20):
            p = EncoderParams.init_random(16, rng=np.random.default_rng(seed))
            m = evaluate_retrieval(p, store, sorted(gallery), gallery)
            meds.append(m.med_r)
        assert 0.3 * n <= float(np.mean(meds)) <= 0.7 * n


def ranks_ref(params, store, queries, gallery):
    """The one-item retrieval loop `evaluate_retrieval` replaced: one clip
    embedding per gallery item, one gemv and `rank_of` per query."""
    gallery_ids = sorted(gallery)
    gal_pos = {cid: i for i, cid in enumerate(gallery_ids)}
    clip_embs = np.stack([
        embed_clip(params, clip_mean(store, gallery[cid])[None])
        for cid in gallery_ids
    ])
    ranks = []
    for q in queries:
        cap = embed_caption(params, store.caption_features[q])
        ranks.append(rank_of(clip_embs @ cap, gal_pos[q]))
    return ranks


def metrics_ref(params, store, queries, gallery):
    ranks = ranks_ref(params, store, queries, gallery)
    return RetrievalMetrics(
        r_at={k: recall_at_k(ranks, k) for k in R_AT_KS},
        med_r=median_rank(ranks), n_queries=len(queries),
    )


def kernel_ranks(params, store, queries, gallery):
    """`evalrep._query_ranks` on the same embeddings `evaluate_retrieval` builds."""
    gallery_ids = sorted(gallery)
    U = embed_clips(params, [clip_mean(store, gallery[cid]) for cid in gallery_ids])
    V = embed_captions(params, [store.caption_features[q] for q in queries])
    pos = {cid: i for i, cid in enumerate(gallery_ids)}
    return evalrep._query_ranks(U, V, np.array([pos[q] for q in queries])).tolist()


def random_store(rng, n, d, dtype, n_videos=None, cap_noise=0.5):
    """n captions over n_videos random videos; each caption is a noisy copy
    of its clip's pooled features, so ranks spread over the whole gallery."""
    n_videos = n if n_videos is None else n_videos
    store, gallery = FeatureStore(), {}
    for v in range(n_videos):
        store.videos[f"v{v}"] = VideoRecord(
            f"v{v}", 12.0, rng.standard_normal((12, d)).astype(dtype))
    for i in range(n):
        start = float(rng.integers(0, 8))
        ref = ClipRef(f"v{rng.integers(n_videos)}", Interval(start, start + float(rng.integers(1, 5))))
        gallery[f"c{i:03d}"] = ref
        cap = clip_mean(store, ref) + cap_noise * rng.standard_normal(d)
        store.caption_features[f"c{i:03d}"] = cap.astype(dtype)
    return store, gallery


@pytest.fixture(params=[None, 3], ids=["one_block", "blocks_of_3"])
def block_bytes(request, monkeypatch):
    """Run each test with the default score block and with blocks of three
    queries (the block size derives from the byte budget)."""
    def set_for(n_gallery, itemsize):
        if request.param is not None:
            monkeypatch.setattr(evalrep, "_SCORE_BLOCK_BYTES", request.param * n_gallery * itemsize)
    return set_for


def counting_rank_of(monkeypatch):
    calls = []

    def wrapped(sim_row, true_index):
        calls.append(true_index)
        return rank_of(sim_row, true_index)
    monkeypatch.setattr(evalrep, "rank_of", wrapped)
    return calls


class TestBatchedRetrievalExact:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40), d=st.sampled_from([2, 3, 8, 16, 33]),
        dtype=st.sampled_from([np.float32, np.float64]),
        bias=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 40), block=st.sampled_from([1, 3, None]),
    )
    def test_random_float32_params_match_one_item_loop(
        self, n, d, dtype, bias, seed, n_queries, block
    ):
        rng = np.random.default_rng(seed)
        store, gallery = random_store(rng, n, d, dtype, n_videos=max(1, n // 3))
        p = EncoderParams.init_random(d, rng=rng, dtype=np.float32)
        p.b_v[:] = bias * rng.standard_normal(d)
        p.b_c[:] = bias * rng.standard_normal(d)
        queries = [str(q) for q in rng.choice(sorted(gallery), size=n_queries)]
        ref = ranks_ref(p, store, queries, gallery)
        saved = evalrep._SCORE_BLOCK_BYTES
        try:
            if block is not None:  # blocks of `block` float64 or 2*`block` float32 queries
                evalrep._SCORE_BLOCK_BYTES = block * n * 8
            assert kernel_ranks(p, store, queries, gallery) == ref
            assert evaluate_retrieval(p, store, queries, gallery) == metrics_ref(
                p, store, queries, gallery)
        finally:
            evalrep._SCORE_BLOCK_BYTES = saved

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_float64_params_match_one_item_loop(self, seed, block_bytes):
        rng = np.random.default_rng(seed)
        store, gallery = random_store(rng, 60, 16, np.float64, n_videos=20)
        p = EncoderParams.identity(16)
        block_bytes(60, 8)
        queries = sorted(gallery)
        assert kernel_ranks(p, store, queries, gallery) == ranks_ref(p, store, queries, gallery)
        assert evaluate_retrieval(p, store, queries, gallery) == metrics_ref(
            p, store, queries, gallery)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_ties_keep_index_tie_break(self, dtype, block_bytes, monkeypatch):
        # c000..c003 share one clip (bit-identical gallery rows) and one
        # caption; c004's caption is its own clip's pooled vector, so a
        # query equals a gallery row
        rng = np.random.default_rng(11)
        store, gallery = random_store(rng, 8, 6, dtype)
        for cid in ("c001", "c002", "c003"):
            gallery[cid] = gallery["c000"]
            store.caption_features[cid] = store.caption_features["c000"]
        store.caption_features["c004"] = clip_mean(store, gallery["c004"]).copy()
        p = EncoderParams.identity(6, dtype=dtype)
        block_bytes(8, np.dtype(dtype).itemsize)
        queries = sorted(gallery)
        calls = counting_rank_of(monkeypatch)
        ranks = kernel_ranks(p, store, queries, gallery)
        assert ranks == ranks_ref(p, store, queries, gallery)
        # the duplicates tie with one another: their ranks differ by index
        assert ranks[:4] == [ranks[0], ranks[0] + 1, ranks[0] + 2, ranks[0] + 3]
        assert {0, 1, 2, 3} <= set(calls)  # exact ties are decided by rank_of

    def test_near_ties_inside_margin_fall_back(self, block_bytes, monkeypatch):
        # clip j scores 1/sqrt(1+theta^2), about 1.25e-15 below its neighbour's
        # exact 1.0: distinct doubles, both inside the margin of the other
        d = 16
        theta = 5e-8
        store, gallery = FeatureStore(), {}
        rows = np.zeros((4, d))
        rows[0, 0] = 1.0                      # clip of "a": e0
        rows[1, 0], rows[1, 1] = 1.0, theta   # clip of "b": e0 tilted by theta
        rows[2, 2] = 1.0                      # clip of "c": e2, far from both
        rows[3, 3] = 1.0                      # clip of "d": e3
        store.videos["v"] = VideoRecord("v", 4.0, rows)
        for i, cid in enumerate("abcd"):
            gallery[cid] = ClipRef("v", Interval(float(i), i + 1.0))
            store.caption_features[cid] = rows[i].copy()
        store.caption_features["b"] = rows[0].copy()  # "b" asks for e0 too
        p = EncoderParams.identity(d)
        block_bytes(4, 8)
        queries = sorted(gallery)
        gemv = embed_clips(p, [clip_mean(store, gallery[c]) for c in queries]) @ rows[0]
        margin = evalrep._margin(d, np.dtype(np.float64))
        assert 0.0 < gemv[0] - gemv[1] < margin / 4
        calls = counting_rank_of(monkeypatch)
        ranks = kernel_ranks(p, store, queries, gallery)
        assert ranks == ranks_ref(p, store, queries, gallery) == [1, 2, 1, 1]
        assert sorted(calls) == [0, 1]  # only "a" and "b" sit inside the margin

    def test_margin_is_derived_not_tuned(self):
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        u = 2.0**-24
        gamma = 32 * u / (1 - 32 * u)
        assert evalrep._margin(32, f32) == pytest.approx(4 * 1.01**2 * gamma + 4 * u, rel=1e-12)
        assert evalrep._margin(128, f32, f64) > evalrep._margin(32, f32)
        assert evalrep._margin(16, f64) < 1e-13
        assert evalrep._margin(100_000, f32) == float("inf")

    def test_degenerate_rows_name_their_ids(self):
        store, gallery = separable_store(4)
        p = EncoderParams.identity(16)
        store.caption_features["c2"] = np.zeros(16, dtype=np.float32)
        with pytest.raises(ValueError, match="zero-norm caption 'c2'"):
            evaluate_retrieval(p, store, sorted(gallery), gallery)
        store, gallery = separable_store(4)
        store.videos["v3"] = VideoRecord("v3", 6.0, np.zeros((6, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="zero-norm clip 'c3'"):
            evaluate_retrieval(p, store, ["c0"], gallery)


class TestIoUHistogram:
    def test_identical_pairs_all_in_last_bin(self):
        pairs = [(Interval(0, 5), Interval(0, 5))] * 4
        h = iou_histogram(pairs)
        assert h.counts[-1] == 4 and sum(h.counts) == 4
        assert h.mean_iou == 1.0

    def test_one_third_in_its_bin(self):
        h = iou_histogram([(Interval(0, 4), Interval(2, 6))])
        assert h.counts[3] == 1  # [0.3, 0.4)
        assert sum(h.counts) == 1

    def test_conservation_on_random_pairs(self):
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(1000):
            a0 = float(rng.uniform(0, 50)); a1 = a0 + float(rng.uniform(0.1, 10))
            b0 = float(rng.uniform(0, 50)); b1 = b0 + float(rng.uniform(0.1, 10))
            pairs.append((Interval(a0, a1), Interval(b0, b1)))
        h = iou_histogram(pairs)
        assert sum(h.counts) == 1000
        assert 0.0 <= h.mean_iou <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iou_histogram([])

    def test_equals_per_pair_iou_loop(self):
        rng = np.random.default_rng(3)
        pairs = [  # identical, touching, nested, disjoint
            (Interval(0.0, 5.0), Interval(0.0, 5.0)), (Interval(0.0, 2.0), Interval(2.0, 3.0)),
            (Interval(1.0, 9.0), Interval(2.5, 3.5)), (Interval(0.0, 1.0), Interval(4.0, 5.0)),
        ]
        for _ in range(500):
            a0, b0 = (float(x) for x in rng.uniform(0, 20, 2))
            pairs.append((Interval(a0, a0 + float(rng.uniform(0.1, 10))),
                          Interval(b0, b0 + float(rng.uniform(0.1, 10)))))
        values = [iou(a, b) for a, b in pairs]
        h = iou_histogram(pairs)
        counts, _ = np.histogram(values, bins=np.linspace(0.0, 1.0, 11))
        assert h.counts == tuple(counts.tolist())
        assert h.mean_iou == float(np.mean(values))


class TestWriters:
    def test_metrics_json(self, tmp_path):
        store, gallery = separable_store(4)
        m = evaluate_retrieval(EncoderParams.identity(16), store, sorted(gallery), gallery)
        path = tmp_path / "metrics.json"
        write_metrics(path, m, "gt")
        obj = json.loads(path.read_text())
        assert obj == {"r1": 1.0, "r5": 1.0, "r10": 1.0, "medr": 1.0,
                       "n_queries": 4, "gallery_mode": "gt"}

    def test_iou_hist_csv(self, tmp_path):
        h = iou_histogram([(Interval(0, 4), Interval(2, 6)), (Interval(0, 2), Interval(0, 2))])
        path = tmp_path / "iou_hist.csv"
        write_iou_hist(path, h)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 12  # header + 10 bins + mean
        assert rows[4] == ["0.3", "0.4", "1"]
        assert rows[-1][0] == "mean" and rows[-1][1] == ""
        assert float(rows[-1][2]) == pytest.approx((1 / 3 + 1.0) / 2, abs=1e-6)
