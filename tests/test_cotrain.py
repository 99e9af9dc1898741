import copy
import importlib
import json

import numpy as np
import pytest

from clipedit.corpus import (
    ClipRef, FeatureStore, SynthConfig, VideoRecord, clip_means, synth_corpus,
)
from clipedit.cotrain import (
    TEACHER_MODES,
    CoTrainConfig,
    apply_jitter,
    build_initial_assignment,
    cotrain,
    monitor_metric,
    select_control_set,
    warmup,
)
from clipedit import editor
from clipedit.editor import EditConfig, edit_all, write_edits
from clipedit.encoder import (
    EncoderParams, TrainConfig, embed_caption, embed_captions, embed_clip, embed_clips, make_optimizer,
    save_checkpoint, similarity, train_epoch,
)
from clipedit.evalrep import evaluate_retrieval
from clipedit.timeline import InitStrategy, Interval, initial_clip, iou

MID = InitStrategy("midpoint_neighbors")


def small_corpus(noise=0.0, cap_noise=0.0, seed=7, n_train=6, n_test=3):
    return synth_corpus(SynthConfig(
        n_train_videos=n_train, n_test_videos=n_test, captions_per_video=3,
        video_len_s=40.0, gt_len_range=(5.0, 8.0), dim=16,
        noise_sigma=noise, caption_noise_sigma=cap_noise,
        align_gt_to_seconds=True, seed=seed,
    ))


def fast_train(epochs=3, seed=0, lr=2e-3):
    return TrainConfig(batch_size=8, learning_rate=lr, epochs=epochs, seed=seed)


class TestBuildInitialAssignment:
    def make_anns(self, store):
        from clipedit.corpus import CaptionAnnotation
        return [
            CaptionAnnotation("c1", "v1", 10.0, split="train"),
            CaptionAnnotation("c2", "v1", 20.0, split="train"),
            CaptionAnnotation("c3", "v1", 40.0, split="train"),
            CaptionAnnotation("t1", "v1", 15.0, split="test"),
        ]

    def setup_method(self):
        self.store = FeatureStore()
        self.store.videos["v1"] = VideoRecord(
            "v1", 100.0, np.ones((100, 4), dtype=np.float32)
        )

    def test_midpoint_spans(self):
        anns = self.make_anns(self.store)
        out = build_initial_assignment(self.store, anns, MID)
        assert set(out) == {"c1", "c2", "c3"}  # train split only
        assert out["c1"] == ClipRef("v1", Interval(0.0, 15.0))
        assert out["c2"] == ClipRef("v1", Interval(15.0, 30.0))
        assert out["c3"] == ClipRef("v1", Interval(30.0, 100.0))

    def test_test_split_selectable(self):
        anns = self.make_anns(self.store)
        out = build_initial_assignment(self.store, anns, MID, split="test")
        assert set(out) == {"t1"}
        assert out["t1"] == ClipRef("v1", Interval(0.0, 100.0))

    def test_degenerate_clip_names_caption(self):
        from clipedit.corpus import CaptionAnnotation
        anns = [CaptionAnnotation("cz", "v1", 0.0, split="train")]
        with pytest.raises(ValueError, match="cz"):
            build_initial_assignment(self.store, anns, InitStrategy("prev_gap"))

    def test_duplicate_timestamp_names_the_second_caption(self):
        from clipedit.corpus import CaptionAnnotation
        anns = [
            CaptionAnnotation("c3", "v1", 20.0, split="train"),
            CaptionAnnotation("c1", "v1", 10.0, split="train"),
            CaptionAnnotation("c2", "v1", 20.0, split="train"),
        ]
        with pytest.raises(ValueError, match=r"^caption c2: prev_t 20.0 must be < t 20.0$"):
            build_initial_assignment(self.store, anns, MID)

    @pytest.mark.parametrize("text", [
        "midpoint_neighbors", "next_gap", "prev_gap", "full_neighbors", "fixed_half_width:3",
    ])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_shuffled_corpus_equals_per_video_rule(self, text, split):
        store, anns = small_corpus(n_train=5, n_test=4)
        anns = [anns[i] for i in np.random.default_rng(3).permutation(len(anns))]
        strategy = InitStrategy.parse(text)
        want = {}
        for video_id in {a.video_id for a in anns if a.split == split}:
            ts = sorted((a.timestamp_s, a.caption_id) for a in anns if a.split == split and a.video_id == video_id)
            for i, (t, cid) in enumerate(ts):
                prev_t = ts[i - 1][0] if i > 0 else None
                next_t = ts[i + 1][0] if i + 1 < len(ts) else None
                clip = initial_clip(prev_t, t, next_t, store.video_span(video_id), strategy)
                want[cid] = ClipRef(video_id, clip)
        got = build_initial_assignment(store, anns, strategy, split)
        assert got == want and len(got) == sum(a.split == split for a in anns)


class TestWarmup:
    def test_zero_epochs_returns_fresh_init(self):
        store, anns = small_corpus()
        cfg = fast_train(epochs=0, seed=3)
        params, assignment = warmup(store, anns, MID, cfg)
        fresh = EncoderParams.init_random(16, rng=np.random.default_rng(3))
        assert params.equals(fresh)
        assert len(assignment) == 18

    def test_deterministic(self):
        store, anns = small_corpus()
        p1, _ = warmup(store, anns, MID, fast_train())
        p2, _ = warmup(store, anns, MID, fast_train())
        assert p1.equals(p2)

    def test_zero_noise_beats_chance(self):
        store, anns = small_corpus()
        cfg = fast_train(epochs=10)
        params, assignment = warmup(store, anns, MID, cfg)
        queries = sorted(assignment)
        m = evaluate_retrieval(params, store, queries, assignment)
        assert m.r_at[1] > 1.0 / len(queries)

    def test_prebuilt_assignment_respected(self):
        store, anns = small_corpus()
        assignment = build_initial_assignment(store, anns, MID)
        pinned = {cid: assignment[cid] for cid in sorted(assignment)[:4]}
        params, got = warmup(store, anns, MID, fast_train(epochs=1), assignment=pinned)
        assert got is pinned

    def test_empty_train_split_rejected(self):
        store, anns = small_corpus()
        test_only = [a for a in anns if a.split == "test"]
        with pytest.raises(ValueError, match="no train-split captions"):
            warmup(store, test_only, MID, fast_train())


class TestControlSet:
    def one_hot_store(self):
        # three captions with engineered diagonal similarities 1.0, 0.0, 0.6
        d = 4
        store = FeatureStore()
        rows = np.zeros((9, d), dtype=np.float32)
        rows[0:3, 0] = 1.0                      # clip for c1: aligned
        rows[3:6, 1] = 1.0                      # clip for c2: orthogonal
        rows[6:9, 0] = 0.6
        rows[6:9, 1] = 0.8                      # clip for c3: cos = 0.6
        store.videos["v"] = VideoRecord("v", 9.0, rows)
        cap = np.zeros(d, dtype=np.float32)
        cap[0] = 1.0
        for cid in ("c1", "c2", "c3"):
            store.caption_features[cid] = cap
        clips = {
            "c1": ClipRef("v", Interval(0.0, 3.0)),
            "c2": ClipRef("v", Interval(3.0, 6.0)),
            "c3": ClipRef("v", Interval(6.0, 9.0)),
        }
        return store, clips

    def test_threshold_selects_strictly_above(self):
        store, clips = self.one_hot_store()
        ctl = select_control_set(EncoderParams.identity(4), store, clips, 0.5)
        assert ctl.caption_ids == ("c1", "c3")
        assert set(ctl.frozen_clips) == {"c1", "c3"}

    def test_gamma_minus_one_selects_all(self):
        store, clips = self.one_hot_store()
        ctl = select_control_set(EncoderParams.identity(4), store, clips, -1.0)
        assert ctl.caption_ids == ("c1", "c2", "c3")

    def test_gamma_one_empty_error(self):
        store, clips = self.one_hot_store()
        with pytest.raises(ValueError, match="control set empty; lower gamma"):
            select_control_set(EncoderParams.identity(4), store, clips, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mid_gamma_matches_one_item_reference(self, dtype):
        store, anns = small_corpus(noise=0.4, cap_noise=0.3, seed=3, n_train=12)
        clips = build_initial_assignment(store, anns, MID)
        p = EncoderParams.init_random(16, rng=np.random.default_rng(2), dtype=dtype)
        p.b_v[:] = 0.1
        sims = {
            cid: similarity(
                embed_clip(p, clip_means(store, [clips[cid]])[0][None]),
                embed_caption(p, store.caption_features[cid]),
            )
            for cid in sorted(clips)
        }
        # gamma equal to a mid-range score: that caption must be left out
        gamma = sorted(sims.values())[len(sims) // 2]
        expect = tuple(cid for cid in sorted(clips) if sims[cid] > gamma)
        ctl = select_control_set(p, store, clips, gamma)
        assert ctl.caption_ids == expect and 0 < len(expect) < len(clips)
        assert ctl.frozen_clips == {cid: clips[cid] for cid in expect}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_membership_equals_the_per_pair_loop(self, dtype, seed):
        store, anns = small_corpus(noise=0.4, cap_noise=0.3, seed=seed, n_train=12)
        clips = build_initial_assignment(store, anns, MID)
        p = EncoderParams.init_random(16, rng=np.random.default_rng(seed), dtype=dtype)
        ids = sorted(clips)
        pooled = clip_means(store, [clips[cid] for cid in ids])
        U = embed_clips(p, pooled, ids)
        V = embed_captions(p, np.stack([store.caption_features[cid] for cid in ids]), ids)
        scores = [similarity(u.copy(), v.copy()) for u, v in zip(U, V)]
        mid = sorted(scores)[len(scores) // 2]
        # one pair's own score, and the float64 just below it, which a float32 compare rounds up to it
        for gamma in (mid, float(np.nextafter(mid, -np.inf))):
            keep = [i for i, s in enumerate(scores) if s > gamma]
            ctl = select_control_set(p, store, clips, gamma)
            assert ctl.caption_ids == tuple(ids[i] for i in keep) and 0 < len(keep) < len(ids)
            assert np.array_equal(ctl.pooled, pooled[keep])

    def test_zero_norm_row_named(self):
        store, clips = self.one_hot_store()
        store.caption_features["c2"] = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="zero-norm caption 'c2'"):
            select_control_set(EncoderParams.identity(4), store, clips, -1.0)

    def test_monitor_singleton_is_one(self):
        store, clips = self.one_hot_store()
        ctl = select_control_set(EncoderParams.identity(4), store, clips, 0.9)
        assert ctl.caption_ids == ("c1",)
        assert monitor_metric(EncoderParams.identity(4), store, ctl) == 1.0


# each entry point that reads caption rows, called on (params, store, clips)
CAPTION_READERS = {
    "train_epoch": lambda p, store, clips: train_epoch(p, store, clips, TrainConfig(), np.random.default_rng(0)),
    "warmup": lambda p, store, clips: warmup(store, [], MID, TrainConfig(epochs=1), clips),
    "select_control_set": lambda p, store, clips: select_control_set(p, store, clips, -1.0),
    "evaluate_retrieval": lambda p, store, clips: evaluate_retrieval(p, store, sorted(clips), clips),
    "edit_all": lambda p, store, clips: edit_all(p, store, clips, EditConfig(k=2)),
}


@pytest.mark.parametrize("reader", sorted(CAPTION_READERS))
def test_caption_without_features_is_named(reader):
    store, clips = TestControlSet().one_hot_store()
    del store.caption_features["c2"]
    with pytest.raises(ValueError, match=r"^no caption features for 'c2'$"):
        CAPTION_READERS[reader](EncoderParams.identity(4), store, clips)


class TestCoTrainLoop:
    def run(self, mode="update", max_epochs=6, patience=4, lr=2e-3, seed=5,
            noise=0.4, cap_noise=0.1, n_train=10):
        store, anns = small_corpus(noise=noise, cap_noise=cap_noise, seed=seed,
                                   n_train=n_train, n_test=2)
        tc = fast_train(epochs=3, lr=lr)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=patience, max_epochs=max_epochs,
                           teacher_mode=mode, train=tc, edit=EditConfig(k=8))
        return warm, assignment, store, cotrain(warm, assignment, store, cc)

    def test_max_epochs_zero_is_noop(self):
        store, anns = small_corpus()
        tc = fast_train(epochs=2)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, max_epochs=0, train=tc, edit=EditConfig(k=8))
        res = cotrain(warm, assignment, store, cc)
        assert res.log == []
        assert res.best_student.equals(warm)
        assert res.final_student.equals(warm)
        assert res.teacher.equals(warm)
        assert res.clips == assignment

    def test_never_improving_student_exits_after_patience(self):
        store, anns = small_corpus()
        tc = fast_train(epochs=2, lr=0.0)  # frozen student never improves
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=3, max_epochs=50,
                           train=tc, edit=EditConfig(k=8))
        res = cotrain(warm, assignment, store, cc)
        assert len(res.log) == 3
        assert all(not r["teacher_updated"] for r in res.log)
        assert res.teacher.equals(warm)
        assert res.best_student.equals(warm)
        assert res.best_epoch == 0

    def test_final_teacher_is_warm_or_best_student(self):
        warm, _, _, res = self.run(mode="update")
        if any(r["teacher_updated"] for r in res.log):
            # the last copy happened at the last improvement epoch, whose
            # student snapshot is exactly the recorded best student
            assert res.teacher.equals(res.best_student)
        else:
            assert res.teacher.equals(warm)

    def test_frozen_teacher_never_changes(self):
        warm, _, _, res = self.run(mode="frozen")
        assert res.teacher.equals(warm)
        assert all(not r["teacher_updated"] for r in res.log)

    def test_random_teacher_differs_from_warm_and_is_never_copied(self):
        warm, _, _, res = self.run(mode="random")
        assert not res.teacher.equals(warm)
        assert all(not r["teacher_updated"] for r in res.log)

    def test_four_modes_distinct_logs(self):
        logs = {}
        for mode in ("update", "frozen", "random", "self"):
            _, _, _, res = self.run(mode=mode, max_epochs=8)
            logs[mode] = res.log
        serialized = {mode: str(log) for mode, log in logs.items()}
        assert len(set(serialized.values())) == 4

    def test_update_and_frozen_agree_until_first_copy(self):
        _, _, _, res_u = self.run(mode="update", max_epochs=8)
        _, _, _, res_f = self.run(mode="frozen", max_epochs=8)
        first_copy = next(
            (r["epoch"] for r in res_u.log if r["teacher_updated"]), None
        )
        assert first_copy is not None, "config must produce at least one copy"
        for i in range(first_copy):  # records up to and including the copy epoch
            u, f = dict(res_u.log[i]), dict(res_f.log[i])
            u.pop("teacher_updated"), f.pop("teacher_updated")
            assert u == f
        tail = range(first_copy, min(len(res_u.log), len(res_f.log)))
        assert any(res_u.log[i] != res_f.log[i] for i in tail)

    def test_zero_noise_editing_improves_gt_alignment(self):
        store, anns = small_corpus(n_train=8)
        tc = fast_train(epochs=4)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=3, max_epochs=6,
                           train=tc, edit=EditConfig(k=8))
        res = cotrain(warm, assignment, store, cc)
        gt = {a.caption_id: a.gt_interval for a in anns if a.split == "train"}
        init_iou = np.mean([iou(assignment[c].interval, gt[c]) for c in assignment])
        edit_iou = np.mean([iou(res.clips[c].interval, gt[c]) for c in assignment])
        assert edit_iou > init_iou

    def test_patience_bounds_consecutive_failures(self):
        _, _, _, res = self.run(mode="update", max_epochs=30, patience=2)
        run_len = 0
        for rec in res.log:
            # in update mode a teacher copy marks an improvement epoch
            run_len = 0 if rec["teacher_updated"] else run_len + 1
            assert run_len <= 2

    def test_log_schema(self):
        _, _, _, res = self.run(max_epochs=2, patience=2)
        for rec in res.log:
            assert set(rec) == {"epoch", "train_loss", "monitor",
                                "n_applied_edits", "teacher_updated"}

    def test_on_epoch_sees_every_record(self):
        seen = []
        store, anns = small_corpus()
        tc = fast_train(epochs=1)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=2, max_epochs=3,
                           train=tc, edit=EditConfig(k=8))
        res = cotrain(warm, assignment, store, cc, on_epoch=seen.append)
        assert seen == res.log


def cotrain_ref(warm, assignment, store, cfg):
    """The co-training loop with `edit_all` called every epoch, as reference."""
    control = select_control_set(warm, store, assignment, cfg.gamma)
    student = warm.copy()
    if cfg.teacher_mode == "random":
        teacher = EncoderParams.init_random(
            warm.d_in, warm.d_out, tau=warm.tau,
            rng=np.random.default_rng(cfg.train.seed + 1), dtype=warm.W_v.dtype,
        )
    else:
        teacher = warm.copy()
    best_monitor = monitor_metric(warm, store, control)
    best_student, best_epoch, since = warm.copy(), 0, 0
    rng = np.random.default_rng(cfg.train.seed)
    optimizer = make_optimizer(cfg.train)
    log, clips, edits = [], dict(assignment), []
    for epoch in range(1, cfg.max_epochs + 1):
        editor = student if cfg.teacher_mode == "self" else teacher
        clips, edits = edit_all(editor, store, assignment, cfg.edit)
        _, loss = train_epoch(student, store, clips, cfg.train, rng, optimizer)
        monitor = monitor_metric(student, store, control)
        updated = False
        if monitor > best_monitor:
            best_monitor, best_student, best_epoch, since = monitor, student.copy(), epoch, 0
            if cfg.teacher_mode == "update":
                teacher, updated = student.copy(), True
        else:
            since += 1
        log.append({"epoch": epoch, "train_loss": loss, "monitor": monitor,
                    "n_applied_edits": sum(e.applied for e in edits),
                    "teacher_updated": updated})
        if since >= cfg.patience:
            break
    return best_student, student, teacher, clips, log, best_epoch, best_monitor, edits


class TestReEditSkip:
    @pytest.mark.parametrize("mode", ["update", "frozen", "random", "self"])
    def test_equals_editing_every_epoch(self, mode, monkeypatch):
        store, anns = small_corpus(noise=0.4, cap_noise=0.1, seed=5, n_train=10, n_test=2)
        tc = fast_train(epochs=3)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=8, max_epochs=8,
                           teacher_mode=mode, train=tc, edit=EditConfig(k=8))
        calls = []

        def counting_edit_all(*args):
            calls.append(args[0].copy())
            return editor._edit_all(*args)

        module = importlib.import_module("clipedit.cotrain")
        monkeypatch.setattr(module, "_edit_all", counting_edit_all)
        res = cotrain(warm, assignment, store, cc)
        best, final, teacher, clips, log, best_epoch, best_monitor, edits = cotrain_ref(
            warm, assignment, store, cc
        )
        assert res.log == log
        assert res.last_edits == edits
        assert res.clips == clips
        assert res.best_student.equals(best)
        assert res.final_student.equals(final)
        assert res.teacher.equals(teacher)
        assert (res.best_epoch, res.best_monitor) == (best_epoch, best_monitor)
        best_so_far, improved = monitor_metric(warm, store, res.control), []
        for r in log:
            improved.append(r["monitor"] > best_so_far)
            best_so_far = max(best_so_far, r["monitor"])
        # some epochs improve, and some that another epoch follows do not
        assert any(improved) and not all(improved[:-1])
        expected = {
            "update": 1 + sum(r["teacher_updated"] for r in log[:-1]),
            "frozen": 1,
            "random": 1,
            "self": len(log),
        }[mode]
        assert len(calls) == expected
        assert all(not a.equals(b) for a, b in zip(calls, calls[1:]))


def run_files(out, best, teacher, log, edits):
    """The bytes of the files `clipedit cotrain` writes from a run's results."""
    out.mkdir()
    (out / "cotrain_log.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in log), encoding="utf-8")
    write_edits(out / "edits.jsonl", edits)
    save_checkpoint(out / "model.student.cfp", best)
    save_checkpoint(out / "model.teacher.cfp", teacher)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestDecisionReuse:
    @pytest.mark.parametrize("mode", TEACHER_MODES)
    def test_writes_the_files_of_editing_every_epoch(self, mode, tmp_path, monkeypatch):
        store, anns = small_corpus(noise=0.4, cap_noise=0.1, seed=5, n_train=10, n_test=2)
        tc = fast_train(epochs=3)
        warm, assignment = warmup(store, anns, MID, tc)
        cc = CoTrainConfig(gamma=-1.0, patience=8, max_epochs=8,
                           teacher_mode=mode, train=tc, edit=EditConfig(k=4))
        calls, real = [], editor._edit_all

        def spy(*args):
            out = real(*args)
            calls.append(out[1])
            return out
        monkeypatch.setattr(importlib.import_module("clipedit.cotrain"), "_edit_all", spy)
        res = cotrain(warm, assignment, store, cc)
        best, _, teacher, _, log, _, _, edits = cotrain_ref(warm, assignment, store, cc)
        got = run_files(tmp_path / "cotrain", res.best_student, res.teacher, res.log, res.last_edits)
        assert got == run_files(tmp_path / "ref", best, teacher, log, edits)
        # with more than one edit, some captions keep their result and some change Top-K
        for before, after in zip(calls, calls[1:]):
            kept = [a is b for a, b in zip(before, after)]
            changed = [a.topk_indices != b.topk_indices for a, b in zip(before, after)]
            assert any(kept) and any(changed) and not any(k and c for k, c in zip(kept, changed))
        assert len(calls) >= (2 if mode in ("update", "self") else 1)


def store_snapshot(store):
    """Every VideoRecord attribute (arrays as dtype, shape and bytes) and every
    caption feature's bytes."""
    def plain(v):
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return (
        {vid: {k: plain(v) for k, v in vars(rec).items()} for vid, rec in store.videos.items()},
        {cid: plain(v) for cid, v in store.caption_features.items()},
    )


class TestPoolingOncePerClipSet:
    def setup_method(self):
        self.store, self.anns = small_corpus(noise=0.4, cap_noise=0.1, seed=5, n_train=10, n_test=2)

    def cotrain_cfg(self, mode, max_epochs):
        return CoTrainConfig(gamma=-1.0, patience=max_epochs, max_epochs=max_epochs,
                             teacher_mode=mode, train=fast_train(epochs=3), edit=EditConfig(k=8))

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        """The module of each `clip_means` call made through encoder or evalrep
        (cotrain pools through `encoder._train_rows`)."""
        calls = []
        for name in ("encoder", "evalrep"):
            module = importlib.import_module(f"clipedit.{name}")

            def counting(store, refs, seg_len_s=1.0, _name=name, _real=module.clip_means):
                calls.append(_name)
                return _real(store, refs, seg_len_s)
            monkeypatch.setattr(module, "clip_means", counting)
        return calls

    def test_store_is_not_mutated(self):
        before = copy.deepcopy(self.store)
        warm, assignment = warmup(self.store, self.anns, MID, fast_train(epochs=3))
        res = cotrain(warm, assignment, self.store, self.cotrain_cfg("update", 4))
        gallery = build_initial_assignment(self.store, self.anns, MID, split="test")
        evaluate_retrieval(res.best_student, self.store, sorted(gallery), gallery)
        assert store_snapshot(self.store) == store_snapshot(before)

    def test_warmup_pools_once(self, pool_calls):
        warmup(self.store, self.anns, MID, fast_train(epochs=4))
        assert pool_calls == ["encoder"]

    def test_frozen_teacher_pools_control_set_and_one_edit(self, pool_calls):
        warm, assignment = warmup(self.store, self.anns, MID, fast_train(epochs=3))
        pool_calls.clear()
        res = cotrain(warm, assignment, self.store, self.cotrain_cfg("frozen", 3))
        assert len(res.log) == 3
        # select_control_set, then the one edit's clips; the monitor pools nothing
        assert pool_calls == ["encoder", "encoder"]

    def test_updating_teacher_pools_once_per_edit(self, pool_calls, monkeypatch):
        module = importlib.import_module("clipedit.cotrain")
        edits = []

        def counting_edit_all(*args):
            edits.append(len(pool_calls))
            return editor._edit_all(*args)
        monkeypatch.setattr(module, "_edit_all", counting_edit_all)
        warm, assignment = warmup(self.store, self.anns, MID, fast_train(epochs=3))
        pool_calls.clear()
        cotrain(warm, assignment, self.store, self.cotrain_cfg("update", 8))
        assert len(edits) >= 2
        assert pool_calls == ["encoder"] * (1 + len(edits))  # select_control_set, then each edit

    def test_evaluate_retrieval_pools_once(self, pool_calls):
        gallery = build_initial_assignment(self.store, self.anns, MID, split="test")
        evaluate_retrieval(EncoderParams.identity(16), self.store, sorted(gallery), gallery)
        assert pool_calls == ["evalrep"]


class TestApplyJitter:
    def setup_method(self):
        self.store, anns = small_corpus()
        self.assignment = build_initial_assignment(self.store, anns, MID)

    def test_fraction_zero_unchanged(self):
        out = apply_jitter(self.assignment, 0.0, 2.0, self.store, np.random.default_rng(0))
        assert out == self.assignment

    def test_zero_magnitude_unchanged(self):
        out = apply_jitter(self.assignment, 1.0, 0.0, self.store, np.random.default_rng(0))
        assert out == self.assignment

    def test_half_fraction_touches_about_half(self):
        out = apply_jitter(self.assignment, 0.5, 2.0, self.store, np.random.default_rng(1))
        changed = sum(1 for cid in self.assignment if out[cid] != self.assignment[cid])
        n_pick = round(0.5 * len(self.assignment))
        assert 0 < changed <= n_pick

    def test_deterministic(self):
        a = apply_jitter(self.assignment, 0.5, 2.0, self.store, np.random.default_rng(2))
        b = apply_jitter(self.assignment, 0.5, 2.0, self.store, np.random.default_rng(2))
        assert a == b

    def test_stays_inside_video(self):
        out = apply_jitter(self.assignment, 1.0, 5.0, self.store, np.random.default_rng(3))
        for cid, ref in out.items():
            span = self.store.video_span(ref.video_id)
            assert span.start_s <= ref.interval.start_s < ref.interval.end_s <= span.end_s

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            apply_jitter(self.assignment, 1.5, 2.0, self.store, np.random.default_rng(0))


class TestCoTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            CoTrainConfig(gamma=2.0)
        with pytest.raises(ValueError, match="patience"):
            CoTrainConfig(patience=0)
        with pytest.raises(ValueError, match="max_epochs"):
            CoTrainConfig(max_epochs=-1)
        with pytest.raises(ValueError, match="teacher_mode"):
            CoTrainConfig(teacher_mode="ema")
