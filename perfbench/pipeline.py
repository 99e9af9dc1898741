"""One pass of the pipeline, driven from files through clipedit's public API.

A pass is the `clipedit cotrain` call sequence (load, initial assignment,
warm-up, co-training, checkpoints, edits, IoU histograms) followed by the
`clipedit eval` call sequence on the checkpoint it wrote (load features,
annotations and checkpoint, rank the test split, write metrics.json).

Untraced, the pass calls `warmup` and `cotrain` as the CLI does. Traced, it
steps through the same loops one public call at a time (`train_epoch`,
`edit_clip`, `monitor_metric`) with a span around each call, and keeps
copies of each step's inputs so the sub-layer probes in `run_probes` can
time the pieces afterwards without touching the real trajectory.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clipedit import (
    ClipRef,
    ControlSet,
    CoTrainConfig,
    CoTrainResult,
    EditConfig,
    EditResult,
    EncoderParams,
    FeatureStore,
    RetrievalMetrics,
    TrainConfig,
    build_initial_assignment,
    cotrain,
    edit_clip,
    embed_caption,
    embed_clip,
    enumerate_candidates,
    evaluate_retrieval,
    info_nce,
    iou,
    iou_histogram,
    load_annotations,
    load_checkpoint,
    load_features,
    monitor_metric,
    rank_of,
    recall_at_k,
    save_checkpoint,
    segment_features,
    segment_grid,
    select_control_set,
    top_k_segments,
    train_epoch,
    warmup,
)
from clipedit.corpus import clip_features
from clipedit.editor import consensus_argmax, segment_similarities, write_edits
from clipedit.encoder import make_optimizer
from clipedit.evalrep import write_iou_hist, write_metrics

from workloads import STRATEGY, Workload

FEATURES = "features"
ANNOTATIONS = "annotations.jsonl"
STUDENT = "model.student.cfp"
TEACHER = "model.teacher.cfp"
EDITS = "edits.jsonl"
METRICS = "metrics.json"
LOG = "cotrain_log.jsonl"


class CheckFailed(RuntimeError):
    """An output, or a probe's replay of a step, disagrees with the pipeline."""


class _NoTracer:
    def span(self, name: str):
        return nullcontext()


NO_TRACER = _NoTracer()


@dataclass
class TrainStep:
    """Inputs and outputs of one real `train_epoch` call."""

    params_before: EncoderParams
    rng_before: np.random.Generator
    optimizer_before: object
    clips: dict
    cfg: TrainConfig
    params_after: EncoderParams


@dataclass
class EditStep:
    """Inputs and outputs of one epoch of real `edit_clip` calls."""

    editor_params: EncoderParams
    assignment: dict
    cfg: EditConfig
    edits: list[EditResult]
    clips: dict


@dataclass
class ProbeInputs:
    train: list[TrainStep] = field(default_factory=list)
    edit: list[EditStep] = field(default_factory=list)
    eval: list[tuple] = field(default_factory=list)  # (params, store, queries, gallery, metrics)


@dataclass
class Pass:
    setup_s: list[float]
    warmup_s: float
    cotrain_s: float
    eval_s: list[float]
    pipeline_s: float
    store: FeatureStore
    annotations: list
    assignment: dict
    warm: EncoderParams
    result: CoTrainResult
    evals: list[tuple[EncoderParams, RetrievalMetrics, str]]
    probes: ProbeInputs | None = None

    @property
    def metrics(self) -> RetrievalMetrics:
        return self.evals[0][1]

    @property
    def n_train(self) -> int:
        return len(self.assignment)


def _load(tr, data_dir: Path, checkpoint: Path | None = None):
    with tr.span("corpus.load_features"):
        store = load_features(data_dir / FEATURES)
    with tr.span("corpus.load_annotations"):
        annotations = load_annotations(data_dir / ANNOTATIONS, store)
    params = None
    if checkpoint is not None:
        with tr.span("encoder.checkpoint_load"):
            params = load_checkpoint(checkpoint)
    return store, annotations, params


def test_gallery(store: FeatureStore, annotations: list) -> tuple[dict, str]:
    """Test-split gallery as `clipedit eval` builds it: gt clips where
    annotated, initial-heuristic clips otherwise."""
    test = [a for a in annotations if a.split == "test"]
    fallback = build_initial_assignment(store, annotations, STRATEGY, split="test")
    gallery = {
        a.caption_id: ClipRef(a.video_id, a.gt_interval) if a.gt_interval is not None
        else fallback[a.caption_id]
        for a in test
    }
    n_gt = sum(a.gt_interval is not None for a in test)
    mode = "gt" if n_gt == len(test) else ("initial" if n_gt == 0 else "mixed")
    return gallery, mode


def _traced_train_epoch(tr, probes, params, store, clips, cfg, rng, optimizer) -> float:
    before = (params.copy(), copy.deepcopy(rng), copy.deepcopy(optimizer))
    with tr.span("encoder.train_epoch"):
        _, loss = train_epoch(params, store, clips, cfg, rng, optimizer)
    probes.train.append(TrainStep(*before, clips, cfg, params.copy()))
    return loss


def _stepped_warmup(tr, probes, store, assignment, cfg: TrainConfig) -> EncoderParams:
    """`clipedit.warmup`, one `train_epoch` at a time."""
    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.init_random(store.dim, rng=rng)
    optimizer = make_optimizer(cfg)
    for _ in range(cfg.epochs):
        _traced_train_epoch(tr, probes, params, store, assignment, cfg, rng, optimizer)
    return params


def _stepped_cotrain(tr, probes, warm, assignment, store, cfg: CoTrainConfig, on_epoch) -> CoTrainResult:
    """`clipedit.cotrain` with serial editing, one public call at a time:
    `edit_clip` per caption, then `train_epoch`, then `monitor_metric`."""
    with tr.span("cotrain.select_control_set"):
        control: ControlSet = select_control_set(warm, store, assignment, cfg.gamma)
    student = warm.copy()
    if cfg.teacher_mode == "random":
        t_rng = np.random.default_rng(cfg.train.seed + 1)
        teacher = EncoderParams.init_random(
            warm.d_in, warm.d_out, tau=warm.tau, rng=t_rng, dtype=warm.W_v.dtype,
        )
    else:
        teacher = warm.copy()
    with tr.span("cotrain.monitor"):
        best_monitor = monitor_metric(warm, store, control)
    best_student = warm.copy()
    best_epoch = 0
    epochs_since_improve = 0
    rng = np.random.default_rng(cfg.train.seed)
    optimizer = make_optimizer(cfg.train)
    log: list[dict] = []
    clips = dict(assignment)
    last_edits: list[EditResult] = []
    for epoch in range(1, cfg.max_epochs + 1):
        with tr.span("cotrain.epoch"):
            editor_params = student if cfg.teacher_mode == "self" else teacher
            with tr.span("editor.edit_all"):
                edits = []
                for cid in sorted(assignment):
                    with tr.span("editor.edit_clip"):
                        edits.append(edit_clip(editor_params, store, cid, assignment[cid], cfg.edit))
                clips = {
                    r.caption_id: ClipRef(assignment[r.caption_id].video_id, r.edited)
                    for r in edits
                }
            probes.edit.append(EditStep(editor_params.copy(), assignment, cfg.edit, edits, clips))
            last_edits = edits
            train_loss = _traced_train_epoch(
                tr, probes, student, store, clips, cfg.train, rng, optimizer
            )
            with tr.span("cotrain.monitor"):
                monitor = monitor_metric(student, store, control)
            improved = monitor > best_monitor
            teacher_updated = False
            if improved:
                best_monitor = monitor
                best_student = student.copy()
                best_epoch = epoch
                epochs_since_improve = 0
                if cfg.teacher_mode == "update":
                    teacher = student.copy()
                    teacher_updated = True
            else:
                epochs_since_improve += 1
            record = {
                "epoch": epoch,
                "train_loss": train_loss,
                "monitor": monitor,
                "n_applied_edits": sum(1 for e in edits if e.applied),
                "teacher_updated": teacher_updated,
            }
            log.append(record)
            on_epoch(record)
        if epochs_since_improve >= cfg.patience:
            break
    return CoTrainResult(
        best_student=best_student, final_student=student, teacher=teacher,
        clips=clips, log=log, best_epoch=best_epoch, best_monitor=best_monitor,
        control=control, last_edits=last_edits,
    )


def run_pass(wl: Workload, seed: int, data_dir: Path, out_dir: Path, tracer=None) -> Pass:
    """One cotrain-then-eval pass. With a tracer, steps the loops and records
    spans and probe inputs; without one, calls the package as the CLI does."""
    tr = tracer if tracer is not None else NO_TRACER
    probes = ProbeInputs() if tracer is not None else None
    train_cfg, co_cfg = wl.train(seed), wl.cotrain(seed)
    clock = time.perf_counter
    t0 = clock()
    with tr.span("bench.pipeline"):
        with tr.span("bench.cotrain_stage"):
            store, annotations, _ = _load(tr, data_dir)
            with tr.span("cotrain.build_initial_assignment"):
                assignment = build_initial_assignment(store, annotations, STRATEGY)
            t1 = clock()
            with tr.span("cotrain.warmup"):
                if probes is None:
                    warm, _ = warmup(store, annotations, STRATEGY, train_cfg, assignment)
                else:
                    warm = _stepped_warmup(tr, probes, store, assignment, train_cfg)
            t2 = clock()
            out_dir.mkdir(parents=True, exist_ok=True)
            with (out_dir / LOG).open("w", encoding="utf-8") as log_fh:
                def on_epoch(rec: dict) -> None:
                    log_fh.write(json.dumps(rec) + "\n")
                    log_fh.flush()

                with tr.span("cotrain.loop"):
                    if probes is None:
                        result = cotrain(warm, assignment, store, co_cfg, on_epoch=on_epoch)
                    else:
                        result = _stepped_cotrain(
                            tr, probes, warm, assignment, store, co_cfg, on_epoch
                        )
            t3 = clock()
            with tr.span("encoder.checkpoint_save"):
                save_checkpoint(out_dir / STUDENT, result.best_student)
            with tr.span("encoder.checkpoint_save"):
                save_checkpoint(out_dir / TEACHER, result.teacher)
            with tr.span("editor.write_edits"):
                write_edits(out_dir / EDITS, result.last_edits)
            with tr.span("evalrep.write_reports"):
                write_iou_hist(
                    out_dir / "iou_hist.csv",
                    iou_histogram([(r.initial, r.edited) for r in result.last_edits]),
                )
                gt = {a.caption_id: a.gt_interval for a in annotations if a.gt_interval is not None}
                gt_pairs = [(gt[r.caption_id], r.edited) for r in result.last_edits if r.caption_id in gt]
                if gt_pairs:
                    write_iou_hist(out_dir / "iou_hist_gt.csv", iou_histogram(gt_pairs))
        setup_s, eval_s, evals = [t1 - t0], [], []
        for _ in range(wl.evals_per_pass):
            t4 = clock()
            with tr.span("bench.eval_stage"):
                store_e, annotations_e, params = _load(tr, data_dir, out_dir / STUDENT)
                t5 = clock()
                with tr.span("evalrep.evaluate_retrieval"):
                    gallery, mode = test_gallery(store_e, annotations_e)
                    queries = sorted(gallery)
                    metrics = evaluate_retrieval(params, store_e, queries, gallery)
                t6 = clock()
                with tr.span("evalrep.write_reports"):
                    write_metrics(out_dir / METRICS, metrics, mode)
            setup_s.append(t5 - t4)
            eval_s.append(t6 - t5)
            evals.append((params, metrics, mode))
            if probes is not None:
                probes.eval.append((params, store_e, queries, gallery, metrics))
    return Pass(
        setup_s=setup_s, warmup_s=t2 - t1, cotrain_s=t3 - t2, eval_s=eval_s,
        pipeline_s=clock() - t0, store=store, annotations=annotations,
        assignment=assignment, warm=warm, result=result, evals=evals, probes=probes,
    )


# --------------------------------------------------------------------------
# checks


def train_iou_gt(p: Pass) -> float:
    gt = {a.caption_id: a.gt_interval for a in p.annotations}
    return float(np.mean([iou(gt[r.caption_id], r.edited) for r in p.result.last_edits]))


def fingerprint(p: Pass, out_dir: Path) -> dict:
    """The pass's outputs that must repeat exactly for a given seed."""
    return {
        "test_r1": p.metrics.r_at[1],
        "test_r5": p.metrics.r_at[5],
        "test_medr": p.metrics.med_r,
        "train_iou_gt": train_iou_gt(p),
        "edits_sha256": hashlib.sha256((out_dir / EDITS).read_bytes()).hexdigest(),
        "log_sha256": hashlib.sha256((out_dir / LOG).read_bytes()).hexdigest(),
        "student_sha256": hashlib.sha256((out_dir / STUDENT).read_bytes()).hexdigest(),
    }


def check_cotrain_stage(wl: Workload, p: Pass, out_dir: Path) -> list[str]:
    problems = []
    res = p.result
    if len(res.log) != wl.epochs or [r["epoch"] for r in res.log] != list(range(1, wl.epochs + 1)):
        problems.append(f"ran {len(res.log)} epochs, configured {wl.epochs}")
    if sorted(r.caption_id for r in res.last_edits) != sorted(p.assignment):
        problems.append("edits do not cover the train split exactly")
    bad = 0
    for r in res.last_edits:
        span = p.store.video_span(p.assignment[r.caption_id].video_id)
        e, init = r.edited, r.initial
        if init != p.assignment[r.caption_id].interval:
            bad += 1
        elif not (span.start_s <= e.start_s < e.end_s <= span.end_s):
            bad += 1
        elif not (init.start_s <= e.start_s and e.end_s <= init.end_s):
            bad += 1
    if bad:
        problems.append(f"{bad} edited clips outside their video span or initial clip")
    if len((out_dir / EDITS).read_text(encoding="utf-8").splitlines()) != len(res.last_edits):
        problems.append(f"{EDITS} line count differs from the edits")
    if not all(math.isfinite(r["train_loss"]) for r in res.log):
        problems.append("non-finite train loss")
    value = train_iou_gt(p)
    if not 0.0 < value <= 1.0:
        problems.append(f"train_iou_gt {value} outside (0, 1]")
    return problems


def check_eval_stage(p: Pass, out_dir: Path) -> list[list[str]]:
    """Problems of each eval pass, in order."""
    n_test = sum(a.split == "test" for a in p.annotations)
    written = json.loads((out_dir / METRICS).read_text(encoding="utf-8"))
    out = []
    for params, metrics, mode in p.evals:
        problems = []
        if not params.equals(p.result.best_student):
            problems.append("reloaded checkpoint differs from the best student")
        if metrics != p.metrics:
            problems.append(f"evaluation differs from the first: {metrics} vs {p.metrics}")
        if mode != "gt":
            problems.append(f"gallery mode {mode!r}, expected 'gt'")
        if not 0.0 < metrics.r_at[1] <= 1.0:
            problems.append(f"test R@1 {metrics.r_at[1]} outside (0, 1]")
        out.append(problems)
    if written.get("r1") != p.metrics.r_at[1] or written.get("n_queries") != n_test:
        out[-1].append(f"{METRICS} disagrees with the evaluation: {written}")
    return out


def compare_passes(a: Pass, b: Pass) -> list[str]:
    """Where pass `b` differs from pass `a`, bit for bit."""
    problems = []
    if not a.warm.equals(b.warm):
        problems.append("warm-up params differ")
    ra, rb = a.result, b.result
    if ra.log != rb.log:
        problems.append(f"per-epoch logs differ: {ra.log} vs {rb.log}")
    if ra.last_edits != rb.last_edits:
        n = sum(x != y for x, y in zip(ra.last_edits, rb.last_edits))
        problems.append(f"edits differ ({n} of {len(ra.last_edits)})")
    for name in ("best_student", "final_student", "teacher"):
        if not getattr(ra, name).equals(getattr(rb, name)):
            problems.append(f"{name} params differ")
    if ra.control != rb.control or ra.best_epoch != rb.best_epoch:
        problems.append("control set or best epoch differ")
    if a.metrics != b.metrics:
        problems.append(f"test metrics differ: {a.metrics} vs {b.metrics}")
    return problems


# --------------------------------------------------------------------------
# sub-layer probes (traced run only)


def _replay_train(tr, store, step: TrainStep) -> int:
    """Time pooling, InfoNCE and the optimizer step of one recorded epoch on
    copies of its inputs; the replay must land on the recorded params."""
    params = step.params_before.copy()
    rng = copy.deepcopy(step.rng_before)
    optimizer = copy.deepcopy(step.optimizer_before)
    cfg = step.cfg
    caption_ids = sorted(step.clips)
    order = rng.permutation(len(caption_ids))
    batches = 0
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2:
            continue
        batch_ids = [caption_ids[i] for i in idx]
        with tr.span("encoder.batch_pool"):
            clip_feats = [clip_features(store, step.clips[cid]) for cid in batch_ids]
            cap_feats = np.stack([store.caption_features[cid] for cid in batch_ids])
        with tr.span("encoder.info_nce"):
            _, grads = info_nce(params, clip_feats, cap_feats, with_grads=True)
        with tr.span("encoder.optimizer_step"):
            optimizer.step(params, grads)
        batches += 1
    if not params.equals(step.params_after):
        raise CheckFailed("train_epoch replay diverged from the recorded epoch")
    return batches


def _replay_edits(tr, store, step: EditStep) -> tuple[int, int]:
    """Time pooling, scoring, Top-K and consensus for each recorded edit;
    the replay must pick the recorded Top-K and winning pair."""
    n_candidates = n_pairs = 0
    for r in step.edits:
        ref = step.assignment[r.caption_id]
        grid = segment_grid(ref.interval, step.cfg.seg_len_s)
        if grid.n_segments < 2:
            continue
        with tr.span("editor.pool"):
            seg_feats = segment_features(store, ref.video_id, grid)
        with tr.span("editor.score"):
            sims = segment_similarities(
                step.editor_params, seg_feats, store.caption_features[r.caption_id]
            )
        with tr.span("editor.topk"):
            topk = top_k_segments(sims, step.cfg.k)
            cands = enumerate_candidates(topk, grid) if len(topk) >= 2 else []
        pair = None
        if cands:
            with tr.span("editor.consensus"):
                pair = cands[consensus_argmax([iv for _, iv in cands])][0]
        n_candidates += len(cands)
        n_pairs += len(cands) ** 2
        if tuple(topk) != r.topk_indices or pair != r.winner_pair:
            raise CheckFailed(f"edit replay for {r.caption_id} diverged")
    return n_candidates, n_pairs


def _replay_eval(tr, params, store, queries, gallery, metrics) -> None:
    gallery_ids = sorted(gallery)
    pos = {cid: i for i, cid in enumerate(gallery_ids)}
    with tr.span("evalrep.gallery_embed"):
        clip_embs = np.stack([
            embed_clip(params, clip_features(store, gallery[cid])) for cid in gallery_ids
        ])
    with tr.span("evalrep.rank"):
        ranks = [
            rank_of(clip_embs @ embed_caption(params, store.caption_features[q]), pos[q])
            for q in queries
        ]
    if recall_at_k(ranks, 1) != metrics.r_at[1]:
        raise CheckFailed("retrieval replay disagrees with evaluate_retrieval")


def run_probes(tr, p: Pass) -> dict:
    """Replay every recorded step under probe spans; returns exact counts."""
    counts = {"batches": 0, "candidates": 0, "iou_pairs": 0, "pool_segments": []}
    with tr.span("bench.probes"):
        for step in p.probes.train:
            counts["batches"] += _replay_train(tr, p.store, step)
        for step in p.probes.edit:
            n_cand, n_pairs = _replay_edits(tr, p.store, step)
            counts["candidates"] += n_cand
            counts["iou_pairs"] += n_pairs
            with tr.span("corpus.pool_pass"):
                segs = sum(clip_features(p.store, ref).shape[0] for ref in step.clips.values())
            counts["pool_segments"].append(segs)
        for inputs in p.probes.eval:
            _replay_eval(tr, *inputs)
    return counts
