"""Warm-up, control-set selection, and the student-teacher co-training loop.

Each epoch the teacher re-edits every training clip from its original
initial boundary, the student trains one epoch on the edited clips, and
the student is scored by caption-to-clip R@1 on a frozen control set of
high-confidence pairs. A strict improvement copies the student into the
teacher; M consecutive non-improving epochs stop the loop. An epoch whose
editor weights equal those of the last edit keeps that edit, which
re-editing would repeat exactly; otherwise each caption whose Top-K
segments did not change keeps its last result, and only the others are
decided again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import CaptionAnnotation, ClipAssignment, ClipRef, FeatureStore
from .editor import EditConfig, EditResult, _edit_all
from .encoder import (
    EncoderParams,
    TrainConfig,
    _train_epoch,
    _train_rows,
    embed_captions,
    embed_clips,
    make_optimizer,
)
from .evalrep import _evaluate_pooled
from .timeline import InitStrategy, Interval, initial_clips, jitter

TEACHER_MODES = ("update", "frozen", "random", "self")


@dataclass(frozen=True)
class CoTrainConfig:
    gamma: float = 0.0
    patience: int = 5
    max_epochs: int = 50
    teacher_mode: str = "update"
    train: TrainConfig = field(default_factory=TrainConfig)
    edit: EditConfig = field(default_factory=EditConfig)

    def __post_init__(self) -> None:
        if not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [-1,1], got {self.gamma}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.teacher_mode not in TEACHER_MODES:
            raise ValueError(
                f"teacher_mode must be one of {TEACHER_MODES}, got {self.teacher_mode!r}"
            )


@dataclass(frozen=True)
class ControlSet:
    caption_ids: tuple[str, ...]
    frozen_clips: ClipAssignment
    # row i pools frozen_clips[caption_ids[i]]; the monitor ranks against it
    pooled: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.caption_ids:
            raise ValueError("control set empty; lower gamma")


@dataclass
class CoTrainResult:
    best_student: EncoderParams
    final_student: EncoderParams
    teacher: EncoderParams
    clips: ClipAssignment
    log: list[dict]
    best_epoch: int
    best_monitor: float
    control: ControlSet
    last_edits: list[EditResult]


def build_initial_assignment(
    store: FeatureStore,
    annotations: list[CaptionAnnotation],
    strategy: InitStrategy,
    split: str = "train",
) -> ClipAssignment:
    """Initial clip per caption from neighboring timestamps within its video."""
    anns = sorted((a for a in annotations if a.split == split), key=lambda a: (a.video_id, a.timestamp_s))
    spans = {v: store.video_span(v) for v in dict.fromkeys(a.video_id for a in anns)}
    t = np.array([a.timestamp_s for a in anns], dtype=np.float64)
    same = np.array([a.video_id == b.video_id for a, b in zip(anns, anns[1:])], dtype=bool)
    prev_t = np.append(np.nan, np.where(same, t[:-1], np.nan))  # NaN: no neighbor in the video
    next_t = np.append(np.where(same, t[1:], np.nan), np.nan)
    start, end = initial_clips(
        prev_t, t, next_t, [spans[a.video_id].start_s for a in anns],
        [spans[a.video_id].end_s for a in anns], strategy, [a.caption_id for a in anns],
    )
    clips = zip(start.tolist(), end.tolist())
    return {a.caption_id: ClipRef(a.video_id, Interval(*clip)) for a, clip in zip(anns, clips)}


def apply_jitter(
    clips: ClipAssignment,
    fraction: float,
    max_jitter_s: float,
    store: FeatureStore,
    rng: np.random.Generator,
) -> ClipAssignment:
    """Jitter both boundaries of a random `fraction` of the clips."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"jitter fraction must be in [0,1], got {fraction}")
    ids = sorted(clips)
    n_pick = int(round(fraction * len(ids)))
    if n_pick == 0 or max_jitter_s == 0:
        return dict(clips)
    out = dict(clips)
    for i in sorted(rng.choice(len(ids), size=n_pick, replace=False).tolist()):
        ref = clips[ids[i]]
        span = store.video_span(ref.video_id)
        out[ids[i]] = ClipRef(ref.video_id, jitter(ref.interval, max_jitter_s, span, rng))
    return out


def warmup(
    store: FeatureStore,
    annotations: list[CaptionAnnotation],
    strategy: InitStrategy,
    cfg: TrainConfig,
    assignment: ClipAssignment | None = None,
) -> tuple[EncoderParams, ClipAssignment]:
    """Train a fresh encoder on initial clips; returns (params, assignment).

    A prebuilt `assignment` (e.g. a jittered one) overrides the
    timestamp-derived initial clips.
    """
    if assignment is None:
        assignment = build_initial_assignment(store, annotations, strategy)
    if not assignment:
        raise ValueError("no train-split captions to warm up on")
    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.init_random(store.dim, rng=rng)
    optimizer = make_optimizer(cfg)
    rows = _train_rows(store, assignment)
    for _ in range(cfg.epochs):
        _train_epoch(params, *rows, cfg, rng, optimizer)
    return params, assignment


def select_control_set(
    params: EncoderParams, store: FeatureStore, clips: ClipAssignment, gamma: float
) -> ControlSet:
    """Captions whose clip-caption similarity strictly exceeds gamma, with
    their current boundaries frozen."""
    ids = sorted(clips)
    pooled, caps = _train_rows(store, clips)
    U = embed_clips(params, pooled, ids)
    V = embed_captions(params, caps, ids)
    # each (1, d) @ (d, 1) is the dot `similarity(u, v)` takes, compared in float64
    # as its Python float is: a float32 compare would round gamma first
    scores = np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0].astype(np.float64)
    keep = np.flatnonzero(scores > gamma).tolist()
    return ControlSet(
        caption_ids=tuple(ids[i] for i in keep),
        frozen_clips={ids[i]: clips[ids[i]] for i in keep},
        pooled=pooled[keep],
    )


def monitor_metric(params: EncoderParams, store: FeatureStore, control: ControlSet) -> float:
    """R@1 of control captions against the control set's frozen clips."""
    ids = list(control.caption_ids)
    return _evaluate_pooled(params, store, ids, ids, control.pooled).r_at[1]


def cotrain(
    warm_params: EncoderParams,
    assignment: ClipAssignment,
    store: FeatureStore,
    cfg: CoTrainConfig,
    on_epoch: Callable[[dict], None] | None = None,
) -> CoTrainResult:
    """Run the editing/training loop; see module docstring for the shape.

    `on_epoch` receives each log record as it is produced, so partial logs
    survive a mid-run failure.
    """
    control = select_control_set(warm_params, store, assignment, cfg.gamma)
    student = warm_params.copy()
    if cfg.teacher_mode == "random":
        t_rng = np.random.default_rng(cfg.train.seed + 1)
        teacher = EncoderParams.init_random(
            warm_params.d_in, warm_params.d_out, tau=warm_params.tau,
            rng=t_rng, dtype=warm_params.W_v.dtype,
        )
    else:
        teacher = warm_params.copy()

    best_monitor = monitor_metric(warm_params, store, control)
    best_student = warm_params.copy()
    best_epoch = 0
    epochs_since_improve = 0
    rng = np.random.default_rng(cfg.train.seed)
    optimizer = make_optimizer(cfg.train)
    log: list[dict] = []
    clips = dict(assignment)
    last_edits: list[EditResult] = []
    edited_by: EncoderParams | None = None  # the params behind clips/last_edits

    for epoch in range(1, cfg.max_epochs + 1):
        editor_params = student if cfg.teacher_mode == "self" else teacher
        # every epoch edits the same assignment with the same config, so
        # unchanged editor weights would reproduce the last edits exactly
        if edited_by is None or not editor_params.equals(edited_by):
            # a caption whose Top-K did not change keeps its last result
            clips, last_edits = _edit_all(editor_params, store, assignment, cfg.edit, last_edits)
            edited_by = editor_params.copy()
            rows = _train_rows(store, clips)
        _, train_loss = _train_epoch(student, *rows, cfg.train, rng, optimizer)
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
            "n_applied_edits": sum(1 for e in last_edits if e.applied),
            "teacher_updated": teacher_updated,
        }
        log.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if epochs_since_improve >= cfg.patience:
            break

    return CoTrainResult(
        best_student=best_student,
        final_student=student,
        teacher=teacher,
        clips=clips,
        log=log,
        best_epoch=best_epoch,
        best_monitor=best_monitor,
        control=control,
        last_edits=last_edits,
    )
