"""Dual-encoder: linear projections into a shared space, InfoNCE training.

Clips and captions get separate projections (W_v, b_v) and (W_c, b_c);
segment rows are mean-pooled then projected then L2-normalized, captions
are projected then normalized. Similarity is the dot product of unit
vectors. Training minimizes a symmetric InfoNCE over in-batch negatives
with analytic gradients (no autodiff dependency).

Checkpoints `.cfp` are float32 containers (`corpus.read_f32`); the
`corpus` module docstring describes their layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import ClipAssignment, FeatureStore, clip_means, read_f32, write_f32

CKPT_MAGIC = b"CFP1"
_CKPT_HEADER = "<IId"  # d_in, d_out, tau

_EPS = 1e-12


class NumericError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass
class EncoderParams:
    W_v: np.ndarray
    b_v: np.ndarray
    W_c: np.ndarray
    b_c: np.ndarray
    tau: float = 0.07

    def __post_init__(self) -> None:
        d_out, d_in = self.W_v.shape
        if self.W_c.shape != (d_out, d_in):
            raise ValueError(f"W_c shape {self.W_c.shape} != W_v shape {self.W_v.shape}")
        if self.b_v.shape != (d_out,) or self.b_c.shape != (d_out,):
            raise ValueError("bias shapes must be (d_out,)")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        for name in ("W_v", "b_v", "W_c", "b_c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def d_in(self) -> int:
        return self.W_v.shape[1]

    @property
    def d_out(self) -> int:
        return self.W_v.shape[0]

    @classmethod
    def init_random(
        cls, d_in: int, d_out: int | None = None, tau: float = 0.07,
        rng: np.random.Generator | None = None, dtype=np.float32,
    ) -> "EncoderParams":
        """Uniform [-1/sqrt(d_in), 1/sqrt(d_in)] weights, zero biases."""
        if rng is None:
            rng = np.random.default_rng()
        d_out = d_in if d_out is None else d_out
        bound = 1.0 / np.sqrt(d_in)
        return cls(
            W_v=rng.uniform(-bound, bound, (d_out, d_in)).astype(dtype),
            b_v=np.zeros(d_out, dtype=dtype),
            W_c=rng.uniform(-bound, bound, (d_out, d_in)).astype(dtype),
            b_c=np.zeros(d_out, dtype=dtype),
            tau=tau,
        )

    @classmethod
    def identity(cls, d: int, tau: float = 0.07, dtype=np.float64) -> "EncoderParams":
        """Both projections the identity: embeddings are normalized inputs."""
        eye = np.eye(d, dtype=dtype)
        zero = np.zeros(d, dtype=dtype)
        return cls(W_v=eye.copy(), b_v=zero.copy(), W_c=eye.copy(), b_c=zero.copy(), tau=tau)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            W_v=self.W_v.copy(), b_v=self.b_v.copy(),
            W_c=self.W_c.copy(), b_c=self.b_c.copy(), tau=self.tau,
        )

    def equals(self, other: "EncoderParams") -> bool:
        return (
            self.tau == other.tau
            and np.array_equal(self.W_v, other.W_v)
            and np.array_equal(self.b_v, other.b_v)
            and np.array_equal(self.W_c, other.W_c)
            and np.array_equal(self.b_c, other.b_c)
        )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    epochs: int = 10
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be sgd|adam, got {self.optimizer!r}")
        for name in ("beta1", "beta2"):  # beta = 1 zeroes Adam's bias-correction divisor
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:  # eps = 0 divides 0 by 0 for a weight whose gradients were all 0
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _unit(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z / n, n) with n each row's norm, clamped below at _EPS."""
    n = np.maximum(np.linalg.norm(z, axis=-1, keepdims=True), _EPS)
    return z / n, n


def _normalize(z: np.ndarray, what: str, ids: Sequence[str] | None = None) -> np.ndarray:
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    bad = np.flatnonzero(norm < _EPS)
    if bad.size:
        name = f" {ids[bad[0]]!r}" if ids is not None else ""
        raise ValueError(f"degenerate embedding: zero-norm {what}{name}")
    return z / norm


def embed_clip(params: EncoderParams, seg_feats: np.ndarray) -> np.ndarray:
    """normalize(W_v @ meanpool(seg_feats) + b_v)."""
    seg_feats = np.asarray(seg_feats)
    if seg_feats.ndim != 2 or seg_feats.shape[0] < 1:
        raise ValueError("segment features must be (n_segments >= 1, d_in)")
    pooled = seg_feats.mean(axis=0) @ params.W_v.T + params.b_v
    return _normalize(pooled, "clip")


def embed_caption(params: EncoderParams, cap_feat: np.ndarray) -> np.ndarray:
    """normalize(W_c @ caption + b_c)."""
    return _normalize(np.asarray(cap_feat) @ params.W_c.T + params.b_c, "caption")


def segment_similarities(
    teacher: EncoderParams, seg_feats: np.ndarray, cap_feat: np.ndarray
) -> np.ndarray:
    """Cosine of each individually embedded segment against the caption."""
    return _unit(seg_feats @ teacher.W_v.T + teacher.b_v)[0] @ embed_caption(teacher, cap_feat)


def _embed_rows(
    rows: Sequence[np.ndarray] | np.ndarray, W: np.ndarray, b: np.ndarray,
    what: str, ids: Sequence[str] | None,
) -> np.ndarray:
    # Each row goes through the same `row @ W.T` call as the one-item
    # functions; one (N, d_in) @ W.T product would round differently.
    # The bias add and the row-wise normalization are elementwise, so the
    # stacked result equals stacking the one-item embeddings bit for bit.
    projected = [np.asarray(row) @ W.T for row in rows]
    if not projected:
        return np.empty((0, W.shape[0]), dtype=np.result_type(W, b))
    return _normalize(np.stack(projected) + b, what, ids)


def embed_clips(
    params: EncoderParams, pooled: Sequence[np.ndarray] | np.ndarray,
    ids: Sequence[str] | None = None,
) -> np.ndarray:
    """Rows of `embed_clip` for each pooled clip vector p as a one-row matrix.

    `ids`, one per row, name a degenerate row in the error.
    """
    return _embed_rows(pooled, params.W_v, params.b_v, "clip", ids)


def embed_captions(
    params: EncoderParams, caps: Sequence[np.ndarray] | np.ndarray,
    ids: Sequence[str] | None = None,
) -> np.ndarray:
    """Rows of `embed_caption(params, c)` for each caption vector c."""
    return _embed_rows(caps, params.W_c, params.b_c, "caption", ids)


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v))


def info_nce(
    params: EncoderParams,
    clip_batch: list[np.ndarray],
    cap_batch: np.ndarray | list[np.ndarray],
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Symmetric InfoNCE over a batch of aligned (clip, caption) pairs.

    L = -(1/2B) * sum_i [ log softmax_row(S/tau)_ii + log softmax_col(S/tau)_ii ]
    where S_ij = <clip_i, caption_j> on unit embeddings. Returns (loss,
    grads) with grads keyed W_v/b_v/W_c/b_c, or (loss, None) when
    with_grads is False. A batch of one pair has no negatives: loss 0.
    """
    cap_feats = np.asarray(cap_batch)
    if not 0 < len(clip_batch) == cap_feats.shape[0]:
        raise ValueError(f"batch mismatch: {len(clip_batch)} clips vs {cap_feats.shape[0]} captions")
    means = np.stack([np.asarray(sf).mean(axis=0) for sf in clip_batch])  # (B, d_in)
    return _info_nce(params, means, cap_feats, with_grads)


def _info_nce(params: EncoderParams, means: np.ndarray, cap_feats: np.ndarray, with_grads: bool):
    B = len(means)
    tau = params.tau

    # forward, keeping the clamped norms for backprop
    U, norm_v = _unit(means @ params.W_v.T + params.b_v)  # (B, d_out)
    V, norm_c = _unit(cap_feats @ params.W_c.T + params.b_c)
    S = U @ V.T

    A = S / tau
    P = np.exp(A - A.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)  # row softmax: clip i over captions
    Q = np.exp(A - A.max(axis=0, keepdims=True))
    Q /= Q.sum(axis=0, keepdims=True)  # column softmax: caption j over clips

    diag = np.arange(B)
    with np.errstate(divide="ignore"):  # log(0) is caught as NumericError below
        terms = -0.5 / B * (np.log(P[diag, diag]) + np.log(Q[diag, diag]))
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        raise NumericError(f"non-finite loss contribution at batch index {int(bad[0])}")
    loss = float(terms.sum())
    if not with_grads:
        return loss, None

    dS = (P + Q - 2.0 * np.eye(B)) / (2.0 * B * tau)
    dU = dS @ V
    dV = dS.T @ U
    # through L2 normalization: dz = (g - (g.u)u)/||z||
    d_pooled = (dU - (dU * U).sum(axis=1, keepdims=True) * U) / norm_v
    d_zc = (dV - (dV * V).sum(axis=1, keepdims=True) * V) / norm_c

    grads = {
        "W_v": d_pooled.T @ means,
        "b_v": d_pooled.sum(axis=0),
        "W_c": d_zc.T @ cap_feats,
        "b_c": d_zc.sum(axis=0),
    }
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    return loss, grads


@dataclass
class AdamState:
    """Adam with bias correction; one moment slot per parameter tensor."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: EncoderParams, grads: dict[str, np.ndarray]) -> None:
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
class SGDState:
    lr: float = 1e-2

    def step(self, params: EncoderParams, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            p = getattr(params, name)
            setattr(params, name, (p - self.lr * g).astype(p.dtype))


def make_optimizer(cfg: TrainConfig) -> AdamState | SGDState:
    if cfg.optimizer == "sgd":
        return SGDState(lr=cfg.learning_rate)
    return AdamState(lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)


def train_epoch(
    params: EncoderParams,
    store: FeatureStore,
    clips: ClipAssignment,
    cfg: TrainConfig,
    rng: np.random.Generator,
    optimizer: AdamState | SGDState | None = None,
) -> tuple[EncoderParams, float]:
    """One shuffled pass over the assigned clips; params updated in place.

    A trailing partial batch is dropped only when it would hold a single
    pair (no negative to contrast against). Pass `optimizer` to keep
    moment state across epochs. Returns (params, mean batch loss).
    """
    if not clips:
        return params, 0.0
    return _train_epoch(params, *_train_rows(store, clips), cfg, rng, optimizer or make_optimizer(cfg))


def _train_rows(store: FeatureStore, clips: ClipAssignment) -> tuple[np.ndarray, np.ndarray]:
    """The pooled clip rows and caption rows of `clips` by caption id; keep them while `clips` lives."""
    ids = sorted(clips)
    pooled = clip_means(store, [clips[cid] for cid in ids])
    return pooled, np.stack([store.caption_features[cid] for cid in ids])


def _train_epoch(
    params: EncoderParams, pooled: np.ndarray, caps: np.ndarray, cfg: TrainConfig,
    rng: np.random.Generator, optimizer: AdamState | SGDState,
) -> tuple[EncoderParams, float]:
    """`train_epoch` on `_train_rows`' matrices: each batch indexes them."""
    order = rng.permutation(len(caps))
    losses = []
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2:
            continue
        loss, grads = _info_nce(params, pooled[idx], caps[idx], with_grads=True)
        optimizer.step(params, grads)
        losses.append(loss)
    return params, float(np.mean(losses)) if losses else 0.0


def save_checkpoint(path: str | Path, params: EncoderParams) -> None:
    write_f32(path, CKPT_MAGIC, _CKPT_HEADER, (params.d_in, params.d_out, params.tau),
              [params.W_v, params.b_v, params.W_c, params.b_c])


def load_checkpoint(path: str | Path) -> EncoderParams:
    (d_in, d_out, tau), flat = read_f32(path, CKPT_MAGIC, _CKPT_HEADER,
                                        lambda d_in, d_out, tau: 2 * d_out * (d_in + 1))
    # fresh arrays, not views of the file buffer: BLAS may round a misaligned `row @ W.T` differently
    w = d_out * d_in
    W_v, b_v, W_c, b_c = (a.copy() for a in np.split(flat, [w, w + d_out, 2 * w + d_out]))
    try:
        return EncoderParams(W_v.reshape(d_out, d_in), b_v, W_c.reshape(d_out, d_in), b_c, tau)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
