"""Dual-encoder: linear projections into a shared space, InfoNCE training.

Clips and captions get separate projections (W_v, b_v) and (W_c, b_c);
segment rows are mean-pooled then projected then L2-normalized, captions
are projected then normalized, all through `embed_clips`/`embed_captions`.
Their projection is one batched product in which each row is its own
`row @ W.T`, so a row's embedding does not depend on the rows beside it.
`_unit` is the one norm rule. Similarity is the dot product of unit
vectors. Training minimizes a symmetric InfoNCE over in-batch negatives
with analytic gradients (no autodiff dependency); a projection whose norm
is not finite, or a weight that an optimizer step leaves non-finite,
raises `NumericError`.

The four weight tensors are views of one contiguous buffer, in `_TENSORS`
order (`_Layout`). Each starts a multiple of `_ALIGN` elements from the buffer
start (64 bytes of float32), with zero padding between tensors where a size
is not a multiple, so no view is less aligned than a fresh array. A training
step runs over that buffer: `_info_nce` writes its gradients into one float64
buffer of the same layout, and the optimizers update the weights and their
moments in place, bit for bit as the textbook per-tensor step would.

Checkpoints `.cfp` are float32 containers (`corpus.read_f32`); the
`corpus` module docstring describes their layout. Their payload is the four
tensors back to back, without the padding, so the bytes do not depend on
the buffer layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import ClipAssignment, FeatureStore, _captions, clip_means, read_f32, write_f32

CKPT_MAGIC = b"CFP1"
_CKPT_HEADER = "<IId"  # d_in, d_out, tau

_EPS = 1e-12

# The weight tensors, in field, buffer and checkpoint order.
_TENSORS = ("W_v", "b_v", "W_c", "b_c")

# Each tensor starts a multiple of _ALIGN elements into the flat buffer: 64 bytes
# of float32, 128 of float64, so no view is less aligned than a fresh array.
_ALIGN = 16


class NumericError(RuntimeError):
    """Raised when a loss, gradient or trained weight stops being finite."""


class _Layout:
    """Where the weight tensors of a (d_out, d_in) encoder sit in a flat buffer:
    in `_TENSORS` order, each starting a multiple of `_ALIGN` elements from the
    buffer start, with zeros between them. `payload` indexes the checkpoint's
    values, the tensors back to back, in the buffer: a slice when unpadded."""

    def __init__(self, d_out: int, d_in: int) -> None:
        self.shapes = {"W_v": (d_out, d_in), "b_v": (d_out,), "W_c": (d_out, d_in), "b_c": (d_out,)}
        self.slices, start = {}, 0
        for name in _TENSORS:
            self.slices[name] = slice(start, start + math.prod(self.shapes[name]))
            start = -(-self.slices[name].stop // _ALIGN) * _ALIGN
        self.size = self.slices["b_c"].stop
        self.payload = (slice(0, self.size) if self.size == 2 * d_out * (d_in + 1)
                        else np.concatenate([np.arange(s.start, s.stop) for s in self.slices.values()]))

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor by name, as a view of `buf`."""
        return {name: buf[s].reshape(self.shapes[name]) for name, s in self.slices.items()}

    def pack(self, tensors: dict[str, np.ndarray]) -> np.ndarray:
        """A fresh flat buffer holding `tensors`, one per name, in their common dtype."""
        buf = np.zeros(self.size, dtype=np.result_type(*tensors.values()))
        for name, view in self.views(buf).items():
            view[...] = tensors[name]
        return buf


_layout = functools.lru_cache(maxsize=None)(_Layout)


def _first_nonfinite(buf: np.ndarray, views: dict[str, np.ndarray]) -> str | None:
    """The first of `views` (tensors of `buf`) holding a non-finite value, or None.
    One scan covers the buffer; the tensors are scanned only to name one."""
    if np.isfinite(buf).all():
        return None
    return next((name for name, view in views.items() if not np.isfinite(view).all()), None)


def _tensor(name: str) -> property:
    def get(self: "EncoderParams") -> np.ndarray:
        return self._views[name]

    def put(self: "EncoderParams", value) -> None:
        self._views[name][...] = value

    return property(get, put, doc=f"{name}, a view of the flat weight buffer; assigning copies into it")


class EncoderParams:
    """W_v (d_out, d_in), b_v (d_out,), W_c (d_out, d_in), b_c (d_out,) and tau.

    The four tensors are views of one contiguous buffer, laid out by
    `_Layout`: `copy`, `equals`, the finiteness check, the optimizers and the
    checkpoint code each work on the buffer at once. Assigning a tensor copies
    into its view. All four share one dtype: a tensor whose dtype is not
    W_v's is a ValueError that names it.
    """

    W_v, b_v, W_c, b_c = map(_tensor, _TENSORS)

    def __init__(self, W_v, b_v, W_c, b_c, tau: float = 0.07) -> None:
        tensors = dict(zip(_TENSORS, map(np.asarray, (W_v, b_v, W_c, b_c))))
        d_out, d_in = tensors["W_v"].shape
        if tensors["W_c"].shape != (d_out, d_in):
            raise ValueError(f"W_c shape {tensors['W_c'].shape} != W_v shape {tensors['W_v'].shape}")
        if tensors["b_v"].shape != (d_out,) or tensors["b_c"].shape != (d_out,):
            raise ValueError("bias shapes must be (d_out,)")
        dtype = tensors["W_v"].dtype
        if (name := next((n for n, t in tensors.items() if t.dtype != dtype), None)) is not None:
            raise ValueError(f"{name} dtype {tensors[name].dtype} != W_v dtype {dtype}")
        self._init(_layout(d_out, d_in).pack(tensors), d_out, d_in, tau)

    def _init(self, buf: np.ndarray, d_out: int, d_in: int, tau: float) -> None:
        self._layout = _layout(d_out, d_in)
        self._buf, self._views, self.tau = buf, self._layout.views(buf), tau
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if (name := self._nonfinite()) is not None:
            raise ValueError(f"non-finite values in {name}")

    @classmethod
    def _of(cls, buf: np.ndarray, d_out: int, d_in: int, tau: float) -> "EncoderParams":
        """Params whose weights are `buf`, a flat buffer in the (d_out, d_in) layout (not copied)."""
        params = cls.__new__(cls)
        params._init(buf, d_out, d_in, tau)
        return params

    def __reduce__(self):
        return EncoderParams._of, (self._buf, self.d_out, self.d_in, self.tau)

    def _nonfinite(self) -> str | None:
        """The first weight tensor holding a non-finite value, or None."""
        return _first_nonfinite(self._buf, self._views)

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
        return cls(W_v=eye, b_v=zero, W_c=eye, b_c=zero, tau=tau)

    def copy(self) -> "EncoderParams":
        return EncoderParams._of(self._buf.copy(), self.d_out, self.d_in, self.tau)

    def equals(self, other: "EncoderParams") -> bool:
        return (self.tau == other.tau and self.W_v.shape == other.W_v.shape
                and np.array_equal(self._buf, other._buf))


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


def _roundoff(n: int, *dtypes: np.dtype) -> tuple[float, float]:
    """(u, gamma_n): the unit roundoff u of the least precise of `dtypes` and
    gamma_n = n*u / (1 - n*u). Any float evaluation of a sum of n terms or a
    length-n dot product, in any order and with or without FMA, lies within
    gamma_n * sum|x_i y_i| of the real value. Past n*u > 1e-3 the bound is not
    worth using (its callers' 1.01 norm factors no longer hold): gamma_n is inf.
    """
    u = max(float(np.finfo(dt).eps) / 2 for dt in dtypes)
    return u, n * u / (1 - n * u) if n * u <= 1e-3 else float("inf")


def _unit(z: np.ndarray, what: str | None = None, ids: Sequence[str] | None = None):
    """(z / n, n) with n each row's norm. With no `what`, n is clamped below at _EPS;
    with a `what` ("clip", "caption"), a norm below _EPS, NaN or inf is a ValueError
    naming the row's entry in `ids`."""
    n = np.linalg.norm(z, axis=-1, keepdims=True)
    if what is None:
        n = np.maximum(n, _EPS)
    elif (bad := np.flatnonzero(~(n >= _EPS) | np.isinf(n))).size:  # a NaN norm fails n >= _EPS
        kind = "zero-norm" if n.flat[bad[0]] < _EPS else "non-finite-norm"
        name = f" {ids[bad[0]]!r}" if ids is not None else ""
        raise ValueError(f"degenerate embedding: {kind} {what}{name}")
    return z / n, n


def embed_clip(params: EncoderParams, seg_feats: np.ndarray) -> np.ndarray:
    """normalize(W_v @ meanpool(seg_feats) + b_v): `embed_clips` of the one pooled row."""
    seg_feats = np.asarray(seg_feats)
    if seg_feats.ndim != 2 or seg_feats.shape[0] < 1:
        raise ValueError("segment features must be (n_segments >= 1, d_in)")
    return embed_clips(params, [seg_feats.mean(axis=0)])[0]


def embed_caption(params: EncoderParams, cap_feat: np.ndarray) -> np.ndarray:
    """normalize(W_c @ caption + b_c): `embed_captions` of the one row."""
    return embed_captions(params, [cap_feat])[0]


def segment_similarities(
    teacher: EncoderParams, seg_feats: np.ndarray, cap_feat: np.ndarray
) -> np.ndarray:
    """Cosine of each individually embedded segment against the caption:
    `_segment_scores` with the caption's one embedding on every row."""
    cap = embed_caption(teacher, cap_feat)
    return _segment_scores(teacher, seg_feats, np.broadcast_to(cap, (len(seg_feats), cap.size)))


def _segment_scores(teacher: EncoderParams, segs: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Segment row i, embedded by `_embed_rows` with the _EPS clamp, dotted with
    the unit caption row caps[i]. Each row is its own product and its own dot (the
    one `select_control_set` takes), so a row's score does not depend on the rows
    beside it: a block of clips scores each clip as one-caption calls would."""
    Z = _embed_rows(segs, teacher.W_v, teacher.b_v)
    return np.matmul(Z[:, None, :], caps[:, :, None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")  # `_unit` rejects an overflowed row, or embeds it as NaN or 0
def _embed_rows(
    rows: Sequence[np.ndarray] | np.ndarray, W: np.ndarray, b: np.ndarray,
    what: str | None = None, ids: Sequence[str] | None = None,
) -> np.ndarray:
    # Each row is its own (1, d_in) @ W.T, the product `row @ W.T` makes, so a
    # row's embedding does not depend on the rows beside it. `what` and `ids`
    # go to `_unit`: with no `what`, a norm is clamped at _EPS and not checked.
    if not len(rows):
        return np.empty((0, W.shape[0]), dtype=np.result_type(W, b))
    return _unit(np.matmul(np.asarray(rows)[:, None, :], W.T)[:, 0] + b, what, ids)[0]


def embed_clips(
    params: EncoderParams, pooled: Sequence[np.ndarray] | np.ndarray,
    ids: Sequence[str] | None = None,
) -> np.ndarray:
    """normalize(W_v @ p + b_v) for each pooled clip vector p.

    `ids`, one per row, name a degenerate row in the error.
    """
    return _embed_rows(pooled, params.W_v, params.b_v, "clip", ids)


def embed_captions(
    params: EncoderParams, caps: Sequence[np.ndarray] | np.ndarray,
    ids: Sequence[str] | None = None,
) -> np.ndarray:
    """normalize(W_c @ c + b_c) for each caption vector c."""
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
    if not with_grads:
        return _info_nce(params, means, cap_feats, None), None
    grads = np.zeros(params._layout.size)
    return _info_nce(params, means, cap_feats, grads), params._layout.views(grads)


def _info_nce(params: EncoderParams, means: np.ndarray, cap_feats: np.ndarray, grads: np.ndarray | None) -> float:
    """`info_nce`'s loss on pooled rows. Given `grads`, a float64 flat buffer in
    the params' layout, also writes the four gradients into their views of it."""
    B = len(means)
    tau = params.tau

    # forward, keeping the clamped norms for backprop
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is caught below
        U, norm_v = _unit(means @ params.W_v.T + params.b_v)  # (B, d_out)
        V, norm_c = _unit(cap_feats @ params.W_c.T + params.b_c)
    for name, norm in (("W_v", norm_v), ("W_c", norm_c)):
        if not np.isfinite(norm).all():
            bad = np.flatnonzero(~np.isfinite(norm))
            raise NumericError(f"non-finite norm of the {name} projection at batch index {int(bad[0])}")
    S = U @ V.T

    A = S / tau
    P = np.exp(A - A.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)  # row softmax: clip i over captions
    Q = np.exp(A - A.max(axis=0, keepdims=True))
    Q /= Q.sum(axis=0, keepdims=True)  # column softmax: caption j over clips

    diag = np.arange(B)
    with np.errstate(divide="ignore"):  # log(0) is caught as NumericError below
        terms = -0.5 / B * (np.log(P[diag, diag]) + np.log(Q[diag, diag]))
    if not np.isfinite(terms).all():
        bad = np.flatnonzero(~np.isfinite(terms))
        raise NumericError(f"non-finite loss contribution at batch index {int(bad[0])}")
    loss = float(terms.sum())
    if grads is None:
        return loss

    # (P + Q - 2 I) / (2 B tau), P + Q summed in their own dtype
    dS = np.add(P, Q, out=np.empty((B, B)))
    dS[diag, diag] -= 2.0
    dS /= 2.0 * B * tau
    dU = dS @ V
    dV = dS.T @ U
    # through L2 normalization: dz = (g - (g.u)u)/||z||
    for dz, unit, norm in ((dU, U, norm_v), (dV, V, norm_c)):
        dz -= (dz * unit).sum(axis=1, keepdims=True) * unit
        dz /= norm
    g = params._layout.views(grads)
    np.matmul(dU.T, means, out=g["W_v"])
    np.sum(dU, axis=0, out=g["b_v"])
    np.matmul(dV.T, cap_feats, out=g["W_c"])
    np.sum(dV, axis=0, out=g["b_c"])
    if (name := _first_nonfinite(grads, g)) is not None:
        raise NumericError(f"non-finite gradient in {name}")
    return loss


@dataclass
class AdamState:
    """Adam with bias correction over the flat weight buffer.

    The moments m and v are float64 buffers in the params' layout, made at the
    first step. Each step updates them in place, in the textbook per-tensor
    expression order, through two float64 scratch buffers.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def step(self, params: EncoderParams, grads: dict[str, np.ndarray]) -> None:
        """One step with `grads` keyed by tensor name."""
        self._step(params, params._layout.pack(grads))

    def _step(self, params: EncoderParams, g: np.ndarray) -> None:
        """One step with `g`, the gradients as a flat buffer in the params' layout."""
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros(g.size), np.zeros(g.size)
            self._scratch = np.empty(g.size), np.empty(g.size)
        m, v, (a, b) = self.m, self.v, self._scratch
        ag = a if g.dtype == a.dtype else np.empty_like(g)  # (1 - beta) * g is taken in g's dtype
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=ag)
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=ag)
        ag *= g
        v += ag
        np.divide(m, 1 - self.beta1**self.t, out=a)  # m_hat
        np.divide(v, 1 - self.beta2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.eps
        a *= self.lr
        a /= b
        _subtract_into(params._buf, a)


@dataclass
class SGDState:
    lr: float = 1e-2
    _scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def step(self, params: EncoderParams, grads: dict[str, np.ndarray]) -> None:
        """One step with `grads` keyed by tensor name."""
        self._step(params, params._layout.pack(grads))

    def _step(self, params: EncoderParams, g: np.ndarray) -> None:
        """One step with `g`, the gradients as a flat buffer in the params' layout."""
        if self._scratch is None or self._scratch.dtype != g.dtype or self._scratch.size != g.size:
            self._scratch = np.empty_like(g)
        _subtract_into(params._buf, np.multiply(g, self.lr, out=self._scratch))


def _subtract_into(p: np.ndarray, d: np.ndarray) -> None:
    """p = (p - d).astype(p.dtype), in place; `d` may be overwritten."""
    if np.result_type(p, d) == p.dtype:
        p -= d
    else:
        np.subtract(p, d, out=d)
        p[...] = d


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
    return pooled, np.stack(_captions(store, ids))


def _train_epoch(
    params: EncoderParams, pooled: np.ndarray, caps: np.ndarray, cfg: TrainConfig,
    rng: np.random.Generator, optimizer: AdamState | SGDState,
) -> tuple[EncoderParams, float]:
    """`train_epoch` on `_train_rows`' matrices: each batch indexes them."""
    order = rng.permutation(len(caps))
    losses = []
    grads = np.zeros(params._layout.size)  # every batch's gradients, written in place
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        if idx.size < 2:
            continue
        loss = _info_nce(params, pooled[idx], caps[idx], grads)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight is caught below
            optimizer._step(params, grads)
        if (name := params._nonfinite()) is not None:
            raise NumericError(f"non-finite values in {name} after an optimizer step")
        losses.append(loss)
    return params, float(np.mean(losses)) if losses else 0.0


def save_checkpoint(path: str | Path, params: EncoderParams) -> None:
    write_f32(path, CKPT_MAGIC, _CKPT_HEADER, (params.d_in, params.d_out, params.tau),
              [params._buf[params._layout.payload]])


def load_checkpoint(path: str | Path) -> EncoderParams:
    (d_in, d_out, tau), flat = read_f32(path, CKPT_MAGIC, _CKPT_HEADER,
                                        lambda d_in, d_out, tau: 2 * d_out * (d_in + 1))
    # a fresh buffer, not a view of the file's: BLAS may round a misaligned `row @ W.T` differently
    layout = _layout(d_out, d_in)
    buf = np.zeros(layout.size, dtype=flat.dtype)
    buf[layout.payload] = flat
    try:
        return EncoderParams._of(buf, d_out, d_in, tau)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
