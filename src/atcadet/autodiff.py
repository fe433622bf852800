"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Every tensor is float64; the float32 feature and caption matrices the
loaders keep are data, widened where they enter a tensor op. Tensors are
at most 2-D here (scalars are 0-d).
Ops record onto the active :class:`Tape` (a ``with Tape() as tape:``
block) whenever any input has ``requires_grad``; outside a tape, or
under :func:`no_grad`, they just compute values.

There is no generic op library. Each differentiable op is written where
it is used, as a forward computation plus a backward closure handed to
:func:`_result`. A train step runs four: the front end, the GRU stack and
the head live in ``model``, the loss (:func:`weighted_ce_logits`) here.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import DetachedTensor, NonFinite, NotScalarLoss, ShapeMismatch

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tensor:
    """A dense float64 array plus a gradient-tracking flag."""

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False, _validate: bool = True):
        arr = np.asarray(values, dtype=np.float64)
        if _validate and not np.isfinite(arr).all():
            raise NonFinite("tensor values must be finite")
        self.values = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Append-only record of ops, replayed in reverse by :func:`backward`.

    Single-threaded during recording; holds strong references to every
    tensor it touched so object identity stays unambiguous for its
    whole lifetime.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []
        self._produced: set[int] = set()
        self._prev = None

    def __enter__(self):
        self._prev = _active_tape()
        _STATE.tape = self
        return self

    def __exit__(self, *exc):
        _STATE.tape = self._prev
        self._prev = None
        return False

    def __len__(self):
        return len(self._nodes)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    prev = _active_tape()
    _STATE.tape = None
    try:
        yield
    finally:
        _STATE.tape = prev


class GradientMap:
    """Gradients keyed by tensor; untouched requires_grad tensors get zeros."""

    def __init__(self, bufs: dict, keep: list):
        self._bufs = bufs
        self._keep = keep  # tensor refs keeping ids stable

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if not t.requires_grad:
            raise DetachedTensor("tensor does not require grad")
        g = self._bufs.get(id(t))
        if g is None:
            return np.zeros_like(t.values)
        return g


def _result(values, inputs, backward_fn) -> Tensor:
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs), _validate=False)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._nodes.append((out, backward_fn))
        tape._produced.add(id(out))
    return out


def backward(tape: Tape, loss: Tensor) -> GradientMap:
    """Reverse sweep from a scalar loss produced on this tape."""
    if loss.values.size != 1:
        raise NotScalarLoss(f"loss has shape {loss.values.shape}, expected a scalar")
    if id(loss) not in tape._produced:
        raise DetachedTensor("loss was not produced on this tape")

    bufs: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    keep: list[Tensor] = [loss]

    def get_buf(t: Tensor):
        if not t.requires_grad:
            return None
        buf = bufs.get(id(t))
        if buf is None:
            buf = np.zeros_like(t.values)
            bufs[id(t)] = buf
            keep.append(t)
        return buf

    for out, fn in reversed(tape._nodes):
        g = bufs.get(id(out))
        if g is None:
            continue
        fn(g, get_buf)
    return GradientMap(bufs, keep)


def sigmoid_values(v: np.ndarray, out=None) -> np.ndarray:
    """Logistic function on a plain array, as ``0.5 * tanh(0.5 * v) + 0.5``:
    four in-place ops, written into ``out`` when given (it may be ``v``).

    It does not overflow on either tail and stays within 2**-53 of the
    exact logistic (the exp form ``1/(1+e^-v)`` it replaced is up to 1.5 *
    2**-53 off it). It gives 0 where the logistic is below about 3e-17, on
    the far negative tail: at v = -40 the exp form gave 4.2e-18. NaN
    passes through.
    """
    with np.errstate(under="ignore"):  # halving a subnormal rounds, an underflow to numpy
        out = np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0  # then halved: the bytes of 0.5 * t + 0.5, and no underflow
    out *= 0.5
    return out


def weighted_ce_logits(logits: Tensor, labels: np.ndarray, class_weights) -> Tensor:
    """Weighted cross-entropy over a batch of 2-class logit rows.

    ``loss = sum_i w[y_i] * (logsumexp(l_i) - l_i[y_i]) / sum_i w[y_i]``,
    the weighted mean of per-sample weighted CE numerators. Fused into one
    op so the log never sees an underflowed probability.
    """
    if logits.values.ndim != 2:
        raise ShapeMismatch(f"weighted_ce logits must be 2-D, got shape {logits.values.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (logits.values.shape[0],):
        raise ShapeMismatch(f"labels shape {labels.shape} vs logits {logits.values.shape}")
    w = np.asarray(class_weights, dtype=np.float64)[labels]
    m = logits.values.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits.values - m).sum(axis=1))
    picked = logits.values[np.arange(labels.size), labels]
    wsum = w.sum()
    out_v = np.float64((w * (lse - picked)).sum() / wsum)

    def bwd(g, get_buf):
        gl = get_buf(logits)
        if gl is not None:
            p = np.exp(logits.values - lse[:, None])
            p[np.arange(labels.size), labels] -= 1.0
            gl += (float(g) / wsum) * (w[:, None] * p)

    return _result(out_v, (logits,), bwd)
