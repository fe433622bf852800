"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

Everything is float64. Tensors are at most 2-D here (scalars are 0-d);
sequences are handled by the callers as row-blocks. Ops record onto the
active :class:`Tape` (a ``with Tape() as tape:`` block) whenever any input
has ``requires_grad``; outside a tape, or under :func:`no_grad`, they just
compute values.

No broadcasting is performed except row-vector bias addition in
:func:`add`; every other shape mismatch raises :class:`ShapeMismatch`.
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


def _require_2d(t: Tensor, name: str):
    if t.values.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {t.values.shape}")


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Matrix product ``a @ b`` (or ``a @ b.T`` when transpose_b)."""
    _require_2d(a, "matmul lhs")
    _require_2d(b, "matmul rhs")
    bv = b.values.T if transpose_b else b.values
    if a.values.shape[1] != bv.shape[0]:
        raise ShapeMismatch(
            f"matmul inner dims differ: {a.values.shape} x {b.values.shape}"
            f"{' (transposed)' if transpose_b else ''}"
        )
    out_v = a.values @ bv

    def bwd(g, get_buf):
        ga = get_buf(a)
        gb = get_buf(b)
        if transpose_b:
            if ga is not None:
                ga += g @ b.values
            if gb is not None:
                gb += g.T @ a.values
        else:
            if ga is not None:
                ga += g @ b.values.T
            if gb is not None:
                gb += a.values.T @ g

    return _result(out_v, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row vector broadcast over a's rows."""
    bias = False
    if a.values.shape != b.values.shape:
        ok = (
            a.values.ndim == 2
            and (b.values.shape == (1, a.values.shape[1]) or b.values.shape == (a.values.shape[1],))
        )
        if not ok:
            raise ShapeMismatch(f"add shapes {a.values.shape} and {b.values.shape}")
        bias = True
    out_v = a.values + b.values

    def bwd(g, get_buf):
        ga = get_buf(a)
        gb = get_buf(b)
        if ga is not None:
            ga += g
        if gb is not None:
            gb += g.sum(axis=0).reshape(b.values.shape) if bias else g

    return _result(out_v, (a, b), bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeMismatch(f"hadamard shapes {a.values.shape} and {b.values.shape}")
    out_v = a.values * b.values

    def bwd(g, get_buf):
        ga = get_buf(a)
        gb = get_buf(b)
        if ga is not None:
            ga += g * b.values
        if gb is not None:
            gb += g * a.values

    return _result(out_v, (a, b), bwd)


def affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """``scale * x + shift`` with python-float constants."""
    out_v = scale * x.values + shift

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += scale * g

    return _result(out_v, (x,), bwd)


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, overflow-free on both tails:
    ``1/(1+e^-v)`` for v >= 0 and ``e^v/(1+e^v)`` below."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    out_v = sigmoid_values(x.values)

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g * out_v * (1.0 - out_v)

    return _result(out_v, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out_v = np.tanh(x.values)

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g * (1.0 - out_v * out_v)

    return _result(out_v, (x,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    _require_2d(x, "softmax_rows input")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_v = e / e.sum(axis=1, keepdims=True)

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            dot = (g * out_v).sum(axis=1, keepdims=True)
            gx += out_v * (g - dot)

    return _result(out_v, (x,), bwd)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat_rows needs at least one part")
    cols = {p.values.shape[1] for p in parts}
    for p in parts:
        _require_2d(p, "concat_rows part")
    if len(cols) != 1:
        raise ShapeMismatch(f"concat_rows column counts differ: {sorted(cols)}")
    out_v = np.concatenate([p.values for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.values.shape[0] for p in parts])

    def bwd(g, get_buf):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            gp = get_buf(p)
            if gp is not None:
                gp += g[a:b]

    return _result(out_v, tuple(parts), bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _require_2d(x, "slice_rows input")
    if not (0 <= start < stop <= x.values.shape[0]):
        raise ShapeMismatch(f"slice rows [{start}:{stop}] out of range for {x.values.shape}")
    out_v = x.values[start:stop]

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx[start:stop] += g

    return _result(out_v, (x,), bwd)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows of x selected by an integer index array (repeats allowed)."""
    _require_2d(x, "gather_rows input")
    idx = np.asarray(idx, dtype=np.intp)
    out_v = x.values[idx]

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            np.add.at(gx, idx, g)

    return _result(out_v, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out_v = x.values.sum()

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g

    return _result(out_v, (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    out_v = x.values.sum() / n

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g / n

    return _result(out_v, (x,), bwd)


def weighted_ce_logits(logits: Tensor, labels: np.ndarray, class_weights) -> Tensor:
    """Weighted cross-entropy over a batch of 2-class logit rows.

    ``loss = sum_i w[y_i] * (logsumexp(l_i) - l_i[y_i]) / sum_i w[y_i]``,
    the weighted mean of per-sample weighted CE numerators. Fused into one
    op so the log never sees an underflowed probability.
    """
    _require_2d(logits, "weighted_ce logits")
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
