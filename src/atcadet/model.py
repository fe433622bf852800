"""The detector network: acoustic encoder, text-guided cross-attention,
stacked GRU, and a two-class head.

Acoustic frames act as attention Queries against token embeddings as
Keys/Values; the attended features are added back onto the acoustic
input (residual refinement), summarized by a stacked GRU, and the last
hidden state feeds a linear head producing (real, fake) logits.

A training step records four tape nodes at any batch size, frame count
and GRU depth, each op with a hand-written backward pass. The encoder
and cross-attention of the whole batch are one: it runs the batch in
pieces of 32 samples as stacked matmuls, one BLAS call per sample; each
sample attends over its caption's distinct rows, each raised by the log
of its count, which is the softmax over the caption's repeated rows; the
distinct rows of a piece are projected once each; and it writes its rows
time-major, ready for the GRU. ``encode_acoustic`` and
``cross_attention`` run its kernels on one sample over every caption
row: the same bytes when a caption's rows never repeat, the same up to
rounding otherwise. The whole GRU stack is the second, run as a layer
wavefront: one time loop of T + L - 1 iterations in which each matmul
and elementwise op serves every layer at once. The head is the third
and the loss, in ``autodiff``, the fourth.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import FeatureMatrix, held_values
from .errors import (
    CHECKPOINT_MAGIC,
    BadConfig,
    BadHeader,
    BadJson,
    NonFinite,
    ShapeMismatch,
    atomic_write,
    check_fields,
    is_real,
    parse_json,
    read_blob,
    read_exact,
    write_blob,
)
from .text import TextEmbedding, intern_rows

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class AtcaConfig:
    d_spec: int = 64
    d_model: int = 16
    d_k: int = 16
    n_heads: int = 1
    gru_layers: int = 2
    gru_hidden: int = 16
    d_text: int = 768
    class_weights: tuple = (1.0, 1.0)

    def __post_init__(self):
        check_fields(vars(self), ints=[(name, 1) for name in (
            "d_spec", "d_model", "d_k", "n_heads", "gru_layers", "gru_hidden", "d_text")])
        if self.d_k * self.n_heads != self.d_model:
            raise BadConfig(f"d_k*n_heads must equal d_model, got {self.d_k}*{self.n_heads} != {self.d_model}")
        pair = self.class_weights
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(
                is_real(w) and w > 0 for w in pair):
            raise BadConfig(f"class_weights must be a pair of positive reals, got {pair!r}")
        object.__setattr__(self, "class_weights", tuple(float(w) for w in pair))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, blob) -> "AtcaConfig":
        """Parse a checkpoint's config, a str or UTF-8 bytes; any fault in
        it is a data error."""
        d = parse_json(blob, "model config")
        try:
            return cls(**d)
        except (TypeError, ValueError, BadConfig) as exc:
            raise BadJson(f"bad model config: {exc}") from exc


def _tensor_specs(cfg: AtcaConfig) -> list:
    """Fixed enumeration of learnable tensors: (name, shape, kind)."""
    specs = [
        ("enc_spec_w", (cfg.d_spec, cfg.d_model), "weight"),
        ("enc_spec_b", (1, cfg.d_model), "bias"),
        ("Wq", (cfg.d_model, cfg.d_model), "weight"),
        ("Wk", (cfg.d_text, cfg.d_model), "weight"),
        ("Wv", (cfg.d_text, cfg.d_model), "weight"),
        ("Wo", (cfg.d_model, cfg.d_model), "weight"),
    ]
    for layer in range(cfg.gru_layers):
        d_in = cfg.d_model if layer == 0 else cfg.gru_hidden
        h = cfg.gru_hidden
        for gate in ("z", "r", "h"):
            specs += [
                (f"gru{layer}_W{gate}", (d_in, h), "weight"),
                (f"gru{layer}_U{gate}", (h, h), "weight"),
                (f"gru{layer}_b{gate}", (1, h), "bias"),
            ]
    specs += [
        ("head_w", (cfg.gru_hidden, 2), "weight"),
        ("head_b", (1, 2), "bias"),
    ]
    return specs


def _buffer_specs(cfg: AtcaConfig) -> list:
    return [("norm_mu", (1, cfg.d_spec)), ("norm_sigma", (1, cfg.d_spec))]


class AtcaParams:
    """Learnable tensors plus non-learnable normalizer buffers.

    Tensor enumeration order is frozen: it defines the seeded init draw
    order and the checkpoint layout.
    """

    def __init__(self, config: AtcaConfig, tensors: dict, buffers: dict):
        self.config = config
        self.tensors = tensors
        self.buffers = buffers
        for name, shape, _ in _tensor_specs(config):
            if name not in tensors or tensors[name].values.shape != shape:
                raise ShapeMismatch(f"parameter {name} missing or mis-shaped for config")
        for name, shape in _buffer_specs(config):
            if name not in buffers or buffers[name].shape != shape:
                raise ShapeMismatch(f"buffer {name} missing or mis-shaped for config")

    @classmethod
    def init(cls, config: AtcaConfig, seed: int = 0) -> "AtcaParams":
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape, kind in _tensor_specs(config):
            if kind == "weight":
                a = math.sqrt(6.0 / (shape[0] + shape[1]))
                values = rng.uniform(-a, a, size=shape)
            else:
                values = np.zeros(shape)
            tensors[name] = Tensor(values, requires_grad=True)
        buffers = {}
        for name, shape in _buffer_specs(config):
            buffers[name] = np.ones(shape) if name.endswith("sigma") else np.zeros(shape)
        return cls(config, tensors, buffers)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named_arrays(self):
        """All checkpointed arrays, learnable first, in enumeration order."""
        for name, _, _ in _tensor_specs(self.config):
            yield name, self.tensors[name].values
        for name, _ in _buffer_specs(self.config):
            yield name, self.buffers[name]

    def copy(self) -> "AtcaParams":
        tensors = {n: Tensor(t.values.copy(), requires_grad=True) for n, t in self.tensors.items()}
        buffers = {n: b.copy() for n, b in self.buffers.items()}
        return AtcaParams(self.config, tensors, buffers)


def count_params(params: AtcaParams) -> int:
    """Total element count over learnable tensors (buffers excluded)."""
    return sum(t.values.size for t in params.tensors.values())


def count_params_for(config: AtcaConfig) -> int:
    """Same count computed from shapes alone, without allocating."""
    return sum(shape[0] * shape[1] for _, shape, _ in _tensor_specs(config))


# ---------------------------------------------------------------------------
# Stages


def as_matrix(x, what: str) -> np.ndarray:
    """``x``, a FeatureMatrix or 2-D array, as the matrix it holds (``dsp.held_values``)."""
    if isinstance(x, FeatureMatrix):
        return x.values
    values = held_values(x)
    if values.ndim != 2:
        raise ShapeMismatch(f"{what} must be 2-D, got shape {values.shape}")
    return values


def _spec_values(spec, raw, cfg: AtcaConfig) -> np.ndarray:
    """A spectrogram's frames as held, (T, d_spec)."""
    if raw is not None:
        raise ShapeMismatch("raw-waveform features are not supported")
    values = as_matrix(spec, "spec features")
    if values.shape[1] != cfg.d_spec:
        raise ShapeMismatch(f"spec features have {values.shape[1]} dims, config wants {cfg.d_spec}")
    return values


def _standardize(values: np.ndarray, params: AtcaParams) -> np.ndarray:
    """Frames, in the last axis, standardized by the stored normalizer
    buffers, in float64."""
    x = values - params.buffers["norm_mu"]
    x /= params.buffers["norm_sigma"]
    return x


def _spec_input(spec, raw, params: AtcaParams) -> np.ndarray:
    """Spectrogram frames standardized by the stored normalizer buffers;
    not checked for finiteness (see :func:`check_inputs`)."""
    return _standardize(_spec_values(spec, raw, params.config), params)


def _text_input(text, cfg: AtcaConfig) -> np.ndarray:
    """A caption matrix, (L, d_text); not checked for finiteness."""
    if isinstance(text, Tensor):
        values = text.values
    elif isinstance(text, TextEmbedding):
        values = text.matrix
    else:
        values = as_matrix(text, "text embedding")
    if values.ndim != 2 or values.shape[1] != cfg.d_text:
        raise ShapeMismatch(f"text embedding has shape {values.shape}, config wants {cfg.d_text} columns")
    return values


def check_inputs(specs, texts, params: AtcaParams) -> None:
    """Raise NonFinite unless every spectrogram, once standardized, and
    every caption matrix is finite. The model's ops do not check their
    inputs: ``train`` and ``score_protocol`` call this once per call
    instead of on every step.

    Standardizing and its rounding are monotonic in each column, so the
    frames of all the spectrograms stay finite exactly when each column's
    smallest and largest value over all of them do: only those two rows
    are standardized here, once per call. TextEmbedding matrices were
    checked when they were built.
    """
    cfg = params.config
    mats = [m for m in (_spec_values(spec, None, cfg) for spec in specs) if len(m)]
    if mats:
        # min and max carry a NaN through; an overflow is the verdict, not a warning
        extremes = np.stack([np.min([m.min(axis=0) for m in mats], axis=0),
                             np.max([m.max(axis=0) for m in mats], axis=0)])
        with np.errstate(all="ignore"):
            finite = np.isfinite(_standardize(extremes, params)).all()
        if not finite:
            raise NonFinite("standardized spectrogram frames must be finite")
    if not all(isinstance(t, TextEmbedding) or np.isfinite(_text_input(t, cfg)).all() for t in texts):
        raise NonFinite("caption embeddings must be finite")


def _accumulate(get_buf, tensors, grads) -> None:
    for tensor, grad in zip(tensors, grads):
        buf = get_buf(tensor)
        if buf is not None:
            buf += grad


# Samples per piece of a batch, and caption rows per block of their
# projection, so that every BLAS call has the size of one sample or of 32
# rows, whatever the batch. Measured on a 2-vCPU VM at 2 BLAS threads: the
# no-grad front of 158 hop-512 clips took 36-44 ms in one piece and 23 ms in
# pieces of 32; 768 caption rows that do not repeat took 5.6 ms through
# [Wk|Wv] as one product (OpenBLAS wakes its second thread) and 0.8 ms in
# 32-row blocks. 32 is also the training batch, so a step is one piece.
_PIECE = 32


def _row_blocks(table, distinct):
    """The rows ``table[distinct]`` in blocks of ``_PIECE``, each widened
    to float64 as it is reached, with the position of its first row."""
    for lo in range(0, len(distinct), _PIECE):
        yield lo, table[distinct[lo : lo + _PIECE]].astype(np.float64)


def _encoder_grad(denc, x, enc):
    """The gradients of We and be, summed over the samples, of the encoder
    ``enc = tanh(x @ We + be)`` on frames (B, T, d_spec), given ``denc``."""
    dpre = denc * (1.0 - enc * enc)
    return (x.transpose(0, 2, 1) @ dpre).sum(axis=0), dpre.sum(axis=(0, 1))


def _heads(m, n_heads: int):  # (B, rows, d_model) -> (B, H, rows, d_k)
    return m.reshape(*m.shape[:2], n_heads, -1).transpose(0, 2, 1, 3)


def _merge(m):  # the inverse of _heads
    return m.transpose(0, 2, 1, 3).reshape(m.shape[0], m.shape[2], -1)


def _attention(enc, kv, bias, wq, wo, n_heads: int):
    """Multi-head scaled dot-product attention of stacked samples: rows
    ``enc`` (B, T, d_model) as Queries over ``kv = [k|v]`` (B, V,
    2*d_model) as Keys and Values, each key's score raised by ``bias`` (B,
    V; -inf masks a key). Returns ``enc + merged @ wo`` and what
    :func:`_attention_grad` needs. Scores are key-major, (B, H, V, T), so
    the softmax reduces over whole frame rows."""
    d_model = enc.shape[2]
    qh, kh, vh = (_heads(m, n_heads) for m in (enc @ wq, kv[..., :d_model], kv[..., d_model:]))
    att = kh @ qh.transpose(0, 1, 3, 2)
    att *= 1.0 / math.sqrt(d_model // n_heads)
    att += bias[:, None, :, None]
    att -= att.max(axis=2, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=2, keepdims=True)
    merged = _merge(att.transpose(0, 1, 3, 2) @ vh)
    return enc + merged @ wo, (qh, kh, vh, att, merged)


def _attention_grad(g, enc, saved, wq, wo):
    """Backward of :func:`_attention` for the output gradient ``g`` (B, T,
    d_model): the gradients of ``enc`` and of ``kv``, per sample, and of
    ``wq`` and ``wo``, summed over the samples."""
    qh, kh, vh, att, merged = saved
    dwo = (merged.transpose(0, 2, 1) @ g).sum(axis=0)
    dm = _heads(g @ wo.T, qh.shape[1])
    da = vh @ dm.transpose(0, 1, 3, 2)
    ds = da - (da * att).sum(axis=2, keepdims=True)
    ds *= att
    ds *= 1.0 / math.sqrt(qh.shape[3])
    dq = _merge(ds.transpose(0, 1, 3, 2) @ kh)
    dkv = np.concatenate([_merge(ds @ qh), _merge(att @ dm)], axis=2)
    return g + dq @ wq.T, dkv, (enc.transpose(0, 2, 1) @ dq).sum(axis=0), dwo


def encode_acoustic(spec, raw, params: AtcaParams) -> Tensor:
    """:func:`_front`'s encoder on one sample, as one tape op: standardize
    spectrogram frames by the stored normalizer buffers, project them to
    d_model and apply tanh. ``raw`` must be None."""
    x = _spec_input(spec, raw, params)[None]
    tensors = [params["enc_spec_w"], params["enc_spec_b"]]
    we, be = (t.values for t in tensors)
    enc = np.tanh(x @ we + be)

    def bwd(g, get_buf):
        _accumulate(get_buf, tensors, _encoder_grad(g[None], x, enc))

    return ad._result(enc[0], tensors, bwd)


def cross_attention(acoustic: Tensor, text, params: AtcaParams, return_internals: bool = False):
    """:func:`_front`'s attention on one sample, over every row of
    ``text``, as one tape op: acoustic rows (T, d_model) as Queries, text
    rows (L, d_text) as Keys/Values, heads merged, projected by Wo and
    residual-added. Differentiable in ``acoustic``, in ``text`` when it is
    a Tensor, and in Wq, Wk, Wv and Wo; ``return_internals`` adds each
    head's (T, L) weights. With ``_front``'s 32-row blocks and kernel at a
    zero bias, it has the bytes of a one-sample ``_front`` over a caption
    whose rows never repeat, in its output and six weight gradients."""
    cfg = params.config
    text_v = _text_input(text, cfg)
    text_t = text if isinstance(text, Tensor) else Tensor(text_v)
    if acoustic.values.ndim != 2 or acoustic.values.shape[1] != cfg.d_model:
        raise ShapeMismatch(f"acoustic input has shape {acoustic.values.shape}, config wants {cfg.d_model} columns")
    tensors = [params[n] for n in ("Wq", "Wk", "Wv", "Wo")]
    wq, wk, wv, wo = (t.values for t in tensors)
    wkv = np.concatenate([wk, wv], axis=1)
    enc, rows = acoustic.values[None], np.arange(len(text_v))
    kv = np.concatenate([u @ wkv for _, u in _row_blocks(text_v, rows)])
    out_v, saved = _attention(enc, kv[None], np.zeros((1, len(rows))), wq, wo, cfg.n_heads)

    def bwd(g, get_buf):
        denc, dkv, dwq, dwo = _attention_grad(g[None], enc, saved, wq, wo)
        dwkv = np.zeros_like(wkv)
        for at, u in _row_blocks(text_v, rows):
            dwkv += u.T @ dkv[0, at : at + _PIECE]
        _accumulate(get_buf, (acoustic, text_t, *tensors),
                    (denc[0], dkv[0] @ wkv.T, dwq, *np.split(dwkv, 2, axis=1), dwo))

    out = ad._result(out_v[0], (acoustic, text_t, *tensors), bwd)
    return (out, {"attention_weights": [att.T for att in saved[3][0]]}) if return_internals else out


def _caption_keys(texts, cfg: AtcaConfig):
    """The caption rows of a piece of samples: a row table and the ids in
    it of the piece's distinct rows; for each sample, the positions among
    those of its own distinct rows, in the order they first occur in its
    caption (B, V); and the log of each one's count in the caption, -inf
    past the sample's own rows (B, V). V is the most distinct rows a
    sample has.

    Embeddings of one load share one row table. Any other piece is
    interned here from its own caption rows.
    """
    first = texts[0]
    if all(isinstance(t, TextEmbedding) and t.table is first.table for t in texts) \
            and first.table.shape[1] == cfg.d_text:
        table, ids = first.table, [t.ids for t in texts]
    else:
        table, ids = intern_rows([_text_input(t, cfg) for t in texts])
    sample = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    pairs, first_at, counts = np.unique(sample * len(table) + np.concatenate(ids),
                                        return_index=True, return_counts=True)
    order = np.argsort(first_at)  # by sample, then by first occurrence
    owner, row = np.divmod(pairs[order], len(table))
    widths = np.bincount(owner, minlength=len(ids))
    mask = np.arange(widths.max()) < widths[:, None]
    distinct, pos = np.unique(row, return_inverse=True)
    gather = np.zeros(mask.shape, np.intp)
    gather[mask] = pos
    bias = np.full(mask.shape, -np.inf)
    bias[mask] = np.log(counts[order])
    return table, distinct, gather, bias


def _front(specs, raws, texts, params: AtcaParams) -> Tensor:
    """Encoder and cross-attention of a batch of same-length utterances as
    one tape op. Returns the attended rows time-major, (T*B, d_model):
    row ``t*B + b`` is frame t of sample b, the layout ``_run_gru`` reads.

    The batch runs in pieces of at most ``_PIECE`` samples. A piece stacks
    and standardizes its frames as (B, T, d_spec), and its encoder, Q and
    ``Wo`` products are stacked matmuls, one BLAS call per sample. Its
    captions' distinct rows (:func:`_caption_keys`) are projected through
    ``[Wk|Wv]`` once each, in blocks of ``_PIECE`` rows widened as they
    are reached, and each sample attends (:func:`_attention`) over its own
    distinct rows, each row's score raised by the log of its count in the
    caption: the softmax over a caption's repeated rows, without the
    repeats. :func:`encode_acoustic` and :func:`cross_attention` run the
    same kernels on one sample.

    The backward mirrors this: each weight gradient is summed over the
    samples with ``.sum(axis=0)`` and then over the pieces, in order; the
    gradient of each projected row is summed into its distinct row, and
    ``[Wk|Wv]``'s over the row blocks, widened again, in order. Texts are
    data: no gradient flows into them. Only while a tape records does a
    piece keep its arrays; otherwise nothing outlives its piece.
    """
    cfg = params.config
    if not len(specs) == len(raws) == len(texts):
        raise ShapeMismatch(f"batch has {len(specs)} specs, {len(raws)} raws and {len(texts)} texts")
    tensors = [params[n] for n in ("enc_spec_w", "enc_spec_b", "Wq", "Wk", "Wv", "Wo")]
    we, be, wq, wk, wv, wo = (t.values for t in tensors)
    wkv = np.concatenate([wk, wv], axis=1)

    def piece(lo, hi):  # writes the piece's rows; returns what its backward reads
        mats = [_spec_values(s, r, cfg) for s, r in zip(specs[lo:hi], raws[lo:hi])]
        if any(len(m) != frames for m in mats):
            raise ShapeMismatch("forward_batch requires equal-length sequences")
        x = _standardize(np.stack(mats), params)
        table, distinct, gather, bias = _caption_keys(texts[lo:hi], cfg)
        enc = np.tanh(x @ we + be)
        kv = np.concatenate([u @ wkv for _, u in _row_blocks(table, distinct)])[gather]
        rows, saved = _attention(enc, kv, bias, wq, wo, cfg.n_heads)
        out[:, lo:hi] = rows.transpose(1, 0, 2)
        return lo, hi, x, enc, table, distinct, gather, bias > -np.inf, saved

    frames = len(_spec_values(specs[0], raws[0], cfg))
    out = np.empty((frames, len(specs), cfg.d_model))
    pieces = [(lo, min(lo + _PIECE, len(specs))) for lo in range(0, len(specs), _PIECE)]
    if ad._active_tape() is None:
        for lo, hi in pieces:
            piece(lo, hi)
    else:
        kept = [piece(lo, hi) for lo, hi in pieces]

    def bwd(g, get_buf):
        g = g.reshape(out.shape)
        dwe, dbe, dwq, dwkv, dwo = (np.zeros_like(w) for w in (we, be, wq, wkv, wo))
        for lo, hi, x, enc, table, distinct, gather, mask, saved in kept:
            gp = np.ascontiguousarray(g[:, lo:hi].transpose(1, 0, 2))
            denc, dkv, *dw = _attention_grad(gp, enc, saved, wq, wo)
            drows = np.zeros((len(distinct), dkv.shape[2]))
            np.add.at(drows, gather[mask], dkv[mask])
            for at, u in _row_blocks(table, distinct):
                dwkv += u.T @ drows[at : at + _PIECE]
            for total, part in zip((dwq, dwo, dwe, dbe), (*dw, *_encoder_grad(denc, x, enc))):
                total += part
        _accumulate(get_buf, tensors, (dwe, dbe, dwq, *np.split(dwkv, 2, axis=1), dwo))

    return ad._result(out.reshape(-1, cfg.d_model), tensors, bwd)


def _run_gru(x: Tensor, params: AtcaParams, batch: int, h0=None, collect=None) -> Tensor:
    """The whole GRU stack over time-major rows ``x`` (T*batch, d_model) as
    one tape op with a hand-written backward pass through time; its output
    is the last layer's final hidden states, (batch, gru_hidden), so the
    output gradient enters the sweep once, at the last iteration.
    ``collect``, when given, receives each layer's (T*batch, H) states.

    The layers run as a wavefront (Appleyard et al. 2016): at iteration k
    layer l does step k - l, so T + L - 1 iterations cover L layers and each
    op runs once per iteration for all of them. ``ext[k]`` holds the state
    ``[h_0; ...; h_{L-1}; x_k; 1]`` iteration k reads, one column per
    sample. One product with ``e`` gives every layer's z and r
    pre-activations and the candidate's input term: U in the diagonal
    blocks, layer l's W fed from h_{l-1} (layer 0's from x), the biases
    from the ones row. The block-diagonal ``uh`` gives the candidate's
    recurrent term. Layers that have not started are reset to the initial
    state; the steps past the end are computed, but nothing reads them and
    their gradient is zero. Feature-major blocks keep every per-iteration
    slice contiguous, and the backward sweep adds each iteration's share of
    the weight and input gradients from those blocks, so it needs no
    whole-run copies.

    Each iteration writes its z and r gates into its gate slot with the
    tanh form of ``ad.sigmoid_values``, and its new state as ``c + z * (h
    - c)`` in three in-place ops. These round unlike the exp-form gate and
    ``z * h + (1 - z) * c`` they replaced (a gate at a pre-activation of
    -40 is now 0, not 4.2e-18); the backward sweep reads z, r, c and h as
    stored, so it is unchanged.

    Only the backward sweep and ``collect`` read past iterations. While a
    tape records or ``collect`` is given, every iteration keeps its ``ext``,
    gates and candidate, and ``x`` is copied into ``ext`` in one go.
    Otherwise two ``ext`` slots alternate and one gate and candidate slot
    is reused, each step's input rows copied into its slot as the loop
    reaches it: the same ops on the same values, with state of O(batch)
    rather than O(T * batch).
    """
    cfg = params.config
    n_layers, hid, d_in = cfg.gru_layers, cfg.gru_hidden, cfg.d_model
    lh = n_layers * hid
    if x.values.ndim != 2 or x.values.shape[1] != d_in:
        raise ShapeMismatch(f"GRU input has shape {x.values.shape}, wants {d_in} columns")
    steps = x.values.shape[0] // batch
    iters = steps + n_layers - 1
    tensors = [params[f"gru{layer}_{kind}{gate}"] for layer in range(n_layers) for gate in "zrh" for kind in "WUb"]
    # feature-major: every block below holds one column per sample
    e, uh = np.zeros((3 * lh, lh + d_in + 1)), np.zeros((lh, lh))
    blocks = []  # per layer: the state rows it reads as input and as its own h, its [z|r|n] rows of e
    for layer in range(n_layers):
        wz, uz, bz, wr, ur, br, wh, uh_l, bh = (t.values for t in tensors[9 * layer : 9 * layer + 9])
        own = slice(layer * hid, (layer + 1) * hid)
        src = slice(lh, lh + d_in) if layer == 0 else slice(own.start - hid, own.start)
        rows = (np.arange(3)[:, None] * lh + np.arange(own.start, own.stop)).ravel()
        e[rows, src] = np.concatenate([wz, wr, wh], axis=1).T
        e[rows[: 2 * hid], own] = np.concatenate([uz, ur], axis=1).T
        e[rows, -1] = np.concatenate([bz, br, bh], axis=1)[0]
        uh[own, own] = uh_l.T
        blocks.append((src, own, rows))
    init = np.zeros((n_layers, hid, batch))
    if h0 is not None:
        init[:] = np.broadcast_to(h0, (batch, hid)).T
    init = init.reshape(lh, batch)
    xs = x.values.reshape(steps, batch, d_in)
    slots = iters + 1 if collect is not None or ad._active_tape() is not None else 2
    ext = np.empty((slots, lh + d_in + 1, batch))
    ext[0, :lh] = init
    if slots > 2:
        ext[:steps, lh:-1] = xs.transpose(0, 2, 1)
        ext[steps:, lh:-1] = 0.0
    ext[:, -1] = 1.0
    gates = np.empty((slots - 1, 2 * lh, batch))  # [z | r]
    cand = np.empty((slots - 1, lh, batch))
    for k in range(iters):
        i, j, g = k % slots, (k + 1) % slots, k % (slots - 1)
        if slots == 2:
            ext[i, lh:-1] = xs[k].T if k < steps else 0.0
        h = ext[i, :lh]
        pre = e @ ext[i]
        z, r = ad.sigmoid_values(pre[: 2 * lh], out=gates[g])[:lh], gates[g, lh:]
        c = np.tanh(pre[2 * lh :] + uh @ (r * h), out=cand[g])
        h_next = np.subtract(h, c, out=ext[j, :lh])
        h_next *= z
        h_next += c
        if k < n_layers - 1:  # the layers above k have not started
            ext[j, (k + 1) * hid : lh] = init[(k + 1) * hid :]

    def bwd(g, get_buf):
        gx = get_buf(x)
        de, duh = np.zeros_like(e), np.zeros_like(uh)
        d_pre = np.empty((3 * lh, batch))
        dh = np.zeros((lh, batch))
        dh[lh - hid :] += g.T
        for k in range(iters - 1, -1, -1):
            if k < n_layers - 1:  # the layers above k were reset after this iteration
                dh[(k + 1) * hid :] = 0.0
            z, r, h, c = gates[k, :lh], gates[k, lh:], ext[k, :lh], cand[k]
            rh = h * r
            one_minus_z = 1.0 - z
            dn = np.multiply(dh, one_minus_z * (1.0 - c * c), out=d_pre[2 * lh :])
            drh = uh.T @ dn
            np.multiply(dh, (h - c) * z * one_minus_z, out=d_pre[:lh])
            np.multiply(drh, rh * (1.0 - r), out=d_pre[lh : 2 * lh])
            dh = dh * z + drh * r + e[:, :lh].T @ d_pre
            de += d_pre @ ext[k].T
            duh += dn @ rh.T
            if gx is not None and k < steps:
                gx[k * batch : (k + 1) * batch] += d_pre.T @ e[:, lh:-1]
        grads = []
        for src, own, rows in blocks:
            dwz, dwr, dwh = np.split(de[rows, src].T, 3, axis=1)
            duz, dur = np.split(de[rows[: 2 * hid], own].T, 2, axis=1)
            dbz, dbr, dbh = np.split(de[rows, -1:].T, 3, axis=1)
            grads += [dwz, duz, dbz, dwr, dur, dbr, dwh, duh[own, own].T, dbh]
        _accumulate(get_buf, tensors, grads)

    if collect is not None:
        collect.extend(ext[layer + 1 : layer + 1 + steps, layer * hid : (layer + 1) * hid]
                       .transpose(0, 2, 1).reshape(steps * batch, hid) for layer in range(n_layers))
    # contiguous, as the head's product wants it: a transposed view rounds differently there
    final = np.ascontiguousarray(ext[iters % slots, lh - hid : lh].T)
    return ad._result(final, (x, *tensors), bwd)


def gru_stack(x: Tensor, params: AtcaParams, h0=None, return_states: bool = False):
    """Run the stacked GRU over one sequence; returns the last layer's
    final hidden state as a (1, gru_hidden) tensor.

    h0, when given, seeds the initial hidden state of every layer (a
    test hook; training always starts from zero).
    """
    states = [] if return_states else None
    out = _run_gru(x, params, 1, h0=h0, collect=states)
    if return_states:
        return out, states
    return out


def _head(h: Tensor, params: AtcaParams) -> Tensor:
    """The linear two-class head ``h @ head_w + head_b`` as one tape op."""
    tensors = [params["head_w"], params["head_b"]]
    w, b = (t.values for t in tensors)

    def bwd(g, get_buf):
        _accumulate(get_buf, (h, *tensors), (g @ w.T, h.values.T @ g, g.sum(axis=0)))

    return ad._result(h.values @ w + b, (h, *tensors), bwd)


def forward_batch(specs, raws, texts, params: AtcaParams) -> Tensor:
    """Batched pass over same-length utterances; returns (B, 2) logits.

    The encoder and cross-attention of the whole batch are one tape op
    (``_front``) that writes its rows time-major; the whole GRU stack is
    one more (``_run_gru``), which hands the last layer's final states to
    the head op (``_head``). With the loss, a step records the same four
    tape nodes at any B, T and number of GRU layers. The inputs are not
    checked for finiteness; :func:`check_inputs` does that once per run.

    ``texts`` are TextEmbeddings or plain caption matrices. The front
    attends over the distinct rows of a batch's captions in pieces, so a
    clip's logits may differ in the last bits with the batch it is in
    (the tests pin them at 1e-12); for one batch they are the same bytes
    run to run and at any BLAS thread count.
    """
    if len(specs) == 0:
        raise ShapeMismatch("empty batch")
    return _head(_run_gru(_front(specs, raws, texts, params), params, len(specs)), params)


# ---------------------------------------------------------------------------
# Scoring


def scores_from_logits(logits_matrix: np.ndarray) -> np.ndarray:
    """Detection scores logit(real) - logit(fake), one per row; higher = more genuine."""
    values = np.atleast_2d(np.asarray(logits_matrix, dtype=np.float64))
    return values[:, 0] - values[:, 1]


# ---------------------------------------------------------------------------
# Checkpoint file


def save_checkpoint(path, params: AtcaParams) -> None:
    blob = params.config.to_json().encode("utf-8")
    with atomic_write(path) as fh:
        write_blob(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, blob)
        for name, arr in params.named_arrays():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> AtcaParams:
    with open(path, "rb") as fh:
        blob = read_blob(fh, path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "a model checkpoint")
        try:
            config = AtcaConfig.from_json(blob)
        except BadJson as exc:
            raise BadJson(f"{path}: {exc.message}") from exc
        expected = [(n, s) for n, s, _ in _tensor_specs(config)] + list(_buffer_specs(config))
        arrays = {}
        for name, want_shape in expected:
            (name_len,) = struct.unpack("<I", read_exact(fh, 4, path, "tensor name length"))
            found = read_exact(fh, name_len, path, "tensor name")
            if found != name.encode("utf-8"):
                raise BadHeader(f"{path}: expected tensor {name!r}, found {found!r}")
            (rank,) = struct.unpack("<I", read_exact(fh, 4, path, "tensor rank"))
            dims = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, path, "tensor dims"))
            if dims != want_shape:
                raise ShapeMismatch(f"{path}: tensor {name!r} has shape {dims}, config wants {want_shape}")
            count = int(np.prod(dims)) if dims else 1
            payload = read_exact(fh, 8 * count, path, f"tensor {name!r} payload")
            values = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            if not np.all(np.isfinite(values)):
                raise NonFinite(f"{path}: tensor {name!r} contains non-finite values")
            arrays[name] = values
        if fh.read(1):
            raise BadHeader(f"{path}: trailing data after last tensor")
    tensors = {n: Tensor(arrays[n], requires_grad=True) for n, _, _ in _tensor_specs(config)}
    buffers = {n: arrays[n] for n, _ in _buffer_specs(config)}
    return AtcaParams(config, tensors, buffers)
