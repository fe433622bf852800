"""The detector network: acoustic encoder, text-guided cross-attention,
stacked GRU, and a two-class head.

Acoustic frames act as attention Queries against token embeddings as
Keys/Values; the attended features are added back onto the acoustic
input (residual refinement), summarized by a stacked GRU, and the last
hidden state feeds a linear head producing (real, fake) logits.

A training step records four tape nodes at any batch size, frame count
and GRU depth, each op with a hand-written backward pass. The encoder
and cross-attention of the whole batch are one: it loops over the
samples in plain numpy, scores every head at once as a (heads, rows,
d_k) view of column blocks, and writes its rows time-major, ready for
the GRU. ``encode_acoustic`` and ``cross_attention`` are its one-sample
cases. The whole GRU stack is the second, run as a layer wavefront: one
time loop of T + L - 1 iterations in which each matmul and elementwise
op serves every layer at once. The head is the third and the loss, in
``autodiff``, the fourth.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import FEATURE_MAGIC, FeatureMatrix
from .errors import (
    BadConfig,
    BadHeader,
    BadJson,
    NonFinite,
    ShapeMismatch,
    TruncatedFile,
    WrongKind,
    atomic_write,
)
from .text import TextEmbedding

CHECKPOINT_MAGIC = b"ATCK"
CHECKPOINT_VERSION = 1
ENSEMBLE_MAGIC = b"ATEN"  # recognized here only to diagnose wrong-file mistakes


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
        object.__setattr__(self, "class_weights", tuple(float(w) for w in self.class_weights))
        for name in ("d_spec", "d_model", "d_k", "n_heads", "gru_layers", "gru_hidden", "d_text"):
            if getattr(self, name) < 1:
                raise BadConfig(f"{name} must be positive")
        if self.d_k * self.n_heads != self.d_model:
            raise BadConfig(f"d_k*n_heads must equal d_model, got {self.d_k}*{self.n_heads} != {self.d_model}")
        if len(self.class_weights) != 2 or any(w <= 0 or not math.isfinite(w) for w in self.class_weights):
            raise BadConfig(f"class_weights must be a pair of positive reals, got {self.class_weights}")

    def to_json(self) -> str:
        d = asdict(self)
        d["class_weights"] = list(self.class_weights)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, blob: str) -> "AtcaConfig":
        """Parse a checkpoint's config; any fault in it is a data error."""
        try:
            d = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise BadJson(f"unparseable model config: {exc}") from exc
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


def _as_matrix(x, what: str) -> np.ndarray:
    if isinstance(x, FeatureMatrix):
        return x.values
    values = np.asarray(x, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch(f"{what} must be 2-D, got shape {values.shape}")
    return values


def _spec_input(spec, raw, params: AtcaParams) -> np.ndarray:
    """Spectrogram frames standardized by the stored normalizer buffers;
    not checked for finiteness (see :func:`check_inputs`)."""
    cfg = params.config
    if raw is not None:
        raise ShapeMismatch("raw-waveform features are not supported")
    values = _as_matrix(spec, "spec features")
    if values.shape[1] != cfg.d_spec:
        raise ShapeMismatch(f"spec features have {values.shape[1]} dims, config wants {cfg.d_spec}")
    x = values - params.buffers["norm_mu"]
    x /= params.buffers["norm_sigma"]
    return x


def _text_input(text, cfg: AtcaConfig) -> np.ndarray:
    """A caption matrix, (L, d_text); not checked for finiteness."""
    if isinstance(text, Tensor):
        values = text.values
    elif isinstance(text, TextEmbedding):
        values = text.matrix
    else:
        values = _as_matrix(text, "text embedding")
    if values.ndim != 2 or values.shape[1] != cfg.d_text:
        raise ShapeMismatch(f"text embedding has shape {values.shape}, config wants {cfg.d_text} columns")
    return values


def check_inputs(specs, texts, params: AtcaParams) -> None:
    """Raise NonFinite unless every spectrogram, once standardized, and
    every caption matrix is finite. The model's ops do not check their
    inputs: ``train`` and ``score_protocol`` call this once per call
    instead of on every step.

    Standardizing and its rounding are monotonic in each column, so a
    spectrogram's frames all stay finite exactly when each column's
    smallest and largest value do; only those are standardized here.
    TextEmbedding matrices were checked when they were built.
    """
    mats = [_as_matrix(spec, "spec features") for spec in specs]
    # min and max carry a NaN through
    if not all(np.isfinite(_spec_input(np.stack([m.min(axis=0), m.max(axis=0)]), None, params)).all()
               for m in mats if len(m)):
        raise NonFinite("standardized spectrogram frames must be finite")
    cfg = params.config
    if not all(isinstance(t, TextEmbedding) or np.isfinite(_text_input(t, cfg)).all() for t in texts):
        raise NonFinite("caption embeddings must be finite")


def _accumulate(get_buf, tensors, grads) -> None:
    for tensor, grad in zip(tensors, grads):
        buf = get_buf(tensor)
        if buf is not None:
            buf += grad


def encode_acoustic(spec, raw, params: AtcaParams) -> Tensor:
    """Standardize spectrogram frames by the stored normalizer buffers,
    project them to d_model and apply tanh, as one tape op: the one-sample
    case of the encoder in :func:`_front`. ``raw`` must be None."""
    x = _spec_input(spec, raw, params)
    tensors = [params["enc_spec_w"], params["enc_spec_b"]]
    we, be = (t.values for t in tensors)
    enc = np.tanh(x @ we + be)

    def bwd(g, get_buf):
        dpre = g * (1.0 - enc * enc)
        _accumulate(get_buf, tensors, (x.T @ dpre, dpre.sum(axis=0)))

    return ad._result(enc, tensors, bwd)


def _attend(enc, text, wq, wkv, wo, n_heads: int):
    """Multi-head attention of one sample on plain arrays: ``enc`` rows
    (T, d_model) are Queries over ``text`` rows (L, d_text) as Keys and
    Values, with ``wkv = [Wk|Wv]``. Returns ``enc + merged @ wo`` and the
    arrays :func:`_attend_grad` needs.

    Head h owns columns ``h*d_k:(h+1)*d_k`` of q, k and v; the heads are
    the leading axis of a (H, rows, d_k) view, so one batched matmul
    scores them all and the merge is a reshape.
    """
    rows, d_model = enc.shape
    d_k = d_model // n_heads

    def heads(m):
        return m.reshape(m.shape[0], n_heads, d_k).transpose(1, 0, 2)

    kv = text @ wkv
    qh, kh, vh = heads(enc @ wq), heads(kv[:, :d_model]), heads(kv[:, d_model:])
    s = (qh @ kh.transpose(0, 2, 1)) * (1.0 / math.sqrt(d_k))
    e = np.exp(s - s.max(axis=2, keepdims=True))
    att = e / e.sum(axis=2, keepdims=True)
    merged = (att @ vh).transpose(1, 0, 2).reshape(rows, d_model)
    return enc + merged @ wo, (qh, kh, vh, att, merged)


def _attend_grad(g, enc, saved, wq, wo):
    """Backward of :func:`_attend` for the output gradient ``g``: returns
    the gradients of ``enc`` and ``wq``, of the projected rows ``[k|v]``
    (L, 2*d_model), and of ``wo``. The caller turns the third into the
    gradients of ``[Wk|Wv]`` (``text.T @ dkv``) and of the text."""
    qh, kh, vh, att, merged = saved
    n_heads, rows, d_k = qh.shape

    def merge(m):
        return m.transpose(1, 0, 2).reshape(m.shape[1], n_heads * d_k)

    dm = (g @ wo.T).reshape(rows, n_heads, d_k).transpose(1, 0, 2)
    da = dm @ vh.transpose(0, 2, 1)
    ds = att * (da - (da * att).sum(axis=2, keepdims=True)) * (1.0 / math.sqrt(d_k))
    dq = merge(ds @ kh)
    dkv = np.concatenate([merge(ds.transpose(0, 2, 1) @ qh), merge(att.transpose(0, 2, 1) @ dm)], axis=1)
    return g + dq @ wq.T, enc.T @ dq, dkv, merged.T @ g


def cross_attention(acoustic: Tensor, text, params: AtcaParams, return_internals: bool = False):
    """Scaled dot-product attention of one sample as one tape op: acoustic
    rows as Queries, text rows as Keys/Values; heads concatenated,
    projected by Wo and residual-added. Differentiable in ``acoustic``,
    in ``text`` when it is a Tensor, and in Wq, Wk, Wv and Wo."""
    cfg = params.config
    text_v = _text_input(text, cfg)
    text_t = text if isinstance(text, Tensor) else Tensor(text_v)
    if acoustic.values.ndim != 2 or acoustic.values.shape[1] != cfg.d_model:
        raise ShapeMismatch(f"acoustic input has shape {acoustic.values.shape}, config wants {cfg.d_model} columns")
    tensors = [params[n] for n in ("Wq", "Wk", "Wv", "Wo")]
    wq, wk, wv, wo = (t.values for t in tensors)
    wkv = np.concatenate([wk, wv], axis=1)
    out_v, saved = _attend(acoustic.values, text_t.values, wq, wkv, wo, cfg.n_heads)

    def bwd(g, get_buf):
        denc, dwq, dkv, dwo = _attend_grad(g, acoustic.values, saved, wq, wo)
        dwk, dwv = np.split(text_t.values.T @ dkv, 2, axis=1)
        _accumulate(get_buf, (acoustic, *tensors), (denc, dwq, dwk, dwv, dwo))
        gt = get_buf(text_t)
        if gt is not None:
            gt += dkv @ wkv.T

    out = ad._result(out_v, (acoustic, text_t, *tensors), bwd)
    if return_internals:
        return out, {"attention_weights": list(saved[3])}
    return out


def _front(specs, raws, texts, params: AtcaParams) -> Tensor:
    """Encoder and cross-attention of a batch of same-length utterances as
    one tape op. Returns the attended rows time-major, (T*B, d_model):
    row ``t*B + b`` is frame t of sample b, the layout ``_run_gru`` reads.

    Samples run one at a time, which keeps their arrays small; the
    backward sums the six weight gradients over them. Texts are data: no
    gradient flows into them.
    """
    cfg = params.config
    if not len(specs) == len(raws) == len(texts):
        raise ShapeMismatch(f"batch has {len(specs)} specs, {len(raws)} raws and {len(texts)} texts")
    xs = [_spec_input(spec, raw, params) for spec, raw in zip(specs, raws)]
    ts = [_text_input(text, cfg) for text in texts]
    steps = xs[0].shape[0]
    if any(x.shape[0] != steps for x in xs):
        raise ShapeMismatch("forward_batch requires equal-length sequences")
    tensors = [params[n] for n in ("enc_spec_w", "enc_spec_b", "Wq", "Wk", "Wv", "Wo")]
    we, be, wq, wk, wv, wo = (t.values for t in tensors)
    wkv = np.concatenate([wk, wv], axis=1)
    out = np.empty((steps, len(xs), cfg.d_model))
    kept = []
    for b, (x, text) in enumerate(zip(xs, ts)):
        enc = np.tanh(x @ we + be)
        out[:, b], saved = _attend(enc, text, wq, wkv, wo, cfg.n_heads)
        kept.append((enc, saved))

    def bwd(g, get_buf):
        g = g.reshape(out.shape)
        dwe, dbe, dwq, dwkv, dwo = (np.zeros_like(w) for w in (we, be, wq, wkv, wo))
        for b, (x, text, (enc, saved)) in enumerate(zip(xs, ts, kept)):
            denc, dwq_b, dkv, dwo_b = _attend_grad(g[:, b], enc, saved, wq, wo)
            dpre = denc * (1.0 - enc * enc)
            dwe += x.T @ dpre
            dbe += dpre.sum(axis=0)
            dwq += dwq_b
            dwkv += text.T @ dkv
            dwo += dwo_b
        _accumulate(get_buf, tensors, (dwe, dbe, dwq, *np.split(dwkv, 2, axis=1), dwo))

    return ad._result(out.reshape(steps * len(xs), cfg.d_model), tensors, bwd)


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
    ext = np.empty((iters + 1, lh + d_in + 1, batch))
    ext[0, :lh] = init
    ext[:steps, lh:-1] = x.values.reshape(steps, batch, d_in).transpose(0, 2, 1)
    ext[steps:, lh:-1] = 0.0
    ext[:, -1] = 1.0
    gates = np.empty((iters, 2 * lh, batch))  # [z | r]
    cand = np.empty((iters, lh, batch))
    for k in range(iters):
        h = ext[k, :lh]
        pre = e @ ext[k]
        gates[k] = ad.sigmoid_values(pre[: 2 * lh])
        z, r = gates[k, :lh], gates[k, lh:]
        np.tanh(pre[2 * lh :] + uh @ (r * h), out=cand[k])
        np.add(z * h, (1.0 - z) * cand[k], out=ext[k + 1, :lh])
        if k < n_layers - 1:  # the layers above k have not started
            ext[k + 1, (k + 1) * hid : lh] = init[(k + 1) * hid :]

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
    final = np.ascontiguousarray(ext[iters, lh - hid : lh].T)
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
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name, arr in params.named_arrays():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFile(f"{path}: unexpected end of file while reading {what}")
    return data


def load_checkpoint(path) -> AtcaParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            if magic in (ENSEMBLE_MAGIC, FEATURE_MAGIC):
                raise WrongKind(f"{path}: this is a {magic.decode()} file, not a model checkpoint")
            raise BadHeader(f"{path}: not a model checkpoint")
        version, blob_len = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise BadHeader(f"{path}: unsupported checkpoint version {version}")
        try:
            blob = _read_exact(fh, blob_len, path, "config").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadJson(f"{path}: model config is not UTF-8: {exc}") from exc
        config = AtcaConfig.from_json(blob)
        expected = [(n, s) for n, s, _ in _tensor_specs(config)] + list(_buffer_specs(config))
        arrays = {}
        for name, want_shape in expected:
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "tensor name length"))
            found = _read_exact(fh, name_len, path, "tensor name")
            if found != name.encode("utf-8"):
                raise BadHeader(f"{path}: expected tensor {name!r}, found {found!r}")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "tensor rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, "tensor dims"))
            if dims != want_shape:
                raise ShapeMismatch(f"{path}: tensor {name!r} has shape {dims}, config wants {want_shape}")
            count = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, 8 * count, path, f"tensor {name!r} payload")
            values = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            if not np.all(np.isfinite(values)):
                raise NonFinite(f"{path}: tensor {name!r} contains non-finite values")
            arrays[name] = values
        if fh.read(1):
            raise BadHeader(f"{path}: trailing data after last tensor")
    tensors = {n: Tensor(arrays[n], requires_grad=True) for n, _, _ in _tensor_specs(config)}
    buffers = {n: arrays[n] for n, _ in _buffer_specs(config)}
    return AtcaParams(config, tensors, buffers)
