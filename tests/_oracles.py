"""Independent oracles shared by the test modules.

These deliberately avoid the library's own computation paths: finite
differences instead of the tape, direct DFT sums instead of the FFT
frontend, exhaustive threshold sweeps instead of the sorted EER sweep,
op-by-op graphs of generic tape ops instead of the model's hand-written
ones, the encoder-and-attention op as it ran one sample at a time over
every caption row instead of over each caption's distinct rows, the fake
families written out one kind at a time instead of the corpus's parameter
table, and a feature-block reader that widens to float64 instead of
keeping the float32 the block stores.

It also holds the log-mel linear baseline, a ridge fit on per-clip log-mel
statistics that no CLI stage produces: the stacking criteria compare the
detector and the ensemble against it; and ``traced_peak``, the allocation
probe the memory guards share.
"""

import gc
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from atcadet import autodiff as ad
from atcadet import corpus as cp
from atcadet import dsp
from atcadet import model as md
from atcadet.autodiff import Tensor
from atcadet.ensemble import RidgeModel, fit_ridge, predict_ridge
from atcadet.errors import EmptySplit, MissingFeature, ShapeMismatch
from atcadet.metrics import Trial


def fd_gradients(loss_fn, tensors, h=1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. each tensor.

    ``loss_fn`` must recompute the loss from the tensors' current values.
    Returns (list of gradient arrays, number of coordinates probed).
    """
    grads = []
    probes = 0
    for t in tensors:
        v = t.values
        g = np.zeros_like(v)
        flat_v = v.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            step = h * max(1.0, abs(orig))
            flat_v[i] = orig + step
            up = loss_fn()
            flat_v[i] = orig - step
            down = loss_fn()
            flat_v[i] = orig
            flat_g[i] = (up - down) / (2.0 * step)
            probes += 1
        grads.append(g)
    return grads, probes


def rel_errors(analytic, numeric, floor=1e-3):
    """Per-coordinate relative error with an absolute floor on the denominator."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    return np.abs(a - n) / np.maximum(floor, np.abs(a) + np.abs(n))


def make_leaf(rng, shape, scale=1.0):
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def dft_power_spectrum(samples, window):
    """Direct O(N^2) DFT power spectrum of one windowed frame."""
    x = np.asarray(samples, dtype=np.float64) * window
    n = x.size
    bins = n // 2 + 1
    out = np.empty(bins)
    ns = np.arange(n)
    for k in range(bins):
        re = np.sum(x * np.cos(-2.0 * np.pi * k * ns / n))
        im = np.sum(x * np.sin(-2.0 * np.pi * k * ns / n))
        out[k] = re * re + im * im
    return out


def eer_bruteforce(scores_bona, scores_spoof):
    """O(n^2) EER sweep over midpoint thresholds plus +/- infinity.

    Operating points are gathered by direct counting per candidate
    threshold, ordered by decreasing threshold, then the first sign
    change of FAR - FRR is linearly interpolated.
    """
    b = np.asarray(scores_bona, dtype=np.float64)
    s = np.asarray(scores_spoof, dtype=np.float64)
    allv = np.sort(np.concatenate([b, s]))
    cands = [np.inf]
    for lo, hi in zip(allv[:-1], allv[1:]):
        cands.append((lo + hi) / 2.0)
    cands.append(-np.inf)
    # include the scores themselves so ties land exactly on operating points
    cands.extend(allv.tolist())
    cands = sorted(set(cands), reverse=True)

    points = []
    for th in cands:
        far = float(np.sum(s >= th)) / s.size
        frr = float(np.sum(b < th)) / b.size
        points.append((far, frr))

    prev_far, prev_frr = points[0]
    for far, frr in points[1:]:
        d = far - frr
        if d == 0.0:
            return far
        if d > 0.0:
            dp = prev_far - prev_frr
            t = -dp / (d - dp)
            return prev_far + t * (far - prev_far)
        prev_far, prev_frr = far, frr
    raise AssertionError("no crossing found")


def gru_scalar_oracle(layer_weights, x_rows):
    """Pure-Python stacked-GRU recurrence, one coordinate at a time.

    layer_weights: per layer, dict with keys Wz,Uz,bz,Wr,Ur,br,Wh,Uh,bh
    holding nested lists (W: d_in x H, U: H x H, b: H). x_rows: T x d_in
    nested lists. Returns per-layer list of T x H hidden-state lists.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    all_states = []
    seq = [list(row) for row in x_rows]
    for w in layer_weights:
        hidden = len(w["bz"])
        h = [0.0] * hidden
        states = []
        for xt in seq:
            d_in = len(xt)
            z = [
                sig(
                    sum(w["Wz"][i][j] * xt[i] for i in range(d_in))
                    + sum(w["Uz"][i][j] * h[i] for i in range(hidden))
                    + w["bz"][j]
                )
                for j in range(hidden)
            ]
            r = [
                sig(
                    sum(w["Wr"][i][j] * xt[i] for i in range(d_in))
                    + sum(w["Ur"][i][j] * h[i] for i in range(hidden))
                    + w["br"][j]
                )
                for j in range(hidden)
            ]
            rh = [r[i] * h[i] for i in range(hidden)]
            h_tilde = [
                math.tanh(
                    sum(w["Wh"][i][j] * xt[i] for i in range(d_in))
                    + sum(w["Uh"][i][j] * rh[i] for i in range(hidden))
                    + w["bh"][j]
                )
                for j in range(hidden)
            ]
            h = [z[j] * h[j] + (1.0 - z[j]) * h_tilde[j] for j in range(hidden)]
            states.append(list(h))
        all_states.append(states)
        seq = states
    return all_states


def gru_weights_from_params(params, layer):
    """Extract one GRU layer's tensors as nested lists for the oracle."""
    out = {}
    for gate in ("z", "r", "h"):
        out[f"W{gate}"] = params[f"gru{layer}_W{gate}"].values.tolist()
        out[f"U{gate}"] = params[f"gru{layer}_U{gate}"].values.tolist()
        out[f"b{gate}"] = params[f"gru{layer}_b{gate}"].values[0].tolist()
    return out


def ridge_gd_oracle(x, y, lam, steps=100_000):
    """Gradient descent on sum((y-Xw-b)^2) + lam*||w||^2, intercept
    unpenalized; step size from the quadratic's curvature bound."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    aug = np.concatenate([x, np.ones((n, 1))], axis=1)
    curv = 2.0 * (np.linalg.eigvalsh(aug.T @ aug).max() + lam)
    lr = 1.0 / curv
    w = np.zeros(d)
    b = 0.0
    for _ in range(steps):
        r = y - x @ w - b
        gw = -2.0 * (x.T @ r) + 2.0 * lam * w
        gb = -2.0 * r.sum()
        w -= lr * gw
        b -= lr * gb
    return w, b


def simplex_bruteforce_oracle(preds, y, step=0.05):
    """Triple-loop grid search with the uniform candidate appended and
    the tie band applied in enumeration order."""
    n = round(1.0 / step)
    combos = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            combos.append((i / n, j / n, (n - i - j) / n))
    combos.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
    mses = []
    for w in combos:
        total = 0.0
        for row, target in zip(preds, y):
            p = w[0] * row[0] + w[1] * row[1] + w[2] * row[2]
            total += (p - target) ** 2
        mses.append(total / len(y))
    best = min(mses)
    band = best * (1.0 + 1e-9) + 1e-18
    if mses[-1] <= band:
        return combos[-1]
    for w, m in zip(combos, mses):
        if m <= band:
            return w
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Reference framing, overlap-add and mel bank: the index-gather, per-frame
# loop and per-filter loop forms the strided and cached versions replace.
# They must agree to the byte.


def hann_periodic_ref(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def windowed_frames_ref(x, n_fft):
    hop = n_fft // 2
    xp = np.concatenate([np.zeros(n_fft), x, np.zeros(n_fft)])
    n_frames = 1 + math.ceil((len(xp) - n_fft) / hop)
    total = n_fft + (n_frames - 1) * hop
    xp = np.concatenate([xp, np.zeros(total - len(xp))])
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    window = hann_periodic_ref(n_fft)
    return xp[idx] * window, window, hop


def overlap_add_ref(frames, weight, hop, n_fft, orig_len):
    total = n_fft + (len(frames) - 1) * hop
    out = np.zeros(total)
    den = np.zeros(total)
    for k in range(len(frames)):
        out[k * hop : k * hop + n_fft] += frames[k]
        den[k * hop : k * hop + n_fft] += weight
    out /= np.maximum(den, 1e-12)
    return out[n_fft : n_fft + orig_len]


def pcm16_grid_ref(samples):
    return np.clip(np.rint(samples * 32768.0), -32768, 32767)


def quantize_pcm16_ref(x):
    return pcm16_grid_ref(x) / 32768.0


def stft_power_ref(wave, cfg):
    n = len(wave.samples)
    t_frames = 1 + (n - cfg.n_fft) // cfg.hop
    window = hann_periodic_ref(cfg.n_fft)
    starts = np.arange(t_frames) * cfg.hop
    frames = wave.samples[starts[:, None] + np.arange(cfg.n_fft)] * window
    spectrum = np.fft.rfft(frames, axis=1)
    return np.abs(spectrum) ** 2


def mel_filterbank_ref(sample_rate, n_fft, n_mels, fmin, fmax):
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / n_fft)
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    filters = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        tri = np.maximum(0.0, np.minimum(up, down))
        total = tri.sum()
        if total > 0:
            filters[m] = tri / total
    return filters


def _logmel_parts(wave, cfg):
    filters = mel_filterbank_ref(wave.sample_rate, cfg.n_fft, cfg.n_mels, cfg.fmin,
                                 min(cfg.fmax, wave.sample_rate / 2.0))
    return stft_power_ref(wave, cfg), filters


def logmel_one_call_ref(wave, cfg):
    """The log mel spectrogram with the whole mel product in one matmul."""
    power, filters = _logmel_parts(wave, cfg)
    return np.log(power @ filters.T + cfg.log_floor)


def logmel_rows_ref(wave, cfg, rows):
    """The log mel spectrogram with the mel product taken ``rows`` frames at
    a time, one matmul per slice."""
    power, filters = _logmel_parts(wave, cfg)
    mel = np.concatenate([power[i : i + rows] @ filters.T for i in range(0, len(power), rows)])
    return np.log(mel + cfg.log_floor)


# ---------------------------------------------------------------------------
# Generic tape ops: the op-by-op engine the model ran on before each stage
# became one hand-written op. The reference graphs below are built from
# them. No broadcasting except a row-vector bias in ``add``; every other
# shape mismatch raises ShapeMismatch.


def _require_2d(t: Tensor, name: str):
    if t.values.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {t.values.shape}")



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

    return ad._result(out_v, (a, b), bwd)


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

    return ad._result(out_v, (a, b), bwd)


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

    return ad._result(out_v, (a, b), bwd)


def affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """``scale * x + shift`` with python-float constants."""
    out_v = scale * x.values + shift

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += scale * g

    return ad._result(out_v, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    out_v = ad.sigmoid_values(x.values)

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g * out_v * (1.0 - out_v)

    return ad._result(out_v, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out_v = np.tanh(x.values)

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g * (1.0 - out_v * out_v)

    return ad._result(out_v, (x,), bwd)


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

    return ad._result(out_v, (x,), bwd)


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

    return ad._result(out_v, tuple(parts), bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _require_2d(x, "slice_rows input")
    if not (0 <= start < stop <= x.values.shape[0]):
        raise ShapeMismatch(f"slice rows [{start}:{stop}] out of range for {x.values.shape}")
    out_v = x.values[start:stop]

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx[start:stop] += g

    return ad._result(out_v, (x,), bwd)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows of x selected by an integer index array (repeats allowed)."""
    _require_2d(x, "gather_rows input")
    idx = np.asarray(idx, dtype=np.intp)
    out_v = x.values[idx]

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            np.add.at(gx, idx, g)

    return ad._result(out_v, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out_v = x.values.sum()

    def bwd(g, get_buf):
        gx = get_buf(x)
        if gx is not None:
            gx += g

    return ad._result(out_v, (x,), bwd)


# ---------------------------------------------------------------------------
# Reference graphs of the model composed from the generic ops: the graphs
# the model recorded before its stages became hand-written ops.


def encode_ref(spec, params):
    """The acoustic encoder as ``tanh(add(matmul(x, W), b))``."""
    x = Tensor(md._spec_input(spec, None, params))
    return tanh(add(matmul(x, params["enc_spec_w"]), params["enc_spec_b"]))


def head_ref(h, params):
    """The two-class head as ``add(matmul(h, W), b)``."""
    return add(matmul(h, params["head_w"]), params["head_b"])


def gru_step_graph(params, layer, x_t, h_prev):
    """One GRU timestep of one layer."""
    p = params
    z = sigmoid(add(add(matmul(x_t, p[f"gru{layer}_Wz"]), matmul(h_prev, p[f"gru{layer}_Uz"])), p[f"gru{layer}_bz"]))
    r = sigmoid(add(add(matmul(x_t, p[f"gru{layer}_Wr"]), matmul(h_prev, p[f"gru{layer}_Ur"])), p[f"gru{layer}_br"]))
    h_tilde = tanh(
        add(
            add(matmul(x_t, p[f"gru{layer}_Wh"]), matmul(hadamard(r, h_prev), p[f"gru{layer}_Uh"])),
            p[f"gru{layer}_bh"],
        )
    )
    return add(hadamard(z, h_prev), hadamard(affine(z, -1.0, 1.0), h_tilde))


def per_step_gru(x, params, batch, h0=None, collect=None):
    """Stacked GRU over time-major rows, unrolled one step at a time; same
    contract as ``model._run_gru``."""
    cfg = params.config
    steps = [slice_rows(x, t * batch, (t + 1) * batch) for t in range(x.shape[0] // batch)]
    h = None
    for layer in range(cfg.gru_layers):
        start = np.zeros((batch, cfg.gru_hidden)) if h0 is None else np.tile(h0, (batch, 1))
        h = Tensor(start)
        outs = []
        for x_t in steps:
            h = gru_step_graph(params, layer, x_t, h)
            outs.append(h)
        steps = outs
        if collect is not None:
            collect.append(np.vstack([o.values for o in outs]))
    return h


def graph_cross_attention(acoustic, text, params):
    """Cross-attention with one selector matrix per head."""
    cfg = params.config
    text_t = text if isinstance(text, Tensor) else Tensor(text)
    q = matmul(acoustic, params["Wq"])
    k = matmul(text_t, params["Wk"])
    v = matmul(text_t, params["Wv"])
    merged = None
    for h in range(cfg.n_heads):
        sel = np.zeros((cfg.d_model, cfg.d_k))
        sel[h * cfg.d_k : (h + 1) * cfg.d_k] = np.eye(cfg.d_k)
        sel_t = Tensor(sel)
        qh, kh, vh = matmul(q, sel_t), matmul(k, sel_t), matmul(v, sel_t)
        att = softmax_rows(affine(matmul(qh, kh, transpose_b=True), 1.0 / math.sqrt(cfg.d_k)))
        placed = matmul(matmul(att, vh), sel_t, transpose_b=True)
        merged = placed if merged is None else add(merged, placed)
    return add(acoustic, matmul(merged, params["Wo"]))


def per_step_forward_batch(specs, texts, params):
    """Forward pass: per-sample encoder and attention graphs, gathered
    time-major, then the per-step GRU graph and the head graph."""
    seqs = [graph_cross_attention(encode_ref(s, params), t, params) for s, t in zip(specs, texts)]
    batch, t_frames = len(seqs), seqs[0].shape[0]
    order = np.arange(batch * t_frames).reshape(batch, t_frames).T.ravel()
    return head_ref(per_step_gru(gather_rows(concat_rows(seqs), order), params, batch), params)


# ---------------------------------------------------------------------------
# Reference GRU stack: one tape op per layer, each with its own time loop and
# input projection, chained layer after layer. The wavefront op that runs the
# whole stack in one loop must agree with it to rounding.


def gru_layer_ref(params, layer, x, batch, h0):
    """One GRU layer over time-major rows ``x`` (T*batch, d_in) as a single
    tape op; returns every hidden state, time-major, as (T*batch, H)."""
    tensors = [params[f"gru{layer}_{kind}{gate}"] for gate in "zrh" for kind in "WUb"]
    wz, uz, bz, wr, ur, br, wh, uh, bh = (t.values for t in tensors)
    hid = uz.shape[0]
    steps = x.values.shape[0] // batch
    w = np.concatenate([wz, wr, wh], axis=1)
    u = np.concatenate([uz, ur], axis=1)
    proj = (x.values @ w + np.concatenate([bz, br, bh], axis=1)).reshape(steps, batch, 3 * hid)
    states = np.empty((steps + 1, batch, hid))
    states[0] = 0.0 if h0 is None else h0
    gates = np.empty((steps, batch, 2 * hid))  # [z | r]
    cand = np.empty((steps, batch, hid))
    for t in range(steps):
        h = states[t]
        gates[t] = ad.sigmoid_values(proj[t, :, : 2 * hid] + h @ u)
        z, r = gates[t, :, :hid], gates[t, :, hid:]
        cand[t] = np.tanh(proj[t, :, 2 * hid :] + (r * h) @ uh)
        states[t + 1] = z * h + (1.0 - z) * cand[t]

    def bwd(g, get_buf):
        g = g.reshape(steps, batch, hid)
        h_prev = states[:-1]
        z, r = gates[..., :hid], gates[..., hid:]
        dn_dh = (1.0 - z) * (1.0 - cand * cand)
        dz_dh = (h_prev - cand) * z * (1.0 - z)
        dr_drh = h_prev * r * (1.0 - r)
        d_proj = np.empty((steps, batch, 3 * hid))
        dh = np.zeros((batch, hid))
        for t in range(steps - 1, -1, -1):
            dh = dh + g[t]
            dn = np.multiply(dh, dn_dh[t], out=d_proj[t, :, 2 * hid :])
            drh = dn @ uh.T
            dzr = d_proj[t, :, : 2 * hid]
            np.multiply(dh, dz_dh[t], out=dzr[:, :hid])
            np.multiply(drh, dr_drh[t], out=dzr[:, hid:])
            dh = dh * z[t] + drh * r[t] + dzr @ u.T
        flat = d_proj.reshape(steps * batch, 3 * hid)
        gx = get_buf(x)
        if gx is not None:
            gx += flat @ w.T
        dwz, dwr, dwh = np.split(x.values.T @ flat, 3, axis=1)
        duz, dur = np.split(h_prev.reshape(steps * batch, hid).T @ flat[:, : 2 * hid], 2, axis=1)
        duh = (r * h_prev).reshape(steps * batch, hid).T @ flat[:, 2 * hid :]
        dbz, dbr, dbh = np.split(flat.sum(axis=0, keepdims=True), 3, axis=1)
        for tensor, grad in zip(tensors, (dwz, duz, dbz, dwr, dur, dbr, dwh, duh, dbh)):
            buf = get_buf(tensor)
            if buf is not None:
                buf += grad

    return ad._result(states[1:].reshape(steps * batch, hid), (x, *tensors), bwd)


def run_gru_ref(x, params, batch, h0=None, collect=None):
    """Chain the per-layer ops; same contract as ``model._run_gru``."""
    for layer in range(params.config.gru_layers):
        x = gru_layer_ref(params, layer, x, batch, h0)
        if collect is not None:
            collect.append(x.values)
    rows = x.values.shape[0]
    return slice_rows(x, rows - batch, rows)


# ---------------------------------------------------------------------------
# Reference front: the encoder and cross-attention op as it was before it
# attended over each caption's distinct rows batch-wide. Samples run one at a
# time over every caption row, repeats included, through ``model._attend``.


def front_ref(specs, raws, texts, params):
    """Same contract as ``model._front``, one sample at a time."""
    cfg = params.config
    if not len(specs) == len(raws) == len(texts):
        raise ShapeMismatch(f"batch has {len(specs)} specs, {len(raws)} raws and {len(texts)} texts")
    tensors = [params[n] for n in ("enc_spec_w", "enc_spec_b", "Wq", "Wk", "Wv", "Wo")]
    we, be, wq, wk, wv, wo = (t.values for t in tensors)
    wkv = np.concatenate([wk, wv], axis=1)
    kept = [] if ad._active_tape() is not None else None
    for b, (spec, raw, text) in enumerate(zip(specs, raws, texts)):
        x, text = md._spec_input(spec, raw, params), md._text_input(text, cfg)
        if b == 0:
            out = np.empty((x.shape[0], len(specs), cfg.d_model))
        elif x.shape[0] != out.shape[0]:
            raise ShapeMismatch("forward_batch requires equal-length sequences")
        enc = np.tanh(x @ we + be)
        out[:, b], saved = md._attend(enc, text.astype(np.float64), wq, wkv, wo, cfg.n_heads)
        if kept is not None:
            kept.append((x, text, enc, saved))

    def bwd(g, get_buf):
        g = g.reshape(out.shape)
        dwe, dbe, dwq, dwkv, dwo = (np.zeros_like(w) for w in (we, be, wq, wkv, wo))
        for b, (x, text, enc, saved) in enumerate(kept):
            denc, dwq_b, dkv, dwo_b = md._attend_grad(g[:, b], enc, saved, wq, wo)
            dpre = denc * (1.0 - enc * enc)
            dwe += x.T @ dpre
            dbe += dpre.sum(axis=0)
            dwq += dwq_b
            dwkv += text.astype(np.float64).T @ dkv
            dwo += dwo_b
        md._accumulate(get_buf, tensors, (dwe, dbe, dwq, *np.split(dwkv, 2, axis=1), dwo))

    return ad._result(out.reshape(-1, cfg.d_model), tensors, bwd)


# Fake families as written out one kind at a time before they became one
# parameter table: the strength scaling, the black-box composition's
# hidden draws and the artifact dispatch, on the corpus's own DSP steps.

FAMILY_DEFAULTS_REF = {
    "fake_lowpass_smear": {"cutoff_hz": 4500.0, "smear": 0.5},
    "fake_spectral_quantize": {"levels": 10},
    "fake_hum_phase": {"hum_hz": 50.0, "hum_amp": 0.04, "jitter": 0.3},
    "fake_blackbox": {"strength": 1.0},
}


def scaled_params_ref(kind, params, strength, sample_rate):
    """A family's params at ``strength``; strength 1 keeps them."""
    if strength == 1.0 or kind == "real":
        return dict(params)
    p = params
    nyq = sample_rate / 2.0
    if kind == "fake_lowpass_smear":
        return {"cutoff_hz": nyq - strength * (nyq - p["cutoff_hz"]),
                "smear": strength * p["smear"]}
    if kind == "fake_spectral_quantize":
        return {"levels": max(2, int(round(p["levels"] / strength)))}
    if kind == "fake_hum_phase":
        return {"hum_hz": p["hum_hz"], "hum_amp": strength * p["hum_amp"],
                "jitter": strength * p["jitter"]}
    return {"strength": strength * p["strength"]}


def blackbox_ref(x, sample_rate, rng, strength):
    nyq = sample_rate / 2.0
    cutoff = nyq - strength * (nyq - rng.uniform(3000.0, 9000.0))
    smear = strength * rng.uniform(0.2, 0.7)
    levels = max(2, int(round(rng.uniform(8.0, 48.0) / strength)))
    hum_hz = 50.0 if rng.uniform() < 0.5 else 60.0
    hum_amp = strength * rng.uniform(0.01, 0.05)
    jitter = strength * rng.uniform(0.1, 0.5)
    order = rng.permutation(3)
    y = x
    for op in order:
        if op == 0:
            y = cp._frame_smear(cp._lowpass4(y, sample_rate, cutoff), smear)
        elif op == 1:
            y = cp._spectral_quantize(y, levels)
        else:
            y = cp._hum_phase(y, sample_rate, rng, hum_hz, hum_amp, jitter)
    return y


def apply_fake_ref(wave, kind, params, seed):
    """Samples of ``corpus.apply_fake`` for family ``kind`` at ``params``."""
    rng = np.random.default_rng(seed)
    x = np.asarray(wave.samples, dtype=np.float64)
    p = params
    if kind == "fake_lowpass_smear":
        y = cp._lowpass4(x, wave.sample_rate, p["cutoff_hz"])
        if p["smear"] > 0.0:
            y = cp._frame_smear(y, p["smear"])
    elif kind == "fake_spectral_quantize":
        y = cp._spectral_quantize(x, p["levels"])
    elif kind == "fake_hum_phase":
        y = cp._hum_phase(x, wave.sample_rate, rng, p["hum_hz"], p["hum_amp"], p["jitter"])
    else:
        y = blackbox_ref(x, wave.sample_rate, rng, p["strength"])
    peak = float(np.max(np.abs(y)))
    if peak > 0.99:
        y *= 0.99 / peak
    return quantize_pcm16_ref(y)


_read_block = dsp.read_block  # the reader as imported, whatever a test patches in later


def read_block_f64_ref(fh, path):
    """The ATFX block reader as it was before loaded matrices stayed
    float32: the block's matrix widened to a float64 copy."""
    return _read_block(fh, path).astype(np.float64)


# ---------------------------------------------------------------------------
# Log-mel linear baseline


def logmel_stats(feat) -> np.ndarray:
    """Per-dim mean and standard deviation over frames in float64, concatenated."""
    m = np.asarray(getattr(feat, "values", feat), dtype=np.float64)
    return np.concatenate([m.mean(axis=0), m.std(axis=0)])


@dataclass
class LinearBaseline:
    ridge: RidgeModel


def _stats_matrix(entries, features) -> np.ndarray:
    for e in entries:
        if e.utt_id not in features:
            raise MissingFeature(f"no features for {e.utt_id!r}")
    return np.stack([logmel_stats(features[e.utt_id]) for e in entries])


def fit_linear_baseline(entries, features, lam: float = 1.0) -> LinearBaseline:
    entries = list(entries)
    if not entries:
        raise EmptySplit("cannot fit a baseline on an empty protocol")
    y = np.array([1.0 if e.label == "bonafide" else 0.0 for e in entries])
    return LinearBaseline(fit_ridge(_stats_matrix(entries, features), y, lam))


def score_linear_baseline(baseline: LinearBaseline, entries, features):
    entries = list(entries)
    if not entries:
        return []
    preds = predict_ridge(baseline.ridge, _stats_matrix(entries, features))
    return [Trial(e.utt_id, float(p), e.label) for e, p in zip(entries, preds)]


def traced_peak(fn):
    """``fn()`` and the peak bytes allocated while it ran, numpy buffers
    included."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
