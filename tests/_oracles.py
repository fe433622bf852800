"""Independent oracles shared by the test modules.

These deliberately avoid the library's own computation paths: finite
differences instead of the tape, direct DFT sums instead of the FFT
frontend, exhaustive threshold sweeps instead of the sorted EER sweep.
"""

import math

import numpy as np

from atcadet import autodiff as ad
from atcadet.autodiff import Tensor


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
    return ad.slice_rows(x, rows - batch, rows)
