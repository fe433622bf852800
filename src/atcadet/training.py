"""Mini-batch training with Adam and early stopping on validation EER.

The loop shuffles with a seeded PRNG, groups same-length sequences into
batches, and keeps the parameters of the epoch with the lowest
validation EER. Scoring walks a protocol in order and emits one trial
per entry; the text-ablated variant replaces every caption matrix with
a single zero token so attention returns the acoustic input unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import model as md
from .errors import (
    BadConfig,
    BadJson,
    EmptySplit,
    MissingEmbedding,
    MissingFeature,
    NonFinite,
    atomic_write,
    check_fields,
    is_real,
    quoted,
    read_json,
)
from .metrics import Trial, compute_eer
from .protocol import filter_split
from .text import TextEmbedding


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    patience: int = 10
    grad_clip: Optional[float] = 5.0
    auto_class_weights: bool = True

    def __post_init__(self):
        check_fields(vars(self),
                     ints=(("epochs", 1), ("batch_size", 1), ("patience", 1)),
                     reals=("lr", "adam_beta1", "adam_beta2", "adam_eps"),
                     flags=("auto_class_weights",), seeds=("seed",))
        if self.lr < 0:
            raise BadConfig("lr must be >= 0")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise BadConfig("adam betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise BadConfig("adam_eps must be positive")
        if self.grad_clip is not None and not (is_real(self.grad_clip) and self.grad_clip > 0):
            raise BadConfig(f"grad_clip must be a positive number or None, got {quoted(self.grad_clip)}")


@dataclass
class TrainReport:
    train_loss: list
    val_eer: list
    best_epoch: int
    wall_seconds: float
    class_weights: tuple

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainReport":
        try:
            return cls(
                [float(v) for v in d["train_loss"]],
                [float(v) for v in d["val_eer"]],
                int(d["best_epoch"]),
                float(d["wall_seconds"]),
                tuple(float(w) for w in d["class_weights"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadJson(f"malformed train report: {exc}") from exc


def write_report(path, report: TrainReport) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def load_report(path) -> TrainReport:
    return TrainReport.from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Data plumbing


def inverse_frequency_weights(entries) -> tuple:
    """Class weights 1/freq, normalized to mean 1; order (real, fake)."""
    n0 = sum(1 for e in entries if e.label == "bonafide")
    n1 = len(entries) - n0
    if n0 == 0 or n1 == 0:
        raise EmptySplit("need both labels to derive class weights")
    inv = np.array([1.0 / n0, 1.0 / n1])
    w = inv / inv.mean()
    return (float(w[0]), float(w[1]))


def check_coverage(entries, features, embeddings):
    """Every entry has features and an embedding."""
    for e in entries:
        if e.utt_id not in features:
            raise MissingFeature(f"no features for {e.utt_id!r}")
        if e.utt_id not in embeddings:
            raise MissingEmbedding(f"no embedding for {e.utt_id!r}")


def _batches_same_length(indices, lengths, batch_size):
    """Chunk shuffled indices into batches of equal sequence length."""
    groups = {}  # in the order each length first appears
    for i in indices:
        groups.setdefault(lengths[i], []).append(i)
    out = []
    for g in groups.values():
        for k in range(0, len(g), batch_size):
            out.append(g[k : k + batch_size])
    return out


class _Adam:
    def __init__(self, params: md.AtcaParams, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {n: np.zeros_like(t.values) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.values) for n, t in params.tensors.items()}
        self.t = 0

    def step(self, params: md.AtcaParams, grads: dict) -> None:
        cfg = self.cfg
        if cfg.grad_clip is not None:
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm > cfg.grad_clip:
                scale = cfg.grad_clip / norm
                grads = {n: g * scale for n, g in grads.items()}
        self.t += 1
        bias1 = 1.0 - cfg.adam_beta1**self.t
        bias2 = 1.0 - cfg.adam_beta2**self.t
        for name, tensor in params.tensors.items():
            g = grads[name]
            self.m[name] = cfg.adam_beta1 * self.m[name] + (1.0 - cfg.adam_beta1) * g
            self.v[name] = cfg.adam_beta2 * self.v[name] + (1.0 - cfg.adam_beta2) * (g * g)
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            tensor.values = tensor.values - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def _fit_normalizers(params: md.AtcaParams, spec_mats) -> None:
    """Column mean and standard deviation of the train frames, in one
    float64 stack: the deviation is ``np.std``'s own steps done in place."""
    # one stack, not streamed sums: freeing it lifts glibc's mmap threshold, so steps reuse heap memory
    stacked = np.concatenate(spec_mats, axis=0, dtype=np.float64)
    mu = stacked.mean(axis=0, keepdims=True)
    stacked -= mu
    stacked *= stacked
    sigma = np.sqrt(stacked.sum(axis=0, keepdims=True) / len(stacked))
    params.buffers["norm_mu"][:] = mu
    params.buffers["norm_sigma"][:] = np.maximum(sigma, 1e-6)


def _train_step(params, adam, spec_mats, texts, labels, weights, batch, lr) -> tuple:
    """One step on the samples ``batch``; returns its loss and its summed
    class weight. Its tape, gradients and logits die when it returns."""
    with ad.Tape() as tape:
        logits = md.forward_batch(
            [spec_mats[i] for i in batch], [None] * len(batch), [texts[i] for i in batch], params)
        loss = ad.weighted_ce_logits(logits, labels[batch], weights)
    if lr > 0:
        grad_map = ad.backward(tape, loss)
        adam.step(params, {n: grad_map[t] for n, t in params.tensors.items()})
    return loss.item(), float(weights[labels[batch]].sum())


def _diverged(epoch: int, step: int, what: str) -> BadConfig:
    """A diverged run's error: its inputs were checked, so its config is at fault."""
    return BadConfig(f"training diverged at epoch {epoch}, step {step}: non-finite {what}")


# ---------------------------------------------------------------------------
# Training


def train(entries, features, embeddings, cfg: TrainConfig, model_cfg: md.AtcaConfig):
    """Fit ATCA on the train split, select on dev EER; returns (params, report)."""
    t_start = time.perf_counter()
    train_e = filter_split(entries, "train")
    dev_e = filter_split(entries, "dev")
    if not train_e:
        raise EmptySplit("protocol has no train entries")
    if not dev_e:
        raise EmptySplit("protocol has no dev entries")
    check_coverage(train_e + dev_e, features, embeddings)

    if cfg.auto_class_weights:
        model_cfg = dataclasses.replace(
            model_cfg, class_weights=inverse_frequency_weights(train_e)
        )
    params = md.AtcaParams.init(model_cfg, seed=cfg.seed)

    spec_mats = [md.as_matrix(features[e.utt_id], "spec features") for e in train_e]
    texts = [embeddings[e.utt_id] for e in train_e]
    labels = np.array([0 if e.label == "bonafide" else 1 for e in train_e], dtype=np.int64)
    _fit_normalizers(params, spec_mats)
    md.check_inputs(spec_mats, texts, params)

    weights = np.asarray(model_cfg.class_weights, dtype=np.float64)
    lengths = [m.shape[0] for m in spec_mats]
    adam = _Adam(params, cfg)
    rng = np.random.default_rng(cfg.seed)

    best_eer = np.inf
    best_epoch = -1
    best_params = params.copy()
    bad_epochs = 0
    loss_curve = []
    eer_curve = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_e))
        num = 0.0
        den = 0.0
        # a run that diverges raises one BadConfig, and no numpy warning
        with np.errstate(all="ignore"):
            for step, batch in enumerate(_batches_same_length(list(order), lengths, cfg.batch_size)):
                loss, w_batch = _train_step(params, adam, spec_mats, texts, labels, weights, batch, cfg.lr)
                num += loss * w_batch
                den += w_batch
                if not (np.isfinite(num) and np.isfinite(den)):  # the step's loss, or the epoch's sums
                    raise _diverged(epoch, step, "loss")
            if not all(np.isfinite(t.values).all() for t in params.tensors.values()):
                raise _diverged(epoch, step, "parameters")
            try:
                dev_trials = score_protocol(params, dev_e, features, embeddings)
            except NonFinite as exc:  # a dev clip's input, checked again here, or the run's scores
                md.check_inputs([features[e.utt_id] for e in dev_e], [embeddings[e.utt_id] for e in dev_e], params)
                raise _diverged(epoch, step, "dev score") from exc
        loss_curve.append(num / den)

        eer = compute_eer(dev_trials).eer
        eer_curve.append(eer)
        if eer < best_eer:
            best_eer = eer
            best_epoch = epoch
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    report = TrainReport(
        loss_curve,
        eer_curve,
        best_epoch,
        time.perf_counter() - t_start,
        tuple(model_cfg.class_weights),
    )
    return best_params, report


# ---------------------------------------------------------------------------
# Scoring


def score_protocol(params, entries, features, embeddings):
    """One Trial per protocol entry, order preserved; batched inference."""
    entries = list(entries)
    if not entries:
        return []
    check_coverage(entries, features, embeddings)
    texts = [embeddings[e.utt_id] for e in entries]
    spec_mats = [md.as_matrix(features[e.utt_id], "spec features") for e in entries]
    md.check_inputs(spec_mats, texts, params)
    lengths = [m.shape[0] for m in spec_mats]
    scores = np.empty(len(entries))
    # up to 256 clips a batch: without a tape the GRU's state stays small,
    # and its cost per clip falls as the batch widens
    with ad.no_grad():
        for batch in _batches_same_length(range(len(entries)), lengths, 256):
            logits = md.forward_batch(
                [spec_mats[i] for i in batch],
                [None] * len(batch),
                [texts[i] for i in batch],
                params,
            )
            scores[batch] = md.scores_from_logits(logits.values)
    return [Trial(e.utt_id, float(s), e.label) for e, s in zip(entries, scores)]


def ablate_text(params, entries, features):
    """Score with captions replaced by one zero token (audio-only path).
    Every clip shares one TextEmbedding, so the front end projects the
    zero row once per piece and ``check_inputs`` has no caption to check."""
    zero = TextEmbedding("ablated", np.zeros((1, params.config.d_text)))
    return score_protocol(params, entries, features, {e.utt_id: zero for e in entries})
