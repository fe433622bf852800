"""Synthetic environmental-sound corpus with parametric fake families.

Real clips are a 1/f-shaped noise bed plus a few tonal or chirp events
drawn from a fixed vocabulary. Fakes corrupt a freshly synthesized real
clip with a hand-designed DSP artifact; the black-box family composes
the other three with hidden parameters drawn from its seed. Two
protocols cover the same clips: track 1 holds one fake family out of
train/dev entirely, track 2 leaks a small fixed fraction of that family
into train.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import _INT16_SCALE, Waveform, _hann_periodic, _pcm16_grid, write_wav
from .errors import BadConfig, BadJson, InsufficientFamilies, WrongKind, atomic_write, read_text
from .protocol import ProtocolEntry, write_protocol
from .shares import run_shares
from .text import CaptionSet, write_captions

EVENT_VOCAB = ("alarm", "bird", "dog", "engine", "horn", "rain", "siren", "wind")

GENERATOR_KINDS = (
    "real",
    "fake_lowpass_smear",
    "fake_spectral_quantize",
    "fake_hum_phase",
    "fake_blackbox",
)

# per event type: frequency band (Hz), chirp slope span (Hz/s),
# amplitude-modulation rate range (Hz; 0 = steady)
_EVENT_BANDS = {
    "alarm": (800.0, 1600.0, 0.0, (4.0, 8.0)),
    "bird": (2500.0, 6000.0, 2500.0, (8.0, 16.0)),
    "dog": (250.0, 600.0, 200.0, (2.0, 5.0)),
    "engine": (60.0, 140.0, 10.0, (0.0, 0.0)),
    "horn": (300.0, 520.0, 0.0, (0.0, 0.0)),
    "rain": (4000.0, 9000.0, 1500.0, (20.0, 40.0)),
    "siren": (600.0, 1200.0, 450.0, (0.5, 1.5)),
    "wind": (120.0, 300.0, 90.0, (0.2, 0.8)),
}

# caption token correlated with the generator family (opt-in)
_GENERATOR_HINTS = {
    "real": "crisp",
    "fake_lowpass_smear": "muffled",
    "fake_spectral_quantize": "grainy",
    "fake_hum_phase": "humming",
    "fake_blackbox": "processed",
}


@dataclass(frozen=True)
class GeneratorSpec:
    """One clip source: the real recorder or a parametric fake family.

    Documented parameter ranges per kind:
      fake_lowpass_smear: cutoff_hz > 0, smear in [0, 1]
      fake_spectral_quantize: levels >= 2
      fake_hum_phase: hum_hz in [40, 70], hum_amp in (0, 0.2], jitter in [0, 1]
      fake_blackbox: strength in (0, 1] (hidden params drawn per clip)
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise BadConfig("generator id must be non-empty")
        if self.kind not in GENERATOR_KINDS:
            raise WrongKind(f"unknown generator kind {self.kind!r}")
        p = dict(self.params)
        if self.kind == "real":
            allowed = {}
        elif self.kind == "fake_lowpass_smear":
            allowed = {
                "cutoff_hz": (float(p.get("cutoff_hz", 4500.0)), lambda v: v > 0),
                "smear": (float(p.get("smear", 0.5)), lambda v: 0.0 <= v <= 1.0),
            }
        elif self.kind == "fake_spectral_quantize":
            allowed = {"levels": (int(p.get("levels", 10)), lambda v: v >= 2)}
        elif self.kind == "fake_hum_phase":
            allowed = {
                "hum_hz": (float(p.get("hum_hz", 50.0)), lambda v: 40.0 <= v <= 70.0),
                "hum_amp": (float(p.get("hum_amp", 0.04)), lambda v: 0.0 < v <= 0.2),
                "jitter": (float(p.get("jitter", 0.3)), lambda v: 0.0 <= v <= 1.0),
            }
        else:
            allowed = {"strength": (float(p.get("strength", 1.0)), lambda v: 0.0 < v <= 1.0)}
        extra = set(p) - set(allowed)
        if extra:
            raise BadConfig(f"generator {self.id!r}: unknown params {sorted(extra)}")
        clean = {}
        for name, (value, ok) in allowed.items():
            if not ok(value):
                raise BadConfig(f"generator {self.id!r}: {name}={value} out of range")
            clean[name] = value
        object.__setattr__(self, "params", clean)


REAL_GENERATOR = GeneratorSpec("real", "real")

DEFAULT_FAKE_GENERATORS = (
    GeneratorSpec("lowpass_smear", "fake_lowpass_smear", {"cutoff_hz": 4500.0, "smear": 0.5}),
    GeneratorSpec("spectral_quantize", "fake_spectral_quantize", {"levels": 10}),
    GeneratorSpec("hum_phase", "fake_hum_phase", {"hum_hz": 50.0, "hum_amp": 0.04, "jitter": 0.3}),
    GeneratorSpec("blackbox", "fake_blackbox", {}),
)


# ---------------------------------------------------------------------------
# Real-clip synthesis


def _quantize_pcm16(x: np.ndarray) -> np.ndarray:
    """Snap to the 16-bit grid so written WAVs reload bit-exactly."""
    y = _pcm16_grid(x)
    y /= _INT16_SCALE
    return y


def _pink_bed(rng, n: int, sample_rate: int) -> np.ndarray:
    """1/f-shaped bed: one-pole lowpass cascade, taps summed."""
    from scipy.signal import lfilter  # scipy is imported by synthesis alone

    x = rng.standard_normal(n)
    bed = np.zeros(n)
    for f in (10240.0, 2560.0, 640.0, 160.0, 40.0):
        a = math.exp(-2.0 * math.pi * f / sample_rate)
        x = lfilter([1.0 - a], [1.0, -a], x)
        bed += x
    rms = math.sqrt(float(np.mean(bed * bed)))
    return bed * (rng.uniform(0.03, 0.08) / max(rms, 1e-9))


def _synth_event(rng, etype: str, sample_rate: int, n_total: int):
    f_lo, f_hi, slope_span, (am_lo, am_hi) = _EVENT_BANDS[etype]
    length = min(n_total, max(1, int(round(rng.uniform(0.25, 0.7) * sample_rate))))
    onset = int(rng.integers(0, max(1, n_total - length + 1)))
    t = np.arange(length) / sample_rate
    f0 = rng.uniform(f_lo, f_hi)
    slope = rng.uniform(-slope_span, slope_span)
    tone = np.sin(2.0 * math.pi * (f0 * t + 0.5 * slope * t * t) + rng.uniform(0.0, 2.0 * math.pi))
    env = np.sin(math.pi * (np.arange(length) + 0.5) / length) ** 2
    am_rate = rng.uniform(am_lo, am_hi)
    if am_rate > 0.0:
        depth = rng.uniform(0.3, 0.9)
        env = env * (1.0 - depth * (0.5 + 0.5 * np.sin(2.0 * math.pi * am_rate * t)))
    return onset, rng.uniform(0.15, 0.35) * env * tone


def synth_real(seed, duration_s: float = 2.0, sample_rate: int = 44100):
    """Noise bed plus 1 to 4 events; returns (Waveform, event tags)."""
    if duration_s < 0.5:
        raise BadConfig(f"duration must be >= 0.5 s, got {duration_s}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    mix = _pink_bed(rng, n, sample_rate)
    n_events = int(rng.integers(1, 5))
    picks = rng.choice(len(EVENT_VOCAB), size=n_events, replace=False)
    placed = []
    for idx in picks:
        etype = EVENT_VOCAB[int(idx)]
        onset, sig = _synth_event(rng, etype, sample_rate, n)
        mix[onset : onset + len(sig)] += sig
        placed.append((onset, etype))
    placed.sort()
    peak = float(np.max(np.abs(mix)))
    if peak > 0.99:
        mix *= 0.99 / peak
    return Waveform(_quantize_pcm16(mix), sample_rate), tuple(e for _, e in placed)


# ---------------------------------------------------------------------------
# Fake artifact families

_SMEAR_NFFT = 1024


def _windowed_frames(x: np.ndarray, n_fft: int):
    hop = n_fft // 2
    n_frames = 1 + math.ceil((len(x) + n_fft) / hop)
    xp = np.zeros(n_fft + (n_frames - 1) * hop)
    xp[n_fft : n_fft + len(x)] = x
    window = _hann_periodic(n_fft)
    return sliding_window_view(xp, n_fft)[::hop] * window, window, hop


def _overlap_add(frames: np.ndarray, weight: np.ndarray, hop: int, n_fft: int, orig_len: int):
    """Weighted overlap-add of frames that overlap by half.

    Needs ``hop == n_fft // 2``: each hop-long output block then sums at
    most two terms, the back half of one frame and the front half of the
    next, so two half-frame adds give a per-frame loop's result to the bit.
    """
    out = np.zeros((len(frames) + 1, hop))
    den = np.zeros((len(frames) + 1, hop))
    out[:-1] += frames[:, :hop]
    out[1:] += frames[:, hop:]
    den[:-1] += weight[:hop]
    den[1:] += weight[hop:]
    out /= np.maximum(den, 1e-12)
    return out.reshape(-1)[n_fft : n_fft + orig_len]


def _frame_smear(x: np.ndarray, smear: float, n_fft: int = _SMEAR_NFFT) -> np.ndarray:
    frames, window, hop = _windowed_frames(x, n_fft)
    mixed = (1.0 - smear) * frames
    mixed[1:] += 0.5 * smear * frames[:-1]
    mixed[:-1] += 0.5 * smear * frames[1:]
    return _overlap_add(mixed, window, hop, n_fft, len(x))


def _lowpass4(x: np.ndarray, sample_rate: int, cutoff_hz: float) -> np.ndarray:
    # at or above Nyquist the filter is an exact pass-through
    if cutoff_hz >= sample_rate / 2.0:
        return x
    from scipy.signal import lfilter  # scipy is imported by synthesis alone

    c = math.tan(math.pi * cutoff_hz / sample_rate)
    b = [c / (1.0 + c), c / (1.0 + c)]
    a = [1.0, (c - 1.0) / (1.0 + c)]
    y = x
    for _ in range(4):
        y = lfilter(b, a, y)
    return y


def _spectral_quantize(x: np.ndarray, levels: int, n_fft: int = _SMEAR_NFFT) -> np.ndarray:
    frames, window, hop = _windowed_frames(x, n_fft)
    spec = np.fft.rfft(frames, axis=1)
    mag = np.abs(spec)
    peak = float(mag.max())
    if peak > 0.0:
        step = peak / levels
        spec = np.rint(mag / step) * step * np.exp(1j * np.angle(spec))
    rec = np.fft.irfft(spec, n=n_fft, axis=1) * window
    return _overlap_add(rec, window * window, hop, n_fft, len(x))


def _phase_jitter(x: np.ndarray, rng, jitter: float, n_fft: int = _SMEAR_NFFT) -> np.ndarray:
    frames, window, hop = _windowed_frames(x, n_fft)
    spec = np.fft.rfft(frames, axis=1)
    theta = rng.uniform(-math.pi * jitter, math.pi * jitter, size=(len(frames), 1))
    rec = np.fft.irfft(spec * np.exp(1j * theta), n=n_fft, axis=1) * window
    return _overlap_add(rec, window * window, hop, n_fft, len(x))


def _hum_phase(x: np.ndarray, sample_rate: int, rng, hum_hz: float, hum_amp: float, jitter: float):
    y = _phase_jitter(x, rng, jitter) if jitter > 0.0 else x
    t = np.arange(len(x)) / sample_rate
    return y + hum_amp * np.sin(2.0 * math.pi * hum_hz * t + rng.uniform(0.0, 2.0 * math.pi))


def _blackbox(x: np.ndarray, sample_rate: int, rng, strength: float) -> np.ndarray:
    # draw every hidden parameter up front so the stream is order-stable
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
            y = _frame_smear(_lowpass4(y, sample_rate, cutoff), smear)
        elif op == 1:
            y = _spectral_quantize(y, levels)
        else:
            y = _hum_phase(y, sample_rate, rng, hum_hz, hum_amp, jitter)
    return y


def apply_fake(wave: Waveform, gen: GeneratorSpec, seed) -> Waveform:
    """Corrupt a real clip with the family's artifact; seeded, quantized."""
    if gen.kind == "real":
        raise WrongKind("the real generator does not produce fakes")
    rng = np.random.default_rng(seed)
    x = np.asarray(wave.samples, dtype=np.float64)
    p = gen.params
    if gen.kind == "fake_lowpass_smear":
        y = _lowpass4(x, wave.sample_rate, p["cutoff_hz"])
        if p["smear"] > 0.0:
            y = _frame_smear(y, p["smear"])
    elif gen.kind == "fake_spectral_quantize":
        y = _spectral_quantize(x, p["levels"])
    elif gen.kind == "fake_hum_phase":
        y = _hum_phase(x, wave.sample_rate, rng, p["hum_hz"], p["hum_amp"], p["jitter"])
    else:
        y = _blackbox(x, wave.sample_rate, rng, p["strength"])
    peak = float(np.max(np.abs(y)))
    if peak > 0.99:
        y *= 0.99 / peak
    return Waveform(_quantize_pcm16(y), wave.sample_rate)


def scaled_generator(gen: GeneratorSpec, strength: float, sample_rate: int) -> GeneratorSpec:
    """Interpolate a family toward the no-op limit; strength 1 keeps it."""
    if not 0.0 < strength <= 1.0:
        raise BadConfig(f"artifact strength must be in (0, 1], got {strength}")
    if strength == 1.0 or gen.kind == "real":
        return gen
    p = gen.params
    nyq = sample_rate / 2.0
    if gen.kind == "fake_lowpass_smear":
        p = {
            "cutoff_hz": nyq - strength * (nyq - p["cutoff_hz"]),
            "smear": strength * p["smear"],
        }
    elif gen.kind == "fake_spectral_quantize":
        p = {"levels": max(2, int(round(p["levels"] / strength)))}
    elif gen.kind == "fake_hum_phase":
        p = {
            "hum_hz": p["hum_hz"],
            "hum_amp": strength * p["hum_amp"],
            "jitter": strength * p["jitter"],
        }
    else:
        p = {"strength": strength * p["strength"]}
    return GeneratorSpec(gen.id, gen.kind, p)


# ---------------------------------------------------------------------------
# Corpus assembly


@dataclass(frozen=True)
class CorpusConfig:
    n_clips: int = 500
    duration_s: float = 2.0
    sample_rate: int = 44100
    bonafide_fraction: float = 0.5
    blackbox_fraction: float = 0.01
    train_fraction: float = 0.6
    dev_fraction: float = 0.2
    artifact_strength: float = 1.0
    caption_generator_hints: bool = False
    seed: int = 0
    fake_generators: tuple = DEFAULT_FAKE_GENERATORS

    def __post_init__(self):
        if self.n_clips < 2:
            raise BadConfig("need at least 2 clips")
        if self.duration_s < 0.5:
            raise BadConfig("clip duration must be >= 0.5 s")
        if self.sample_rate < 8000:
            raise BadConfig("sample rate must be >= 8000 Hz")
        if not 0.0 < self.bonafide_fraction < 1.0:
            raise BadConfig("bonafide fraction must be in (0, 1)")
        if not 0.0 < self.blackbox_fraction <= 1.0:
            raise BadConfig("blackbox fraction must be in (0, 1]")
        if not 0.0 < self.artifact_strength <= 1.0:
            raise BadConfig("artifact strength must be in (0, 1]")
        if min(self.train_fraction, self.dev_fraction) < 0.0 or (
            self.train_fraction + self.dev_fraction >= 1.0
        ):
            raise BadConfig("train+dev fractions must leave room for eval")
        gens = tuple(self.fake_generators)
        if any(g.kind == "real" for g in gens):
            raise BadConfig("fake_generators must not contain the real kind")
        if len({g.id for g in gens}) != len(gens):
            raise BadConfig("duplicate generator ids")
        object.__setattr__(self, "fake_generators", gens)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "n_clips", "duration_s", "sample_rate", "bonafide_fraction",
            "blackbox_fraction", "train_fraction", "dev_fraction",
            "artifact_strength", "caption_generator_hints", "seed",
        )}
        d["fake_generators"] = [
            {"id": g.id, "kind": g.kind, "params": dict(g.params)} for g in self.fake_generators
        ]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusConfig":
        d = dict(d)
        gens = d.pop("fake_generators", None)
        known = {f for f in cls.__dataclass_fields__ if f != "fake_generators"}
        unknown = set(d) - known
        if unknown:
            raise BadConfig(f"unknown corpus config keys {sorted(unknown)}")
        try:
            if gens is not None:
                d["fake_generators"] = tuple(
                    GeneratorSpec(g["id"], g["kind"], g.get("params", {})) for g in gens
                )
            return cls(**d)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadJson(f"malformed corpus config: {exc}") from exc


@dataclass(frozen=True)
class ClipRecord:
    utt_id: str
    generator_id: str
    label: str
    tags: tuple
    duration_s: float
    seed: tuple


@dataclass
class CorpusManifest:
    clips: list
    splits: dict
    blackbox_fraction: float
    config: Optional[dict] = None

    def __post_init__(self):
        all_ids = [c.utt_id for c in self.clips]
        id_set = set(all_ids)
        if len(id_set) != len(all_ids):
            raise BadConfig("duplicate utt_id in manifest")
        for track, by_split in self.splits.items():
            seen = []
            for ids in by_split.values():
                seen.extend(ids)
            if len(seen) != len(set(seen)):
                raise BadConfig(f"{track}: an utterance appears in two splits")
            if set(seen) != id_set:
                raise BadConfig(f"{track}: splits do not partition the clip set")

    def to_dict(self) -> dict:
        return {
            "blackbox_fraction": self.blackbox_fraction,
            "clips": [
                {
                    "utt_id": c.utt_id,
                    "generator_id": c.generator_id,
                    "label": c.label,
                    "tags": list(c.tags),
                    "duration_s": c.duration_s,
                    "seed": list(c.seed),
                }
                for c in self.clips
            ],
            "splits": self.splits,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusManifest":
        try:
            clips = [
                ClipRecord(
                    c["utt_id"], c["generator_id"], c["label"],
                    tuple(c["tags"]), float(c["duration_s"]), tuple(c["seed"]),
                )
                for c in d["clips"]
            ]
            return cls(clips, d["splits"], float(d["blackbox_fraction"]), d.get("config"))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadJson(f"malformed manifest: {exc}") from exc


def write_manifest(path, manifest: CorpusManifest) -> None:
    """Written last by :func:`build_corpus`, and atomically: a corpus
    directory holds a manifest only once everything else is on disk."""
    with atomic_write(path, "w") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path) -> CorpusManifest:
    try:
        d = json.loads(read_text(path, BadJson))
    except json.JSONDecodeError as exc:
        raise BadJson(f"{path}: {exc}") from exc
    return CorpusManifest.from_dict(d)


def _caption_events(tags) -> str:
    uniq = list(dict.fromkeys(tags))
    if len(uniq) == 1:
        return uniq[0]
    return ", ".join(uniq[:-1]) + " and " + uniq[-1]


def make_captions(utt_id: str, tags, hint: Optional[str] = None) -> CaptionSet:
    ev = _caption_events(tags)
    caps = {
        "audioset": ", ".join(dict.fromkeys(tags)),
        "audiocaps": f"a recording of {ev} with background noise",
        "clotho": f"{ev} can be heard over a noisy background",
    }
    if hint is not None:
        caps["audioset"] += f", {hint}"
        caps["audiocaps"] += f", somewhat {hint}"
        caps["clotho"] += f" that sounds {hint}"
    return CaptionSet(utt_id, caps)


def _split_group(rng, ids, train_frac, dev_frac):
    ids = list(ids)
    order = rng.permutation(len(ids))
    n_train = int(round(train_frac * len(ids)))
    n_dev = int(round(dev_frac * len(ids)))
    shuffled = [ids[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_dev],
        shuffled[n_train + n_dev :],
    )


def plan_corpus(cfg: CorpusConfig):
    """Per-clip (utt_id, generator) plan plus both tracks' split maps."""
    if len(cfg.fake_generators) < 2:
        raise InsufficientFamilies("need at least 2 fake generator families")
    n_real = int(round(cfg.n_clips * cfg.bonafide_fraction))
    n_fake = cfg.n_clips - n_real
    if n_real < 1 or n_fake < 1:
        raise BadConfig("both labels need at least one clip")
    fams = cfg.fake_generators
    counts = [n_fake // len(fams)] * len(fams)
    for i in range(n_fake - sum(counts)):
        counts[i] += 1
    if min(counts) < 1:
        raise InsufficientFamilies("too few fake clips to cover every family")

    plan = [(f"u{i:04d}", REAL_GENERATOR) for i in range(n_real)]
    k = n_real
    for gen, cnt in zip(fams, counts):
        for _ in range(cnt):
            plan.append((f"u{k:04d}", gen))
            k += 1

    held_out = next((g for g in fams if g.kind == "fake_blackbox"), fams[-1])
    by_gen = {}
    for utt, gen in plan:
        by_gen.setdefault(gen.id, []).append(utt)

    base = {"train": [], "dev": [], "eval": []}
    for gi, (gen_id, ids) in enumerate(sorted(by_gen.items())):
        rng = np.random.default_rng([cfg.seed, 1, gi])
        tr, dv, ev = _split_group(rng, ids, cfg.train_fraction, cfg.dev_fraction)
        base["train"] += tr
        base["dev"] += dv
        base["eval"] += ev

    held_ids = set(by_gen[held_out.id])
    track1 = {
        "train": [u for u in base["train"] if u not in held_ids],
        "dev": [u for u in base["dev"] if u not in held_ids],
        "eval": base["eval"] + [u for u in base["train"] + base["dev"] if u in held_ids],
    }
    n_leak = math.floor(cfg.blackbox_fraction * len(held_ids))
    leak = set(
        [u for u in base["train"] + base["dev"] + base["eval"] if u in held_ids][:n_leak]
    )
    track2 = {
        "train": [u for u in base["train"] if u not in held_ids] + sorted(leak),
        "dev": [u for u in base["dev"] if u not in held_ids],
        "eval": base["eval"] + [
            u for u in base["train"] + base["dev"] if u in held_ids and u not in leak
        ],
    }
    track2["eval"] = [u for u in track2["eval"] if u not in leak]
    return plan, {"track1": track1, "track2": track2}, held_out.id


def _synth_share(indices, cfg: CorpusConfig, plan, wav_dir) -> list:
    """Write the WAV of each clip ``indices`` picks from ``plan``; return
    each one's event tags."""
    gen_scaled = {
        g.id: scaled_generator(g, cfg.artifact_strength, cfg.sample_rate)
        for g in cfg.fake_generators
    }
    tags = []
    for i in indices:
        utt, gen = plan[i]
        wave, clip_tags = synth_real([cfg.seed, i], cfg.duration_s, cfg.sample_rate)
        if gen.kind != "real":
            wave = apply_fake(wave, gen_scaled[gen.id], [cfg.seed, i, 1])
        write_wav(os.path.join(wav_dir, f"{utt}.wav"), wave)
        tags.append(clip_tags)
    return tags


def build_corpus(cfg: CorpusConfig, out_dir) -> CorpusManifest:
    """Synthesize WAVs, captions, both protocols, and the manifest.

    Each clip depends only on its seed ``[cfg.seed, i]``, so the clips are
    synthesized over every CPU (``shares.run_shares``). If a share fails,
    the temp files of WAVs cut off mid-write are removed before its error
    is raised. Everything else is written in plan order after the WAVs,
    the manifest last.
    """
    plan, splits, _ = plan_corpus(cfg)
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)

    import scipy.signal  # noqa: F401 - imported once, here, so forked workers inherit it

    try:
        tags_of = run_shares(_synth_share, range(len(plan)), cfg, plan, wav_dir)
    except BaseException:
        # a worker killed inside errors.atomic_write leaves ".<utt>.wav.<pid>.tmp"
        prefixes = tuple(f".{utt}.wav." for utt, _ in plan)
        for name in os.listdir(wav_dir):
            if name.startswith(prefixes) and name.endswith(".tmp"):
                os.remove(os.path.join(wav_dir, name))
        raise

    clips = []
    captions = []
    for i, (utt, gen) in enumerate(plan):
        label = "bonafide" if gen.kind == "real" else "spoof"
        hint = _GENERATOR_HINTS[gen.kind] if cfg.caption_generator_hints else None
        captions.append(make_captions(utt, tags_of[i], hint))
        clips.append(ClipRecord(utt, gen.id, label, tags_of[i], cfg.duration_s, (cfg.seed, i)))

    write_captions(os.path.join(out_dir, "captions.jsonl"), captions)

    by_id = {c.utt_id: c for c in clips}
    for track in ("track1", "track2"):
        entries = []
        for split in ("train", "dev", "eval"):
            for utt in splits[track][split]:
                c = by_id[utt]
                entries.append(
                    ProtocolEntry(utt, f"wav/{utt}.wav", c.label, c.generator_id, split)
                )
        entries.sort(key=lambda e: e.utt_id)
        write_protocol(os.path.join(out_dir, f"protocol_{track}.tsv"), entries)

    manifest = CorpusManifest(clips, splits, cfg.blackbox_fraction, cfg.to_dict())
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
