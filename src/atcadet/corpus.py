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

import dataclasses
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import _INT16_SCALE, Waveform, _hann_periodic, _pcm16_grid, write_wav
from .errors import (
    BadConfig, BadJson, InsufficientFamilies, WrongKind, atomic_write, check_fields, read_json,
    temps_swept_on_error,
)
from .protocol import ProtocolEntry, write_protocol
from .shares import run_shares
from .text import CaptionSet, write_captions

EVENT_VOCAB = ("alarm", "bird", "dog", "engine", "horn", "rain", "siren", "wind")

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


class _Param(NamedTuple):
    """One family parameter: its default, whose type is the parameter's;
    its valid range; its value at strength ``s`` < 1 for Nyquist frequency
    ``nyq``; and the black-box family's hidden draw of it from its rng."""

    default: int | float
    ok: Callable
    scale: Callable = lambda v, s, nyq: s * v
    draw: Optional[Callable] = None


_BLACKBOX_MAX_LEVELS = 48.0  # the black box's largest quantization draw

# per kind: the caption token correlated with the family (opt-in), and its
# parameters; the black-box family draws the others' in this order
_FAMILIES = {
    "real": ("crisp", {}),
    "fake_lowpass_smear": ("muffled", {
        "cutoff_hz": _Param(4500.0, lambda v: v > 0, lambda v, s, nyq: nyq - s * (nyq - v),
                            lambda rng: rng.uniform(3000.0, 9000.0)),
        "smear": _Param(0.5, lambda v: 0.0 <= v <= 1.0, draw=lambda rng: rng.uniform(0.2, 0.7)),
    }),
    "fake_spectral_quantize": ("grainy", {
        # at most the largest float: synthesis divides by it as a float
        "levels": _Param(10, lambda v: 2 <= v <= sys.float_info.max,
                         lambda v, s, nyq: max(2, int(round(v / s))),
                         lambda rng: rng.uniform(8.0, _BLACKBOX_MAX_LEVELS)),
    }),
    "fake_hum_phase": ("humming", {
        "hum_hz": _Param(50.0, lambda v: 40.0 <= v <= 70.0, lambda v, s, nyq: v,
                         lambda rng: 50.0 if rng.uniform() < 0.5 else 60.0),
        "hum_amp": _Param(0.04, lambda v: 0.0 < v <= 0.2, draw=lambda rng: rng.uniform(0.01, 0.05)),
        "jitter": _Param(0.3, lambda v: 0.0 <= v <= 1.0, draw=lambda rng: rng.uniform(0.1, 0.5)),
    }),
    "fake_blackbox": ("processed", {"strength": _Param(1.0, lambda v: 0.0 < v <= 1.0)}),
}
_BLACKBOX_PARTS = ("fake_lowpass_smear", "fake_spectral_quantize", "fake_hum_phase")

GENERATOR_KINDS = tuple(_FAMILIES)
_GENERATOR_HINTS = {kind: hint for kind, (hint, _) in _FAMILIES.items()}


@dataclass(frozen=True)
class GeneratorSpec:
    """One clip source: the real recorder or a parametric fake family.

    ``params`` may set any parameter of the kind's ``_FAMILIES`` entry and
    defaults the rest; an integer parameter takes an int, a float one an
    int or a float (stored as a float), and each must lie in its range.
    """

    id: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise BadConfig("generator id must be non-empty")
        if self.kind not in _FAMILIES:
            raise WrongKind(f"unknown generator kind {self.kind!r}")
        _, table = _FAMILIES[self.kind]
        p = dict(self.params)
        extra = set(p) - set(table)
        if extra:
            raise BadConfig(f"generator {self.id!r}: unknown params {sorted(extra)}")
        clean = {}
        for name, param in table.items():
            value = p.get(name, param.default)
            number = numbers.Integral if isinstance(param.default, int) else numbers.Real
            if isinstance(value, bool) or not isinstance(value, number):
                raise BadConfig(f"generator {self.id!r}: {name} must be "
                                f"of type {type(param.default).__name__}, got {value!r}")
            value = type(param.default)(value)
            if not param.ok(value):
                raise BadConfig(f"generator {self.id!r}: {name}={value} out of range")
            clean[name] = value
        object.__setattr__(self, "params", clean)


REAL_GENERATOR = GeneratorSpec("real", "real")

DEFAULT_FAKE_GENERATORS = tuple(
    GeneratorSpec(kind.removeprefix("fake_"), kind) for kind in GENERATOR_KINDS if kind != "real"
)


# ---------------------------------------------------------------------------
# Real-clip synthesis


def _quantize_pcm16(x: np.ndarray) -> np.ndarray:
    """Snap to the 16-bit grid so written WAVs reload bit-exactly."""
    y = _pcm16_grid(x)
    y /= _INT16_SCALE
    return y


@functools.cache
def _load_sigtools():
    """scipy's compiled filter module ``scipy/signal/_sigtools``, or None
    if its file is missing.

    It is loaded on its own: ``import scipy.signal`` takes about 1 s and
    keeps about 65 MB of scipy resident, for the one filter synthesis
    uses. It is left out of ``sys.modules``, so a later ``import
    scipy.signal`` imports its submodule as usual; if ``scipy.signal`` is
    already imported, its module is returned.
    """
    import importlib.machinery
    import importlib.util

    import scipy

    name = "scipy.signal._sigtools"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sigtools" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # a single-phase extension module registers itself on creation
            sys.modules.pop(name, None)
            return module
    return None


def _lfilter(b, a, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)``, bit for bit, for a float64 ``x``
    and an ``a`` of two or more taps.

    It makes the call ``lfilter`` makes for these inputs (scipy 1.17), on
    the compiled filter alone; ``lfilter`` itself is the fallback where
    that filter cannot be found.
    """
    linear_filter = getattr(_load_sigtools(), "_linear_filter", None)
    if linear_filter is None:
        from scipy.signal import lfilter

        return lfilter(b, a, x)
    return linear_filter(np.atleast_1d(b), np.atleast_1d(a), x, -1)


def _pink_bed(rng, n: int, sample_rate: int) -> np.ndarray:
    """1/f-shaped bed: one-pole lowpass cascade, taps summed."""
    x = rng.standard_normal(n)
    bed = np.zeros(n)
    for f in (10240.0, 2560.0, 640.0, 160.0, 40.0):
        a = math.exp(-2.0 * math.pi * f / sample_rate)
        x = _lfilter([1.0 - a], [1.0, -a], x)
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
    c = math.tan(math.pi * cutoff_hz / sample_rate)
    b = [c / (1.0 + c), c / (1.0 + c)]
    a = [1.0, (c - 1.0) / (1.0 + c)]
    y = x
    for _ in range(4):
        y = _lfilter(b, a, y)
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
    parts = []
    for kind in _BLACKBOX_PARTS:
        _, table = _FAMILIES[kind]
        parts.append((kind, {name: p.scale(p.draw(rng), strength, nyq) for name, p in table.items()}))
    y = x
    for op in rng.permutation(len(parts)):
        y = _corrupt(y, sample_rate, rng, *parts[op])
    return y


def _corrupt(x: np.ndarray, sample_rate: int, rng, kind: str, params: dict) -> np.ndarray:
    """``x`` with the artifact of family ``kind`` at ``params``."""
    if kind == "fake_lowpass_smear":
        y = _lowpass4(x, sample_rate, params["cutoff_hz"])
        return _frame_smear(y, params["smear"]) if params["smear"] > 0.0 else y
    if kind == "fake_spectral_quantize":
        return _spectral_quantize(x, params["levels"])
    if kind == "fake_hum_phase":
        return _hum_phase(x, sample_rate, rng, **params)
    return _blackbox(x, sample_rate, rng, **params)


def apply_fake(wave: Waveform, gen: GeneratorSpec, seed) -> Waveform:
    """Corrupt a real clip with the family's artifact; seeded, quantized."""
    if gen.kind == "real":
        raise WrongKind("the real generator does not produce fakes")
    x = np.asarray(wave.samples, dtype=np.float64)
    y = _corrupt(x, wave.sample_rate, np.random.default_rng(seed), gen.kind, gen.params)
    peak = float(np.max(np.abs(y)))
    if peak > 0.99:
        y *= 0.99 / peak
    return Waveform(_quantize_pcm16(y), wave.sample_rate)


def scaled_generator(gen: GeneratorSpec, strength: float, sample_rate: int) -> GeneratorSpec:
    """Interpolate a family toward the no-op limit; strength 1 keeps it."""
    if not 0.0 < strength <= 1.0:
        raise BadConfig(f"artifact strength must be in (0, 1], got {strength}")
    if strength == 1.0:
        return gen
    _, table = _FAMILIES[gen.kind]
    nyq = sample_rate / 2.0
    return GeneratorSpec(gen.id, gen.kind, {
        name: table[name].scale(value, strength, nyq) for name, value in gen.params.items()
    })


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
        check_fields(vars(self), ints=(("n_clips", 2), ("sample_rate", 8000), ("seed", 0)),
                     reals=("duration_s", "bonafide_fraction", "blackbox_fraction",
                            "train_fraction", "dev_fraction", "artifact_strength"),
                     flags=("caption_generator_hints",))
        if self.duration_s < 0.5:
            raise BadConfig("clip duration must be >= 0.5 s")
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
        # scale every family, and the black box's largest levels draw, here:
        # a strength too small for them must fail before synthesis starts
        levels = _FAMILIES["fake_spectral_quantize"][1]["levels"]
        for g in gens:
            try:
                scaled = scaled_generator(g, self.artifact_strength, self.sample_rate)
                if g.kind == "fake_blackbox":
                    levels.scale(_BLACKBOX_MAX_LEVELS, scaled.params["strength"], None)
            except (BadConfig, OverflowError) as exc:
                raise BadConfig(f"artifact strength {self.artifact_strength} is too small "
                                f"for generator {g.id!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise BadConfig(f"unknown corpus config keys {sorted(unknown)}")
        d = dict(d)
        gens = d.pop("fake_generators", None)
        try:
            if gens is not None:
                d["fake_generators"] = tuple(
                    GeneratorSpec(g["id"], g["kind"], g.get("params", {})) for g in gens
                )
            return cls(**d)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadConfig(f"malformed corpus config: {exc}") from exc


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
            seen = [u for ids in by_split.values() for u in ids]
            if len(seen) != len(set(seen)):
                raise BadConfig(f"{track}: an utterance appears in two splits")
            if set(seen) != id_set:
                raise BadConfig(f"{track}: splits do not partition the clip set")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict, path) -> "CorpusManifest":
        """Parse the JSON of the manifest file ``path``. Any fault in it is
        a data error naming the file, a split map that does not partition
        the clips included."""
        try:
            clips = [ClipRecord(c["utt_id"], c["generator_id"], c["label"], tuple(c["tags"]),
                                float(c["duration_s"]), tuple(c["seed"])) for c in d["clips"]]
            return cls(clips, d["splits"], float(d["blackbox_fraction"]), d.get("config"))
        except (KeyError, TypeError, ValueError, AttributeError, BadConfig) as exc:
            raise BadJson(f"malformed manifest: {path}: {exc}") from exc


def write_manifest(path, manifest: CorpusManifest) -> None:
    """Written last by :func:`build_corpus`, and atomically: a corpus
    directory holds a manifest only once everything else is on disk."""
    with atomic_write(path, "w") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path) -> CorpusManifest:
    return CorpusManifest.from_dict(read_json(path), path)


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
    return shuffled[:n_train], shuffled[n_train : n_train + n_dev], shuffled[n_train + n_dev :]


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
    gen_scaled = {g.id: scaled_generator(g, cfg.artifact_strength, cfg.sample_rate)
                  for g in cfg.fake_generators}
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
    synthesized over every CPU (``shares.run_shares``). Synthesis loads
    only scipy's compiled filter module (``_lfilter``), once, before the
    workers fork, so they inherit it. If a share fails, the temp files of
    WAVs cut off mid-write are removed before its error is raised.

    The manifest is the corpus's commit marker: an old one is removed
    before the first WAV is written, and the new one is written last,
    after everything else in plan order.
    """
    plan, splits, _ = plan_corpus(cfg)
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)

    _load_sigtools()  # loaded once, here, so forked workers inherit it

    with temps_swept_on_error(wav_dir, [f"{utt}.wav" for utt, _ in plan]):
        tags_of = run_shares(_synth_share, range(len(plan)), cfg, plan, wav_dir)

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
    write_manifest(manifest_path, manifest)
    return manifest
