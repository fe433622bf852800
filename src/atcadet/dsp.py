"""WAV input/output and acoustic feature extraction.

Audio enters as RIFF/WAVE PCM16 mono files and leaves as feature
matrices: log-mel spectrogram frames, or externally precomputed features
read from a small binary container.
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    FEATURE_MAGIC,
    BadConfig,
    BadHeader,
    NonFinite,
    NotWav,
    ShapeMismatch,
    TooShort,
    TruncatedFile,
    UnsupportedFormat,
    atomic_write,
    check_head,
    read_exact,
    truncated,
)

FEATURE_VERSION = 1

_INT16_SCALE = 32768.0


@dataclass(frozen=True, eq=False)
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ShapeMismatch("waveform must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise NonFinite("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise UnsupportedFormat(f"bad sample rate {self.sample_rate}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 2048
    hop: int = 512
    n_mels: int = 64
    fmin: float = 20.0
    fmax: float = 22050.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_fft <= 0 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise BadConfig(f"n_fft must be a positive power of two, got {self.n_fft}")
        if not 0 < self.hop <= self.n_fft:
            raise BadConfig(f"hop must be in [1, n_fft], got {self.hop}")
        if not 1 <= self.n_mels <= self.n_fft // 2 + 1:
            raise BadConfig(f"n_mels must be in [1, n_fft/2+1], got {self.n_mels}")
        if not 0 <= self.fmin < self.fmax:
            raise BadConfig(f"need 0 <= fmin < fmax, got {self.fmin}, {self.fmax}")
        if self.log_floor <= 0:
            raise BadConfig("log_floor must be positive")


def held_values(values) -> np.ndarray:
    """``values`` as a feature or caption matrix holds them: a float32 array,
    what feature and embedding files store, as is; anything else widened to
    float64. Arithmetic widens float32 where it reads it, so either gives
    the same results."""
    if isinstance(values, np.ndarray) and values.dtype == np.float32:
        return values
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    values: np.ndarray

    def __post_init__(self):
        values = held_values(self.values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ShapeMismatch(f"feature matrix must be 2-D and non-empty, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFinite("feature matrix contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# WAV I/O


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file holding 16-bit PCM mono samples.

    Samples are scaled by 1/32768 into [-1, 1).
    """
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise NotWav(f"{path}: not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            head = fh.read(8)
            if len(head) == 0:
                break
            if len(head) < 8:
                raise TruncatedFile(f"{path}: truncated chunk header")
            chunk_id, size = struct.unpack("<4sI", head)
            payload = read_exact(fh, size, path, f"{chunk_id!r} chunk")
            if size % 2 == 1:  # RIFF chunks are word-aligned
                fh.read(1)
            if chunk_id == b"fmt ":
                fmt = payload
            elif chunk_id == b"data":
                data = payload
                if fmt is not None:
                    break
        if fmt is None or data is None:
            raise TruncatedFile(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise TruncatedFile(f"{path}: short fmt chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1:
        raise UnsupportedFormat(f"{path}: compression code {audio_format}, expected PCM")
    if channels != 1:
        raise UnsupportedFormat(f"{path}: {channels} channels, expected mono")
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples, expected 16")
    if len(data) % 2 != 0:
        raise TruncatedFile(f"{path}: data chunk holds a partial sample")
    if len(data) == 0:
        raise TruncatedFile(f"{path}: empty data chunk")
    ints = np.frombuffer(data, dtype="<i2")
    return Waveform(ints.astype(np.float64) / _INT16_SCALE, sample_rate)


def _pcm16_grid(samples: np.ndarray) -> np.ndarray:
    """Samples in int16 units, rounded and clipped, as a new float array."""
    y = samples * _INT16_SCALE
    np.rint(y, out=y)
    return np.clip(y, -32768, 32767, out=y)


def write_wav(path, wave: Waveform) -> None:
    """Write 16-bit PCM mono; samples are clipped and rounded to int16."""
    ints = _pcm16_grid(wave.samples).astype("<i2")
    payload = ints.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        wave.sample_rate,
        wave.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# Spectrogram features


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """Triangular mel filters over FFT bins, each normalized to unit sum.

    Returns an (n_mels, n_fft//2 + 1) matrix, cached and read-only.
    """
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
    filters.flags.writeable = False
    return filters


@functools.lru_cache(maxsize=16)
def _hann_periodic(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def stft_power(wave: Waveform, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Power spectrogram |STFT|^2, shape (T, n_fft//2 + 1). No centering."""
    n = len(wave.samples)
    if n < cfg.n_fft:
        raise TooShort(f"need at least {cfg.n_fft} samples, got {n}")
    window = _hann_periodic(cfg.n_fft)
    # unnamed, the windowed frames are freed before |spectrum| is allocated
    spectrum = np.fft.rfft(sliding_window_view(wave.samples, cfg.n_fft)[:: cfg.hop] * window, axis=1)
    return np.abs(spectrum) ** 2


MEL_ROWS = 4  # frames per mel product


def stft_logmel(wave: Waveform, cfg: StftConfig = StftConfig()) -> FeatureMatrix:
    """Log mel spectrogram: ln(mel-pooled power + log_floor).

    The mel product is one stacked matmul over ``MEL_ROWS``-frame pieces and
    one over the leftover frames. A product that small runs on one BLAS
    thread, so processes featurizing side by side do not contend, and its
    bytes do not depend on the thread count.
    """
    if wave.sample_rate != 44100:
        warnings.warn(
            f"processing {wave.sample_rate} Hz audio at its native rate",
            stacklevel=2,
        )
    power = stft_power(wave, cfg)
    fmax = min(cfg.fmax, wave.sample_rate / 2.0)
    filters = mel_filterbank(wave.sample_rate, cfg.n_fft, cfg.n_mels, cfg.fmin, fmax)
    mel = np.empty((len(power), cfg.n_mels))
    n = len(power) - len(power) % MEL_ROWS
    np.matmul(power[:n].reshape(-1, MEL_ROWS, power.shape[1]), filters.T,
              out=mel[:n].reshape(-1, MEL_ROWS, cfg.n_mels))
    np.matmul(power[n:], filters.T, out=mel[n:])
    return FeatureMatrix(np.log(mel + cfg.log_floor))


# ---------------------------------------------------------------------------
# Feature blocks: a feature file holds one, an embedding payload a stack

_BLOCK_HEAD = struct.Struct("<4sIII")  # magic, version, rows, dims


def write_block(fh, values: np.ndarray) -> None:
    """One ATFX block: magic, u32 version, rows and dims, then the 2-D
    ``values`` as row-major little-endian float32."""
    values = values.astype("<f4", copy=False)
    fh.write(_BLOCK_HEAD.pack(FEATURE_MAGIC, FEATURE_VERSION, *values.shape))
    fh.write(values.tobytes(order="C"))


def _block_shape(head: bytes, path) -> tuple:
    """The rows and dims of the ATFX block whose first ``_BLOCK_HEAD.size``
    bytes, or all there are, are ``head``, its magic and version checked."""
    check_head(head, path, FEATURE_MAGIC, FEATURE_VERSION, "a feature block")
    if len(head) < _BLOCK_HEAD.size:
        raise truncated(path, "block shape")
    _, _, rows, dims = _BLOCK_HEAD.unpack_from(head)
    if rows < 1 or dims < 1:
        raise BadHeader(f"{path}: empty matrix {rows}x{dims}")
    return rows, dims


def read_block(fh, path) -> np.ndarray:
    """The matrix of the ATFX block at ``fh``'s position, as the read-only
    little-endian float32 it stores. A payload shorter than its head
    declares is a ShapeMismatch."""
    rows, dims = _block_shape(fh.read(_BLOCK_HEAD.size), path)
    try:
        payload = read_exact(fh, 4 * rows * dims, path, f"a {rows}x{dims} matrix")
    except TruncatedFile as exc:
        raise ShapeMismatch(exc.message) from exc
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dims)


def write_features(path, matrix: FeatureMatrix) -> None:
    values = matrix.values.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise NonFinite("feature matrix overflows float32")
    with atomic_write(path) as fh:
        write_block(fh, values)


def load_external_features(path) -> FeatureMatrix:
    """The matrix of a feature file, its one ATFX block, read in one read
    and checked as :func:`read_block` checks a block; data past the block
    is a ShapeMismatch."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows, dims = _block_shape(data[: _BLOCK_HEAD.size], path)
    end = _BLOCK_HEAD.size + 4 * rows * dims
    if len(data) < end:
        raise ShapeMismatch(truncated(path, f"a {rows}x{dims} matrix").message)
    if len(data) > end:
        raise ShapeMismatch(f"{path}: trailing data after the matrix")
    values = np.frombuffer(data, "<f4", rows * dims, _BLOCK_HEAD.size).reshape(rows, dims)
    try:
        return FeatureMatrix(values)
    except NonFinite as exc:
        raise NonFinite(f"{path}: {exc.message}") from exc
