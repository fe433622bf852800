import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atcadet import corpus as cp
from atcadet import dsp
from atcadet.dsp import FeatureMatrix, StftConfig, Waveform
from atcadet.errors import (
    BadConfig,
    BadHeader,
    NonFinite,
    NotWav,
    ShapeMismatch,
    TooShort,
    TruncatedFile,
    UnsupportedFormat,
)

from _oracles import dft_power_spectrum, logmel_one_call_ref, logmel_rows_ref


def _write_pcm16(path, ints, sample_rate=44100, channels=1, bits=16, fmt=1):
    payload = struct.pack(f"<{len(ints)}h", *ints)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt,
        channels,
        sample_rate,
        sample_rate * channels * bits // 8,
        channels * bits // 8,
        bits,
        b"data",
        len(payload),
    )
    path.write_bytes(header + payload)


class TestLoadWav:
    def test_scaling(self, tmp_path):
        p = tmp_path / "one.wav"
        _write_pcm16(p, [16384])
        w = dsp.load_wav(p)
        assert w.sample_rate == 44100
        np.testing.assert_array_equal(w.samples, [0.5])

    def test_scale_endpoint(self, tmp_path):
        p = tmp_path / "min.wav"
        _write_pcm16(p, [-32768])
        np.testing.assert_array_equal(dsp.load_wav(p).samples, [-1.0])

    def test_write_read_round_trip(self, tmp_path):
        p = tmp_path / "rt.wav"
        rng = np.random.default_rng(0)
        first = Waveform(rng.uniform(-1, 1, size=3), 44100)
        dsp.write_wav(p, first)
        again = dsp.load_wav(p)
        dsp.write_wav(p, again)
        np.testing.assert_array_equal(dsp.load_wav(p).samples, again.samples)

    def test_exact_values_survive(self, tmp_path):
        p = tmp_path / "exact.wav"
        exact = Waveform(np.array([-32768, 0, 12345]) / 32768.0, 22050)
        dsp.write_wav(p, exact)
        got = dsp.load_wav(p)
        assert got.sample_rate == 22050
        np.testing.assert_array_equal(got.samples, exact.samples)

    def test_not_wav(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(NotWav):
            dsp.load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        _write_pcm16(p, [0, 0], channels=2)
        with pytest.raises(UnsupportedFormat):
            dsp.load_wav(p)

    def test_wrong_depth_rejected(self, tmp_path):
        p = tmp_path / "b8.wav"
        _write_pcm16(p, [0], bits=8)
        with pytest.raises(UnsupportedFormat):
            dsp.load_wav(p)

    def test_non_pcm_rejected(self, tmp_path):
        p = tmp_path / "f32.wav"
        _write_pcm16(p, [0], fmt=3)
        with pytest.raises(UnsupportedFormat):
            dsp.load_wav(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "cut.wav"
        _write_pcm16(p, [1, 2, 3, 4])
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(TruncatedFile):
            dsp.load_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "nodata.wav"
        header = struct.pack(
            "<4sI4s4sIHHIIHH", b"RIFF", 28, b"WAVE", b"fmt ", 16, 1, 1, 44100, 88200, 2, 16
        )
        p.write_bytes(header)
        with pytest.raises(TruncatedFile):
            dsp.load_wav(p)


def _sine(freq, n, sr=44100, amp=0.5):
    t = np.arange(n) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


class TestStft:
    def test_pure_sine_peak_bin(self):
        w = _sine(1000.0, 4096)
        power = dsp.stft_power(w)
        assert int(np.argmax(power[0])) == 46
        assert 46 == round(1000 * 2048 / 44100)

    def test_power_matches_direct_dft(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.normal(scale=0.1, size=256), 44100)
        cfg = StftConfig(n_fft=256, hop=256, n_mels=16, fmax=22050.0)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(256) / 256)
        oracle = dft_power_spectrum(w.samples, window)
        np.testing.assert_allclose(dsp.stft_power(w, cfg)[0], oracle, rtol=1e-9, atol=1e-12)

    def test_frame_count(self):
        w = Waveform(np.zeros(2048 + 512 * 3 + 511), 44100)
        assert dsp.stft_logmel(w).n_frames == 4

    def test_silence(self):
        m = dsp.stft_logmel(Waveform(np.zeros(4096), 44100))
        assert m.values.shape[1] == 64
        np.testing.assert_array_equal(m.values, math.log(1e-10))

    def test_determinism(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(scale=0.2, size=8192)
        a = dsp.stft_logmel(Waveform(samples, 44100))
        b = dsp.stft_logmel(Waveform(samples.copy(), 44100))
        np.testing.assert_array_equal(a.values, b.values)

    def test_too_short(self):
        with pytest.raises(TooShort):
            dsp.stft_logmel(Waveform(np.zeros(2047), 44100))

    def test_trailing_samples_below_hop_ignored(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(scale=0.2, size=2048 + 512)
        base = dsp.stft_logmel(Waveform(samples, 44100))
        longer = dsp.stft_logmel(Waveform(np.concatenate([samples, rng.normal(size=511)]), 44100))
        np.testing.assert_array_equal(base.values, longer.values)

    def test_loud_sine_gain_shifts_by_log_c_squared(self):
        w1 = _sine(2000.0, 4096, amp=0.4)
        w2 = _sine(2000.0, 4096, amp=0.8)
        m1, m2 = dsp.stft_logmel(w1), dsp.stft_logmel(w2)
        loud = np.exp(m1.values) - 1e-10 > 1e-10 * 1e6
        assert loud.any()
        diff = m2.values[loud] - m1.values[loud]
        np.testing.assert_allclose(diff, math.log(4.0), rtol=1e-5)
        assert np.all(m2.values - m1.values <= math.log(4.0) + 1e-9)

    def test_non_44100_warns(self):
        with pytest.warns(UserWarning):
            dsp.stft_logmel(Waveform(np.zeros(4096), 16000), StftConfig(fmax=8000.0))

    def test_filterbank_rows_sum_to_one(self):
        fb = dsp.mel_filterbank(44100, 2048, 64, 20.0, 22050.0)
        np.testing.assert_allclose(fb.sum(axis=1), 1.0, atol=1e-12)
        assert fb.shape == (64, 1025)
        assert np.all(fb >= 0)

    def test_mel_scale_hand_value(self):
        assert dsp.hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0))
        assert dsp.mel_to_hz(dsp.hz_to_mel(1234.5)) == pytest.approx(1234.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_all_finite(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(256, 1024))
        samples = rng.uniform(-1, 1, size=n)
        cfg = StftConfig(n_fft=256, hop=128, n_mels=24)
        out = dsp.stft_logmel(Waveform(samples, 44100), cfg)
        assert np.all(np.isfinite(out.values))


class TestStftBound:
    """frames x n_fft past MAX_STFT_ENTRIES is refused before the frames are
    made: the clips here hold no samples (a zero-stride view) and are never
    framed."""

    class Framed(Exception):
        pass

    def _framed(self, monkeypatch, n, cfg=StftConfig()):
        def frame(*args):
            raise self.Framed

        monkeypatch.setattr(dsp, "sliding_window_view", frame)
        try:
            dsp.stft_power(SimpleNamespace(samples=np.broadcast_to(0.0, (n,))), cfg)
        except self.Framed:
            return True
        except BadConfig as exc:
            assert str(exc).endswith(f"values, over {dsp.MAX_STFT_ENTRIES}")
            return False
        raise AssertionError("neither framed nor refused")

    def test_longest_synth_clip_at_the_default_hop_is_framed(self, monkeypatch):
        assert dsp.MAX_STFT_ENTRIES == 4 * 10**7
        assert (1 + (cp.MAX_CLIP_SAMPLES - 2048) // 512) * 2048 == 39_993_344
        assert self._framed(monkeypatch, cp.MAX_CLIP_SAMPLES)
        # 19531 and 19532 frames of 2048
        assert self._framed(monkeypatch, 2048 + 19530 * 512 + 511)
        assert not self._framed(monkeypatch, 2048 + 19531 * 512)

    def test_hop_one_on_a_stock_clip_is_refused(self, monkeypatch):
        # a stock 2 s clip frames 86153 x 2048 values at hop 1; hop 5 is the least admitted
        for hop, framed in ((1, False), (4, False), (5, True)):
            assert self._framed(monkeypatch, 88200, StftConfig(hop=hop)) == framed, hop


# |difference of ln mel| is the relative difference of the mel values
# themselves; the 4-row and one-call products measured at most 3.6e-15
MEL_REL_TOL = 1e-14


class TestMelPieces:
    """``stft_logmel``'s mel product in 4-row pieces against a loop over
    4-row slices and against the one-call product."""

    @pytest.mark.parametrize("n_fft,hop", [(2048, 512), (2048, 2048), (256, 7), (1024, 7)],
                             ids=["512", "2048", "256-7", "1024-7"])
    @pytest.mark.parametrize("t_frames", [1, 3, 4, 5, 43, 169])
    def test_matches_loop_over_slices(self, n_fft, hop, t_frames):
        cfg = StftConfig(n_fft=n_fft, hop=hop)
        rng = np.random.default_rng(t_frames)
        wave = Waveform(rng.uniform(-1, 1, size=n_fft + (t_frames - 1) * hop + 5), 44100)
        got = dsp.stft_logmel(wave, cfg).values
        assert got.shape == (t_frames, 64)
        assert got.tobytes() == logmel_rows_ref(wave, cfg, 4).tobytes()

    def test_stored_features_match_one_call_product(self, tmp_path):
        cp.build_corpus(cp.CorpusConfig(n_clips=24, seed=0), tmp_path)
        wavs = sorted((tmp_path / "wav").iterdir())
        assert len(wavs) == 24
        for hop in (512, 2048):
            cfg = StftConfig(hop=hop)
            for wav in wavs:
                wave = dsp.load_wav(wav)
                got = dsp.stft_logmel(wave, cfg).values
                want = logmel_one_call_ref(wave, cfg)
                assert np.max(np.abs(got - want)) <= MEL_REL_TOL
                assert got.astype("<f4").tobytes() == want.astype("<f4").tobytes(), wav.name


class TestFeatureFile:
    def test_decode(self, tmp_path):
        p = tmp_path / "f.atfx"
        payload = struct.pack("<6f", 1, 2, 3, 4, 5, 6)
        p.write_bytes(b"ATFX" + struct.pack("<III", 1, 2, 3) + payload)
        m = dsp.load_external_features(p)
        np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])

    def test_length_check(self, tmp_path):
        p = tmp_path / "f.atfx"
        payload = struct.pack("<5f", 1, 2, 3, 4, 5)
        p.write_bytes(b"ATFX" + struct.pack("<III", 1, 2, 3) + payload)
        with pytest.raises(ShapeMismatch):
            dsp.load_external_features(p)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(5)
        for i in range(5):
            vals = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
            vals = vals.astype(np.float32).astype(np.float64)
            p = tmp_path / f"m{i}.atfx"
            dsp.write_features(p, FeatureMatrix(vals))
            np.testing.assert_array_equal(dsp.load_external_features(p).values, vals)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.atfx"
        p.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0))
        with pytest.raises(BadHeader):
            dsp.load_external_features(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "f.atfx"
        p.write_bytes(b"ATFX" + struct.pack("<III", 9, 1, 1) + struct.pack("<f", 0))
        with pytest.raises(BadHeader):
            dsp.load_external_features(p)

    def test_nonfinite_payload(self, tmp_path):
        p = tmp_path / "f.atfx"
        p.write_bytes(b"ATFX" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", math.inf))
        with pytest.raises(NonFinite):
            dsp.load_external_features(p)

    def test_nonfinite_payload_names_the_file(self, tmp_path):
        p = tmp_path / "f.atfx"
        p.write_bytes(b"ATFX" + struct.pack("<III", 1, 2, 1) + struct.pack("<2f", 0.0, math.nan))
        with pytest.raises(NonFinite) as info:
            dsp.load_external_features(p)
        assert str(p) in info.value.message
