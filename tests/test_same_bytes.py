"""The strided framing, half-frame overlap-add, in-place PCM16 rounding and
cached mel bank against their reference forms in ``_oracles``.

Each rewrite must give the reference's bytes: on ragged inputs, on a
small corpus with its features, across processes that fill the caches in
different orders, and under either BLAS thread count.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from atcadet import corpus as cp
from atcadet import dsp
from atcadet.dsp import StftConfig, Waveform

from _oracles import (
    logmel_rows_ref,
    mel_filterbank_ref,
    overlap_add_ref,
    pcm16_grid_ref,
    quantize_pcm16_ref,
    stft_power_ref,
    windowed_frames_ref,
)

SRC = os.path.dirname(os.path.dirname(dsp.__file__))


def _signal(n, seed=0):
    """Uniform noise with runs of +0.0 and -0.0 mixed in."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    x[::5] = 0.0
    x[1::7] = -0.0
    return x


def _ragged_lengths(hop):
    # length 1, shorter than a hop, one hop, and not a multiple of the hop
    return [1, hop - 1, hop, 3 * hop + 5]


class TestCorpusFraming:
    @pytest.mark.parametrize("n_fft", [256, 1024, 2048])
    def test_windowed_frames_match_gather(self, n_fft):
        for n in _ragged_lengths(n_fft // 2):
            x = _signal(n, seed=n)
            frames, window, hop = cp._windowed_frames(x, n_fft)
            ref_frames, ref_window, ref_hop = windowed_frames_ref(x, n_fft)
            assert hop == ref_hop
            assert frames.shape == ref_frames.shape
            assert frames.tobytes() == ref_frames.tobytes()
            assert window.tobytes() == ref_window.tobytes()

    @pytest.mark.parametrize("n_fft", [256, 1024, 2048])
    def test_overlap_add_matches_loop(self, n_fft):
        for n in _ragged_lengths(n_fft // 2):
            windowed, window, hop = windowed_frames_ref(_signal(n, seed=n), n_fft)
            noise = _signal(windowed.size, seed=n + 1).reshape(windowed.shape)
            for frames in (windowed, noise):
                for weight in (window, window * window):
                    got = cp._overlap_add(frames, weight, hop, n_fft, n)
                    want = overlap_add_ref(frames, weight, hop, n_fft, n)
                    assert got.shape == want.shape == (n,)
                    assert got.tobytes() == want.tobytes()

    def test_pcm16_rounding_matches_reference(self):
        edges = [0.0, -0.0, 0.5 / 32768, -0.5 / 32768, 1.5 / 32768, 32767.5 / 32768,
                 -32768.5 / 32768, 0.99999, -1.0, 1.0, 2.0, -2.0, 1e300, -1e300]
        x = np.concatenate([edges, _signal(4096) * 1.2])
        assert cp._quantize_pcm16(x).tobytes() == quantize_pcm16_ref(x).tobytes()
        assert dsp._pcm16_grid(x).tobytes() == pcm16_grid_ref(x).tobytes()


STFT_CASES = [
    (n_fft, hop) for n_fft in (256, 1024, 2048) for hop in (1, 7, 512, 2048) if hop <= n_fft
]


class TestStftFraming:
    @pytest.mark.parametrize("n_fft,hop", STFT_CASES)
    def test_power_matches_gather(self, n_fft, hop):
        cfg = StftConfig(n_fft=n_fft, hop=hop, n_mels=32)
        # exactly one frame, a hop short of the second, and a ragged tail
        for n in (n_fft, n_fft + hop - 1, n_fft + 3 * hop + 5):
            wave = Waveform(_signal(n, seed=n), 44100)
            got = dsp.stft_power(wave, cfg)
            want = stft_power_ref(wave, cfg)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_fft,hop", [(2048, 512), (2048, 2048), (256, 7)])
    def test_logmel_matches_reference_composition(self, n_fft, hop):
        cfg = StftConfig(n_fft=n_fft, hop=hop, n_mels=64)
        wave = Waveform(_signal(3 * n_fft + 11), 44100)
        want = logmel_rows_ref(wave, cfg, 4)
        assert dsp.stft_logmel(wave, cfg).values.tobytes() == want.tobytes()


# at n_fft 256 some low filters fall between two bins and stay all zero
MEL_CASES = [
    (44100, 2048, 64, 20.0, 22050.0),
    (44100, 1024, 64, 20.0, 22050.0),
    (44100, 256, 64, 20.0, 22050.0),
    (44100, 2048, 128, 300.0, 11025.0),
    (16000, 512, 40, 0.0, 8000.0),
    (8000, 512, 16, 20.0, 4000.0),
    (22050, 256, 129, 20.0, 11025.0),
]


class TestMelBank:
    @pytest.mark.parametrize("args", MEL_CASES, ids=lambda a: "-".join(map(str, a)))
    def test_matches_per_filter_loop(self, args):
        got = dsp.mel_filterbank(*args)
        want = mel_filterbank_ref(*args)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cached_and_read_only(self):
        bank = dsp.mel_filterbank(44100, 2048, 64, 20.0, 22050.0)
        assert dsp.mel_filterbank(44100, 2048, 64, 20.0, 22050.0) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        window = dsp._hann_periodic(2048)
        assert dsp._hann_periodic(2048) is window
        with pytest.raises(ValueError):
            window[0] = 1.0

    def test_logmel_same_bytes_in_fresh_and_shared_processes(self):
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from atcadet import dsp\n"
            "wave = dsp.Waveform(np.random.default_rng(5).uniform(-1, 1, 44100), 44100)\n"
            "cfgs = {'a': dsp.StftConfig(hop=2048),\n"
            "        'b': dsp.StftConfig(n_fft=1024, hop=512, n_mels=40, fmin=50.0)}\n"
            "for name in sys.argv[1:]:\n"
            "    v = dsp.stft_logmel(wave, cfgs[name]).values\n"
            "    print(name, hashlib.sha256(v.tobytes()).hexdigest())\n"
        )

        def digests(*names):
            out = subprocess.run(
                [sys.executable, "-c", script, *names],
                env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                check=True, timeout=120,
            )
            return [tuple(line.split()) for line in out.stdout.splitlines()]

        shared = digests("a", "b", "a", "b")
        fresh = digests("a") + digests("b")
        assert shared == fresh + fresh
        assert fresh[0][1] != fresh[1][1]


def _corpus_and_features(root, cfg):
    """Build ``cfg``'s corpus under ``root`` with hop-512 and hop-2048
    features; return every file's bytes by relative path."""
    cp.build_corpus(cfg, root / "corpus")
    for hop in (512, 2048):
        stft_cfg = StftConfig(hop=hop)
        (root / f"feats{hop}").mkdir()
        for wav in sorted((root / "corpus" / "wav").iterdir()):
            features = dsp.stft_logmel(dsp.load_wav(wav), stft_cfg)
            dsp.write_features(root / f"feats{hop}" / f"{wav.stem}.atfx", features)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("strength", [1.0, 0.4])
def test_corpus_and_features_match_reference_code(tmp_path, monkeypatch, strength):
    # 12 clips: 6 real and 2, 2, 1, 1 of the four fake families
    cfg = cp.CorpusConfig(n_clips=12, seed=7, artifact_strength=strength,
                          caption_generator_hints=True)
    current = _corpus_and_features(tmp_path / "current", cfg)
    monkeypatch.setattr(cp, "_windowed_frames", windowed_frames_ref)
    monkeypatch.setattr(cp, "_overlap_add", overlap_add_ref)
    monkeypatch.setattr(cp, "_quantize_pcm16", quantize_pcm16_ref)
    monkeypatch.setattr(dsp, "_pcm16_grid", pcm16_grid_ref)
    monkeypatch.setattr(dsp, "stft_power", stft_power_ref)
    monkeypatch.setattr(dsp, "mel_filterbank", mel_filterbank_ref)
    reference = _corpus_and_features(tmp_path / "reference", cfg)
    assert sorted(current) == sorted(reference)
    assert sum(name.endswith(".atfx") for name in current) == 24
    for name in current:
        assert current[name] == reference[name], name


def test_corpus_features_and_embeddings_independent_of_blas_threads(tmp_path):
    script = (
        "import json, sys\n"
        "from atcadet.cli import main\n"
        "out = sys.argv[1]\n"
        "open(out + '.json', 'w').write(json.dumps({'corpus': {'n_clips': 12, 'seed': 4}}))\n"
        "assert main(['corpus', 'synth', '--config', out + '.json', '--out', out + '/corpus']) == 0\n"
        "assert main(['featurize', '--corpus', out + '/corpus', '--out', out + '/feats',\n"
        "             '--hop', '512']) == 0\n"
        "assert main(['embed', '--corpus', out + '/corpus', '--out', out + '/emb.bin',\n"
        "             '--dim', '32']) == 0\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    trees = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
        root = tmp_path / name
        subprocess.run([sys.executable, "-c", script, str(root)], env={**env, **extra},
                       check=True, timeout=300, capture_output=True)
        trees[name] = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()
        }
    assert sum(name.startswith("feats/") for name in trees["one"]) == 12
    assert any(name.startswith("emb.bin") for name in trees["one"])
    assert trees["one"] == trees["unset"]
