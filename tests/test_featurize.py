"""``featurize`` over the CPUs: share 0 of the clips in this process, the
others in forked workers, with the features the same bytes at any share
count and a failing clip reported as a serial run reports it."""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from atcadet import corpus as cp
from atcadet import dsp, errors
from atcadet.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:processing 8000 Hz")

# 8 clips of 4000 samples: 7 frames each at hop 300, so every clip has a
# leftover row after its 4-row mel products
N_CLIPS = 8


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("featurize") / "corpus"
    cp.build_corpus(cp.CorpusConfig(n_clips=N_CLIPS, duration_s=0.5, sample_rate=8000, seed=2), root)
    return root


def _featurize(corpus, out, *extra):
    return main(["featurize", "--corpus", str(corpus), "--out", str(out), "--hop", "300", *extra])


def _tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def _copy(corpus, dst):
    (dst / "wav").mkdir(parents=True)
    (dst / "manifest.json").write_bytes((corpus / "manifest.json").read_bytes())
    for wav in (corpus / "wav").iterdir():
        (dst / "wav" / wav.name).write_bytes(wav.read_bytes())
    return dst


def test_same_features_at_any_share_count(corpus, tmp_path, set_cpus):
    trees = []
    for n in (1, 2, 3, N_CLIPS + 1):  # the last: more shares than clips
        set_cpus(n)
        assert _featurize(corpus, tmp_path / str(n)) == 0
        assert multiprocessing.active_children() == []
        trees.append(_tree(tmp_path / str(n)))
    assert sorted(trees[0]) == [f"u{i:04d}.atfx" for i in range(N_CLIPS)]
    for tree in trees[1:]:
        assert tree == trees[0]


@pytest.mark.parametrize("bad", ["u0002", "u0005"])  # shares 0 and 1 of 2
@pytest.mark.parametrize("damage, code", [
    (lambda data: data[:-3], "TRUNCATED_FILE"),  # a partial sample
    (lambda data: b"OggS" + data[4:], "NOT_WAV"),
])
def test_bad_wav_reaches_cli_as_in_serial_run(corpus, tmp_path, set_cpus, capsys, bad, damage, code):
    src = _copy(corpus, tmp_path / "corpus")
    wav = src / "wav" / f"{bad}.wav"
    wav.write_bytes(damage(wav.read_bytes()))
    lines = []
    for n in (1, 2):
        set_cpus(n)
        out = tmp_path / f"feats{n}"
        assert _featurize(src, out) == 2
        lines.append(capsys.readouterr().err.strip())
        assert multiprocessing.active_children() == []
        # a failed run leaves no feature file, so a rerun without --force is not blocked
        assert list(out.iterdir()) == []
    assert lines[0].startswith(f"ERROR {code}:")
    assert str(wav) in lines[0]
    assert lines[1] == lines[0]


def test_worker_killed_mid_write_leaves_no_temp_file(corpus, tmp_path, set_cpus, monkeypatch, capsys):
    set_cpus(2)
    real_open = open
    runner = os.getpid()

    def open_then_die(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        # u0001 is in share 1 of 2, so a worker writes it
        if "u0001.atfx" in os.fspath(path) and os.getpid() != runner:
            fh.write(b"ATFX")
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        return fh

    monkeypatch.setattr(errors, "open", open_then_die, raising=False)
    out = tmp_path / "feats"
    assert _featurize(corpus, out) == 3
    assert capsys.readouterr().err.startswith("ERROR INTERNAL:")
    assert multiprocessing.active_children() == []
    # nor the feature files the run finished
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_stft_past_the_bound_exit_one_and_nothing_left(corpus, tmp_path, set_cpus, monkeypatch, capsys, cpus):
    # at hop 300 a 4000-sample clip frames 7 x 2048 values, the bound patched
    # in here, and a 5000-sample one 10 x 2048: that clip alone is refused
    set_cpus(cpus)
    monkeypatch.setattr(dsp, "MAX_STFT_ENTRIES", 7 * 2048)
    assert _featurize(corpus, tmp_path / "at_the_bound") == 0
    src = _copy(corpus, tmp_path / "corpus")
    dsp.write_wav(src / "wav" / "u0005.wav", dsp.Waveform(np.full(5000, 0.25), 8000))
    out = tmp_path / "feats"
    assert _featurize(src, out) == 1
    assert capsys.readouterr().err == "ERROR BAD_CONFIG: n_fft 2048 at hop 300 frames 10x2048 values, over 14336\n"
    assert multiprocessing.active_children() == []
    # the feature files of the clips before it are removed too
    assert list(out.iterdir()) == []
