"""Synthesis filters through scipy's compiled filter module alone.

``corpus._lfilter`` calls the compiled ``_linear_filter`` that
``scipy.signal.lfilter`` calls, without importing ``scipy.signal``. These
tests pin it to ``lfilter`` bit for bit on every filter the corpus builds,
pin the ``lfilter`` fallback to the same corpus bytes, and check that a
later ``import scipy.signal`` in the same process still works.
"""

import importlib.machinery
import os
import subprocess
import sys

import numpy as np
import pytest

from atcadet import corpus as cp

SRC = os.path.dirname(os.path.dirname(cp.__file__))


def _signal(n, seed=0):
    """Uniform noise with runs of +0.0 and -0.0 mixed in."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    x[::5] = 0.0
    x[1::7] = -0.0
    return x


def _filters_of(monkeypatch, build):
    """The ``(b, a)`` of every ``_lfilter`` call ``build()`` makes."""
    seen = []
    lfilter = cp._lfilter

    def recording(b, a, x):
        seen.append((tuple(b), tuple(a)))
        return lfilter(b, a, x)

    monkeypatch.setattr(cp, "_lfilter", recording)
    build()
    monkeypatch.undo()
    return seen


def _blackbox_cutoffs(sample_rate):
    # _blackbox draws its cutoff as nyq - strength * (nyq - U(3000, 9000))
    nyq = sample_rate / 2.0
    return [nyq - s * (nyq - u) for s in (1.0, 0.4) for u in (3000.0, 9000.0)]


def _stock_cutoffs(sample_rate):
    stock = cp.DEFAULT_FAKE_GENERATORS[0]
    return [cp.scaled_generator(stock, s, sample_rate).params["cutoff_hz"] for s in (1.0, 0.4)]


class TestSameBytesAsLfilter:
    # at 8000 Hz the stock cutoff is a pass-through, and only the blackbox's
    # lowest draw lies below Nyquist (at strengths 1.0 and 0.4)
    @pytest.mark.parametrize("sample_rate, n_lowpass", [(8000, 2), (22050, 6), (44100, 6)])
    def test_every_corpus_filter(self, sample_rate, n_lowpass, monkeypatch):
        rng = np.random.default_rng(3)
        x = _signal(sample_rate)
        filters = _filters_of(monkeypatch, lambda: [
            cp._pink_bed(rng, 16, sample_rate),
            *(cp._lowpass4(x, sample_rate, c)
              for c in _stock_cutoffs(sample_rate) + _blackbox_cutoffs(sample_rate)),
        ])
        # five pink-bed poles, then four passes of each lowpass below Nyquist
        assert len(filters) == 5 + 4 * n_lowpass
        assert getattr(cp._load_sigtools(), "_linear_filter", None) is not None
        from scipy import signal

        for b, a in dict.fromkeys(filters):
            for n in (1, 2, 1023, 2 * sample_rate):
                noise = _signal(n, seed=n)
                got = cp._lfilter(list(b), list(a), noise)
                want = signal.lfilter(list(b), list(a), noise)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (b, a, n)


@pytest.fixture
def no_sigtools(monkeypatch):
    """The loader finds no compiled filter module, so ``_lfilter`` falls
    back to ``scipy.signal.lfilter``; every call of it is counted."""
    from scipy import signal

    calls = []
    lfilter = signal.lfilter

    def counting(*args):
        calls.append(len(args))
        return lfilter(*args)

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
    monkeypatch.setattr(signal, "lfilter", counting)
    cp._load_sigtools.cache_clear()
    yield calls
    cp._load_sigtools.cache_clear()


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("strength", [1.0, 0.4])
def test_fallback_builds_the_same_corpus(strength, tmp_path, request):
    # 12 clips: 6 real and 2, 2, 1, 1 of the four fake families
    cfg = cp.CorpusConfig(n_clips=12, seed=7, artifact_strength=strength,
                          caption_generator_hints=True)
    cp.build_corpus(cfg, tmp_path / "direct")
    calls = request.getfixturevalue("no_sigtools")
    assert cp._load_sigtools() is None
    cp.build_corpus(cfg, tmp_path / "fallback")
    assert calls  # at least the clips of this process's share
    direct, fallback = _tree(tmp_path / "direct"), _tree(tmp_path / "fallback")
    assert sum(name.startswith("wav/") for name in direct) == 12
    assert direct == fallback


_COEXIST_SETUP = (
    "import sys\n"
    "import numpy as np\n"
    "from atcadet import corpus as cp\n"
    "x = np.random.default_rng(2).uniform(-1.0, 1.0, 44100)\n"
    "b, a = [0.25, 0.25], [1.0, -0.5]\n"
)


def _run(script):
    out = subprocess.run([sys.executable, "-c", _COEXIST_SETUP + script + "print('ok')\n"],
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_import_scipy_signal_after_direct_load():
    _run(
        "direct = cp._lfilter(b, a, x).tobytes()\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "import scipy.signal\n"
        "assert scipy.signal._sigtools.__file__ == cp._load_sigtools().__file__\n"
        "assert scipy.signal.lfilter(b, a, x).tobytes() == direct\n"
        "assert cp._lfilter(b, a, x).tobytes() == direct\n"
    )


def test_direct_load_after_import_scipy_signal():
    # the loader takes scipy.signal's own module and leaves sys.modules as it is
    _run(
        "import scipy.signal\n"
        "module = sys.modules['scipy.signal._sigtools']\n"
        "assert cp._lfilter(b, a, x).tobytes() == scipy.signal.lfilter(b, a, x).tobytes()\n"
        "assert cp._load_sigtools() is module is sys.modules['scipy.signal._sigtools']\n"
    )
