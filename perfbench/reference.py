"""Host speed: a fixed reference kernel, sampled through the whole run.

A shared 2-vCPU host changes speed by tens of percent for seconds to
minutes at a time, while nothing else runs in the VM. So the same
calls took 24-37 s from one run to the next. The runner therefore
samples a fixed reference kernel every ``PERIOD_S`` seconds, on an alarm
handled in the main thread between the program's bytecodes, and scales
each time to a host on which one sample takes ``REFERENCE_S``: a stretch
of program time between two samples counts as its length times
``REFERENCE_S`` over the local sample time.

The kernel uses only numpy and the standard library, never ``atcadet``,
so a change to the package cannot move it. Its mix follows the
package's own hot paths: a small-matrix recurrence forward and backward
(the GRU and the tape), an FFT over audio frames (features and corpus
synthesis), and dictionary and string work (parsing and bookkeeping).
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.5
KERNEL_RUNS = 2
REFERENCE_S = 0.010

_rng = np.random.default_rng(20251206)
_X = _rng.standard_normal((40, 32, 64))
_W = _rng.standard_normal((64, 64)) * 0.1
_U = _rng.standard_normal((64, 64)) * 0.1
_AUDIO = _rng.standard_normal((64, 2048))


def _kernel() -> float:
    h = np.zeros((32, 64))
    hs = []
    for x in _X:
        h = np.tanh(x @ _W + h @ _U)
        hs.append(h)
    g = np.zeros_like(h)
    for h in reversed(hs):
        g = (g @ _U.T) * (1.0 - h * h)
    spec = np.abs(np.fft.rfft(_AUDIO * np.hanning(2048), axis=1))
    table = {}
    for i in range(2000):
        table[f"u{i:04d}"] = (i * 0.5, str(i))
    return float(g.sum() + spec.sum() + len(table))


class Clock:
    """Reference samples on SIGALRM, and program time scaled by them.

    The same alarm enforces the run's deadline: past it, the handler
    raises ``expired()`` wherever the program is.
    """

    def __init__(self, deadline, expired):
        self.deadline = deadline
        self.expired = expired
        self.sampling = False
        self.samples = []  # (start, seconds) of each sample, in time order

    def _sample(self):
        t0 = time.perf_counter()
        for _ in range(KERNEL_RUNS):
            _kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _tick(self, signum, frame):
        if time.monotonic() > self.deadline:
            raise self.expired()
        if self.sampling:
            self._sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.resume()

    def resume(self):
        self.sampling = True
        self._sample()

    def pause(self):
        """Stop sampling; the deadline still holds."""
        self.sampling = False

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sampling = False

    def median_sample_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

    def span(self, start, end):
        """(raw, scaled) seconds of program time in [start, end].

        Sampling time is left out of both. Each stretch is scaled by the
        median of the three samples around the last one before it, or by
        the first sample when none came before.
        """
        samples = self.samples
        smooth = [statistics.median(d for _, d in samples[max(0, i - 1):i + 2])
                  for i in range(len(samples))]
        before = [i for i, (t, _) in enumerate(samples) if t < start]
        k = before[-1] if before else 0
        raw = scaled = 0.0
        t = start
        if before and samples[k][0] + samples[k][1] > start:
            t = min(samples[k][0] + samples[k][1], end)  # began inside a sample
        for i in range(k + 1 if before else 0, len(samples)):
            s, d = samples[i]
            if s >= end:
                break
            raw += s - t
            scaled += (s - t) * REFERENCE_S / smooth[k]
            t, k = min(s + d, end), i
        raw += end - t
        scaled += (end - t) * REFERENCE_S / smooth[k]
        return raw, scaled
