"""Timing at reference speed.

On a shared 2-CPU x86-64 virtual machine, identical code runs up to twice
as slow from one second to the next, in process CPU time as well as wall time.
So while the benchmark times the program, an interval timer interrupts it
every PROBE_EVERY_S and runs a short fixed reference loop (a probe) in the
signal handler. A timed interval is reported as

    work seconds x (PROBE_NOMINAL_S / mean time of the probes around it)

where work seconds are the interval's wall time minus the probes that ran
inside it, and the probes around it are those of the interval's kind inside
it plus the NEIGHBOURS nearest before and after. The loops live in the
benchmark, not in the program, so no change to the program can move them.

Probes alternate between two kinds of the program's own cost profile, a
Python-level k-loop of float64 numpy operations. Contention slows small
array operations more than large ones, so work is scaled by the loop that
slows like it (log-log slope of work time on probe time, 114 timings over
three processes): "small" (16 x 64 arrays) for stream calls, slope 1.04, and
for run_offline, slope 0.81; "large" (150 x 64 arrays) for run_buffered,
slope 0.94 where "small" gives 0.67. run_offline stays on "small": on
chunk_hybrid about a third of it is RNNT decoding of single rows, and over
ten seeds "large" doubled its spread on chunk_ctc and tripled it there.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Median probe time on an idle shared 2-CPU x86-64 VM (Python 3.11, numpy 2.4),
# for either kind. Only ratios matter; the constant puts normalised figures
# on the scale of raw seconds on that machine.
PROBE_NOMINAL_S = 0.0035
PROBE_EVERY_S = 0.030
NEIGHBOURS = 2  # probes of a kind taken on each side of a timed interval
KINDS = ("small", "large")

# (a, b, rounds) of the k-loop acc += a[:, k, None] * b[None, k, :]
_LOOPS = {
    "small": (np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64),
              np.linspace(1.0, -1.0, 64 * 64).reshape(64, 64), 20),
    "large": (np.linspace(-1.0, 1.0, 150 * 256).reshape(150, 256),
              np.linspace(1.0, -1.0, 256 * 64).reshape(256, 64), 1),
}


def reference_loop(kind: str = "small") -> float:
    """Run the fixed reference work of one kind; return its wall time in seconds."""
    a, b, rounds = _LOOPS[kind]
    t0 = time.perf_counter()
    acc = np.zeros((a.shape[0], b.shape[1]))
    for _ in range(rounds):
        for k in range(a.shape[1]):
            acc += a[:, k, None] * b[None, k, :]
        acc *= 0.5
    t1 = time.perf_counter()
    if not np.isfinite(acc).all():
        raise RuntimeError("reference loop diverged")
    return t1 - t0


class SpeedSampler:
    """Context manager: probes machine speed on a timer while the body runs.

    Timestamps passed to `normalize` must come from time.perf_counter()
    inside the body.
    """

    def __init__(self):
        self.starts: list[float] = []  # every probe, in time order
        self.ends: list[float] = []
        self.kinds: list[str] = []
        self._busy = False

    def _probe(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        kind = KINDS[len(self.kinds) % len(KINDS)]
        t0 = time.perf_counter()
        reference_loop(kind)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.kinds.append(kind)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        for _ in KINDS:
            self._probe(None, None)
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in KINDS:
            self._probe(None, None)
        self._of_kind = {k: [i for i, x in enumerate(self.kinds) if x == k] for k in KINDS}

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds of probes that ran inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def normalize(self, t0: float, t1: float, kind: str = "small") -> tuple[float, float]:
        """(work seconds, work seconds at reference speed) of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        work = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        same = self._of_kind[kind]
        j0, j1 = bisect.bisect_left(same, lo), bisect.bisect_left(same, hi)
        around = same[max(j0 - NEIGHBOURS, 0) : j1 + NEIGHBOURS]
        speed = sum(self.ends[i] - self.starts[i] for i in around) / len(around)
        return work, work * PROBE_NOMINAL_S / speed
