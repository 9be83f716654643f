"""Host-speed calibration: times expressed at a reference host speed.

The benchmark runs on shared hosts whose CPU speed moves between levels
(other tenants, frequency scaling) for seconds to minutes at a time; on a
2-core Xeon guest the same table8 row took up to 1.8 times as long in one
level as in another.  That drift is larger than any bound worth holding a
change to, so raw times of separate runs cannot be compared.

While a stretch of work is timed, a timer signal runs one fixed unit of
reference work every `SAMPLE_EVERY_S` seconds, in the main thread, and its
time is taken out of the stretch's.  The stretch's time is then rescaled to
a host on which that unit takes `REFERENCE_S`:

    normalised = measured * REFERENCE_S / typical(reference times sampled during it)

where `typical` is the mean without the highest and lowest fifth.

Wall time is rescaled by the reference's wall time and CPU time by its CPU
time.  The reference work is mostly interpreter-bound Python, part of it
on a working set larger than the caches, with some NumPy matrix-vector
products.  On that guest, interpreter-bound Python tracked the solver's
drift better than NumPy did, and Python on a large working set best of all.
There, over ~8 s windows spanning a change of level, a table8 row's time
varied by 16 % raw and by 4 % rescaled; over ten runs of each workload the
rescaled run_s spread (quartile distance over median) 0.04 to 0.10.
Callers print the raw times beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

# the reference work's time on the reference host (2-core Xeon guest, faster level)
REFERENCE_S = 0.012
SAMPLE_EVERY_S = 0.4

_RNG = np.random.default_rng(20240119)
_MATRIX = _RNG.random((300, 600))
_VECTOR = _RNG.random(600)
# ~6 MB of small Python objects visited in random order: the solver's
# working set is larger than the caches too
_OBJECTS = [(i, float(i)) for i in range(50000)]
_ORDER = [int(k) for k in _RNG.permutation(len(_OBJECTS))]


def reference_work() -> float:
    """A fixed unit of work; its result is returned so none of it is skipped."""
    counts: dict = {}
    total = 0
    for i in range(30000):
        key = (i * 7919) & 511
        counts[key] = counts.get(key, 0) + 1
        total += i % 13
    acc = 0.0
    for k in _ORDER[:15000]:
        acc += _OBJECTS[k][1]
    x = _VECTOR
    for _ in range(30):
        y = _MATRIX @ x
        x = _MATRIX.T @ y
        x = x / x.max()
    return total + len(counts) + acc + float(x[0])


def measure() -> Tuple[float, float]:
    """(wall, cpu) seconds of one unit of reference work."""
    t0, c0 = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - t0, time.process_time() - c0


def typical(refs: List[float]) -> float:
    """Mean of the reference-work times without their highest and lowest
    fifth: a sample the host preempted must not rescale a whole pass."""
    refs = sorted(refs)
    cut = len(refs) // 5
    return statistics.fmean(refs[cut:len(refs) - cut])


def rescale(took: float, refs: List[float]) -> float:
    """`took` seconds at the reference speed, given reference-work times
    sampled while it ran."""
    return took * REFERENCE_S / typical(refs)


class PassClock:
    """Wall and CPU time of the work done inside `with PassClock(...)`.

    With `sample=True` the reference work runs once before and once after
    the work, and every SAMPLE_EVERY_S seconds during it from a SIGALRM
    handler whose time is left out of the work's.  Leave sampling off where
    other timers (a trace's spans) must not see the samples; the clock then
    only gives raw times."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.refs: List[Tuple[float, float]] = []
        self.wall = self.cpu = 0.0
        self._paused_wall = self._paused_cpu = 0.0

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.refs.append(measure())
        self._paused_wall += time.perf_counter() - t0
        self._paused_cpu += time.process_time() - c0

    def __enter__(self) -> "PassClock":
        if self.sample:
            self.refs.append(measure())
            self._saved = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu = time.perf_counter() - self._t0, time.process_time() - self._c0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self.refs.append(measure())
        self.wall = wall - self._paused_wall
        self.cpu = cpu - self._paused_cpu

    def normalised(self) -> Tuple[float, float]:
        """(wall, cpu) seconds of the work at the reference speed."""
        return (rescale(self.wall, [r[0] for r in self.refs]),
                rescale(self.cpu, [r[1] for r in self.refs]))

    def slowdown(self) -> float:
        """Mean reference-work wall time over REFERENCE_S: above 1, a slow host."""
        return typical([r[0] for r in self.refs]) / REFERENCE_S
