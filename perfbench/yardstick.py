"""Fixed reference kernels that every timed stretch is measured against.

On a shared host the same computation takes tens of percent longer from one
minute, or one process, to the next, while the ratio of two CPU-bound
computations of the same kind run side by side in time moves much less.  The
benchmark therefore runs reference kernels throughout every timed unit and
reports

    rescaled = raw seconds * nominal / mean(kernel pass times during the stretch)

that is, seconds at the kernel's fixed nominal speed.  ``Sampler`` times one
short kernel pass from a SIGALRM handler every SAMPLE_INTERVAL_S seconds, so
a unit of half a second gets some twenty-five samples spread evenly over it,
and takes the handler's own time out of the unit.  Each timed pass follows an
untimed one, so that it reads the host's speed rather than how much of the
kernel's working set the interrupted code had evicted.  (Passes taken only
right before and right after each unit track the host worse: its speed flips
between two levels within a second.)

There are two kernels, one for each kind of work coarsebell does, because
the host's two speed levels slow the two kinds by different factors (about
1.8 and 1.4; see README.md, "Rescaling"):

* ``interp``: interpreted Python (small function calls, tuple unpacking,
  ``math`` calls) and numpy calls on tiny arrays, as in the Nelder-Mead
  simplex bookkeeping and the closed-form correlators;
* ``dense``: an ``einsum`` that applies a 6x6 complex operator to two axes
  of a 6^4 complex tensor, the contraction ``rotate_polarization`` does on
  16^4 tensors in the photon model's Fock density-matrix pipeline.

The sampler alternates them, tick by tick.  run.py rescales the build
stretch of each point (the model's construction, the cold Fock fit among
it) by the dense kernel, and everything else by the interp kernel.

Both the stretches and the kernel passes are timed in CPU seconds, not
wall-clock seconds: the program is single-threaded (one BLAS thread), so on
an idle host the two agree, while on a busy one only wall-clock time also
counts the time the process waited for a vCPU, which a kernel pass cannot
see.  CPU time of child processes the program waits for is counted too.

The kernels live in the benchmark's own files so that no change to the
program can change them.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

KINDS = ("interp", "dense")

# CPU seconds one pass of each kernel takes at nominal speed: about its
# median on a 2-vCPU Xeon host (Python 3.11.7, numpy 2.4.6) in that host's
# fast state, so that rescaled seconds read close to raw seconds there.
NOMINAL_S = {"interp": 0.00025, "dense": 0.00030}

ITERATIONS = 20
SAMPLE_INTERVAL_S = 0.02

# A stretch with fewer samples of a kernel than this is rescaled by its whole
# window's samples of that kernel instead (see run.py).
MIN_SAMPLES = 3


def _objective(a: float, b: float, c: float, d: float) -> float:
    return (
        -math.cos(2.0 * (a + c))
        - math.cos(2.0 * (b + c))
        - math.cos(2.0 * (a + d))
        + math.cos(2.0 * (b + d))
    )


def kernel(iterations: int = ITERATIONS) -> float:
    """One pass of the interp reference work; returns a checksum so nothing is skipped."""
    simplex = np.linspace(0.0, 1.0, 20).reshape(5, 4)
    values = np.zeros(5)
    m = np.array([[0.5, 0.1, 0.2], [0.1, 0.4, 0.3], [0.2, 0.3, 0.6]])
    acc = 0.0
    for i in range(iterations):
        a, b, c, d = (float(v) for v in simplex[i % 5])
        acc += _objective(a, b, c, d)
        t = np.array([1.0, math.cos(2.0 * a), math.sin(2.0 * b)])
        acc += float(t @ m @ t)
        values[i % 5] = acc
        order = np.argsort(values)
        centroid = np.add.reduce(simplex[order[:-1]], 0) / 4.0
        simplex[order[-1]] = centroid + 0.5 * (centroid - simplex[order[-1]])
    return acc


_DENSE_OPERATOR = np.arange(36.0).reshape(6, 6) / 36.0 + 0.5j
_DENSE_TENSOR = np.full((6,) * 4, 0.5 + 0.25j)


def dense_kernel() -> complex:
    """One pass of the dense reference work; returns a checksum so nothing is skipped."""
    out = np.einsum("ij,jklm,nl->iknm", _DENSE_OPERATOR, _DENSE_TENSOR, _DENSE_OPERATOR.conj())
    return complex(out[0, 0, 0, 0])


_KERNELS = {"interp": kernel, "dense": dense_kernel}


class Mark(NamedTuple):
    """A point in time on the sampler's clocks: CPU and wall-clock seconds less
    the handler's own time, and how many passes of each kernel were sampled."""

    cpu: float
    wall: float
    interp: int
    dense: int


class Sampler:
    """Kernel passes taken every SAMPLE_INTERVAL_S seconds while a timed call runs.

    ``time`` measures a call's CPU seconds (this process and any children it
    waited for) minus the CPU time the SIGALRM handler spent inside it,
    together with the CPU times of the kernel passes sampled during the
    call.  ``mark`` and ``between`` do the same for any stretch inside a
    timed call, such as one point of a sweep.  Use from the main thread only.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.spent = 0.0
        self.spent_wall = 0.0
        self._ticks = 0
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while a pass runs is dropped
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def _sample(self) -> None:
        start, start_wall = time.thread_time(), time.perf_counter()
        kind = KINDS[self._ticks % len(KINDS)]
        self._ticks += 1
        work = _KERNELS[kind]
        work()  # warm-up: the interrupted code has evicted the kernel's caches
        t0 = time.thread_time()
        work()
        self.samples[kind].append(time.thread_time() - t0)
        self.spent += time.thread_time() - start
        self.spent_wall += time.perf_counter() - start_wall

    def mark(self) -> Mark:
        # the handler must not run between reading the clocks and reading
        # what it has spent; a SIGALRM that arrives meanwhile waits
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return Mark(
                cpu_seconds() - self.spent,
                time.perf_counter() - self.spent_wall,
                len(self.samples["interp"]),
                len(self.samples["dense"]),
            )
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def between(self, start: Mark, end: Mark) -> dict:
        """``{"raw", "wall", "interp", "dense"}`` for the stretch from ``start`` to ``end``.

        ``raw`` is CPU seconds, ``interp`` and ``dense`` the CPU seconds of
        the passes of each kernel sampled meanwhile; ``wall`` is wall-clock
        seconds, for information.
        """
        stretch = {"raw": end.cpu - start.cpu, "wall": end.wall - start.wall}
        for kind in KINDS:
            stretch[kind] = self.samples[kind][getattr(start, kind):getattr(end, kind)]
        return stretch

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), between(start, end))`` for one call."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = self.mark()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.mark()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return result, self.between(start, end)


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def factor(samples: list[float], kind: str = "interp") -> float:
    """Multiplier from raw seconds to seconds at nominal speed, given passes of one kernel."""
    return NOMINAL_S[kind] / statistics.fmean(samples)
