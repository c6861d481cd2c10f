"""Deterministic maximisation of Bell and Leggett-Garg figures of merit.

Both figures of merit are smooth periodic functions of a handful of angles
or time gaps:

    CHSH:  B = E(a, b) + E(a', b) + E(a, b') - E(a', b')      (4 angles)
    LG:    K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3)        (3 gaps)

CHSH maximisation runs Nelder-Mead simplex refinement from a fixed lattice
of starting points spread over one period per coordinate (3 per axis by
default).

The simplex is an in-house ``_nelder_mead`` over tuples of floats that
replays ``scipy.optimize.minimize(method="Nelder-Mead")`` step for step: the
same coefficients, initial simplex, stopping test and evaluation caps, and
the same float expressions, so it evaluates the same points.  The one
deliberate difference is the tie rule: the simplex is ordered by a stable
sort, so vertices with equal values keep their order, where scipy's
``numpy.argsort`` is unstable and its tie order depends on the numpy build.

LG maximisation is global.  C has period T, so K depends on the gaps only
through their residues mod T, and for each total s = g1 + g2 + g3 (mod T)

    max K(s) = [C (+) C (+) C](s) - C(s),

where (+) is the max-plus convolution (x (+) y)(s) = max_k x(k) + y(s - k).
On an N-point periodic grid that is two O(N^2) max-reductions, and every
grid value is attained by a grid triple.  N starts at 512 and doubles, up to
8192, until the grid holds 16 points per period of the highest harmonic of
C that the FFT of the samples shows.  Nelder-Mead then polishes the triples
of the three best local maxima of the grid K over s.

There is no randomness anywhere: identical inputs produce bit-identical
results, and every reduction over starts is order-independent because ties
are broken towards the lexicographically smallest argmax.  A non-finite
objective value raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import add
from typing import Callable

import numpy as np

__all__ = [
    "Correlator",
    "ChshSettings",
    "LgTimes",
    "OptimizationResult",
    "chsh_value",
    "lg_function",
    "maximize",
    "maximize_chsh",
    "maximize_lg",
]

_XATOL = 1e-8
_FATOL = 1e-10

# LG grid: first size, largest size, grid points per period of the highest
# harmonic, relative size below which a Fourier coefficient counts as zero,
# and the bytes of one block of the max-plus reduction.
_LG_GRID_MIN = 512
_LG_GRID_MAX = 8192
_LG_POINTS_PER_PERIOD = 16
_LG_FFT_TOL = 1e-14
_LG_BLOCK_BYTES = 1 << 20
_LG_POLISHED = 3


@dataclass(frozen=True)
class Correlator:
    """An evaluable correlation function bundled with its search metadata.

    ``kind`` is "chsh" for two-angle spatial correlations E(theta_a, theta_b)
    and "lg" for single-gap temporal correlations C(tau).  ``period`` is the
    periodicity of the underlying function per argument, which bounds the
    multistart search box.
    """

    fn: Callable[..., float]
    period: float = math.pi
    kind: str = "chsh"

    def __call__(self, *args: float) -> float:
        return self.fn(*args)


@dataclass(frozen=True)
class ChshSettings:
    """Four analyser angles, each stored reduced modulo pi."""

    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def __post_init__(self) -> None:
        for name in ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"):
            object.__setattr__(self, name, float(getattr(self, name)) % math.pi)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_a, self.theta_a_prime, self.theta_b, self.theta_b_prime)


@dataclass(frozen=True)
class LgTimes:
    """Three non-negative gaps between the four measurement times."""

    gaps: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.gaps) != 3 or any(g < 0.0 for g in self.gaps):
            raise ValueError(f"need three non-negative gaps, got {self.gaps!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a maximisation.

    ``value`` is the objective re-evaluated exactly at ``argmax``;
    ``converged`` reports whether the simplex runs that produced the result
    met their tolerances, and for LG points also whether the grid resolved
    the correlator's bandwidth (a best-so-far point is returned either way).
    ``evaluations`` counts objective calls, or correlator calls for LG
    points; ``starts_used`` counts the simplex starts.
    """

    value: float
    argmax: tuple[float, ...]
    evaluations: int
    converged: bool
    starts_used: int


def _chsh_objective(corr: Callable[[float, float], float]) -> Callable[[tuple[float, ...]], float]:
    """The CHSH combination of ``corr`` as a function of the four angles (a, a', b, b')."""

    def objective(x: tuple[float, ...]) -> float:
        a, ap, b, bp = x
        return corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp)

    return objective


def _lg_objective(corr: Callable[[float], float]) -> Callable[[tuple[float, ...]], float]:
    """The four-time combination of ``corr`` as a function of the three gaps (g1, g2, g3)."""

    def objective(x: tuple[float, ...]) -> float:
        g1, g2, g3 = x
        return corr(g1) + corr(g2) + corr(g3) - corr(g1 + g2 + g3)

    return objective


def chsh_value(correlator, settings: ChshSettings) -> float:
    """CHSH combination of a two-angle correlation at the given settings."""
    return _chsh_objective(correlator)(settings.as_tuple())


def lg_function(correlator, times: LgTimes) -> float:
    """Four-time combination K = C(g1) + C(g2) + C(g3) - C(g1+g2+g3)."""
    return _lg_objective(correlator)(times.gaps)


class _OutOfCalls(Exception):
    """The evaluation budget of one simplex run is spent."""


def _nelder_mead(f, x0, maxiter: int, maxfev: int) -> tuple[tuple[float, ...], bool]:
    """Minimise ``f`` from ``x0`` as scipy's Nelder-Mead does, on tuples of floats.

    Reflection 1, expansion 2, contraction 1/2, shrink 1/2; the initial
    simplex scales coordinate k of ``x0`` by 1.05 (sets it to 0.00025 when it
    is zero); the run stops once every vertex lies within ``_XATOL`` of the
    best and every value within ``_FATOL`` of the best value, after
    ``maxiter`` iterations, or when ``maxfev`` calls are spent, which may cut
    a step short.  Ties in the ordering keep the earlier vertex.  ``f`` gets
    each point as a tuple.  Returns the best vertex and whether neither cap
    was reached.
    """
    n = len(x0)
    calls = 0

    def call(x: tuple[float, ...]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _OutOfCalls
        calls += 1
        return f(x)

    def reorder() -> None:
        rank = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in rank]
        fsim[:] = [fsim[i] for i in rank]

    sim = [tuple(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(tuple(y))
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _OutOfCalls:
        pass
    reorder()

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        best, worst = sim[0], sim[-1]
        # fsim is ascending, so its largest spread is fsim[-1] - fsim[0]
        if fsim[-1] - fsim[0] <= _FATOL and all(
            abs(v - b) <= _XATOL for x in sim[1:] for v, b in zip(x, best)
        ):
            break
        try:
            total = best  # summed vertex by vertex, as numpy reduces axis 0
            for x in sim[1:-1]:
                total = map(add, total, x)
            xbar = [t / n for t in total]
            xr = tuple([2 * c - w for c, w in zip(xbar, worst)])
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = tuple([3 * c - 2 * w for c, w in zip(xbar, worst)])
                fxe = call(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = (xr, fxr)
            elif fxr < fsim[-1]:
                xc = tuple([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)])
                fxc = call(xc)
                new = (xc, fxc) if fxc <= fxr else None
            else:
                xc = tuple([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)])
                fxc = call(xc)
                new = (xc, fxc) if fxc < fsim[-1] else None
            if new is None:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = tuple([b + 0.5 * (v - b) for b, v in zip(best, sim[j])])
                    fsim[j] = call(sim[j])
                reorder()
            else:
                # The stable sort of a sorted simplex whose last vertex
                # changed.  Calling reorder() here instead gives the same
                # order but made chsh-sweep sweep_s 1.21 -> 1.41 s (median
                # of 10 runs, 2-vCPU Xeon).
                del sim[-1], fsim[-1]
                k = bisect_right(fsim, new[1])
                sim.insert(k, new[0])
                fsim.insert(k, new[1])
            iterations += 1
        except _OutOfCalls:
            reorder()
    return sim[0], calls < maxfev and iterations < maxiter


class _Polish:
    """Counts objective calls, rejects non-finite values, refines with Nelder-Mead."""

    def __init__(self, objective: Callable[[tuple[float, ...]], float], d: int, period: float):
        self.objective = objective
        self.d = d
        self.period = period
        self.count = 0

    def refine(self, x0: tuple[float, ...]) -> tuple[float, tuple[float, ...], bool]:
        objective, isfinite = self.objective, math.isfinite

        # one frame per simplex call (~6k calls per CHSH start)
        def negated(x: tuple[float, ...]) -> float:
            self.count += 1
            value = float(objective(x))
            if not isfinite(value):
                raise ValueError(f"objective value is not finite: {value!r} at {x!r}")
            return -value

        d = self.d
        x, ok = _nelder_mead(negated, x0, maxiter=4000 * d, maxfev=8000 * d)
        point = tuple(v % self.period for v in x)
        return -negated(point), point, ok

    def best(self, starts) -> tuple[float, tuple[float, ...], bool]:
        """Refine from every start and keep the best result (see ``_better``)."""
        best_value, best_point, best_ok = -math.inf, None, False
        for x0 in starts:
            value, point, ok = self.refine(x0)
            if _better(value, point, best_value, best_point):
                best_value, best_point, best_ok = value, point, ok
        return best_value, best_point, best_ok


def _better(value: float, point: tuple[float, ...], best_value: float, best_point) -> bool:
    """Higher value wins; on a tie the lexicographically smaller point wins."""
    return value > best_value or (value == best_value and point < best_point)


def _bare(correlator) -> Callable[..., float]:
    """The function inside a ``Correlator`` (skipping its ``__call__``), else the argument."""
    return correlator.fn if isinstance(correlator, Correlator) else correlator


def _check_search(period: float, starts: int | None) -> None:
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    if starts is not None and starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")


def maximize(
    objective: Callable[[tuple[float, ...]], float],
    d: int,
    period: float = math.pi,
    starts: int | None = None,
) -> OptimizationResult:
    """Deterministic multistart maximisation over a d-dimensional period box.

    Parameters
    ----------
    objective : callable
        Maps a length-``d`` tuple of floats to a float.  Must be periodic with
        ``period`` in every coordinate (the argmax is reported reduced into
        ``[0, period)``).  A non-finite value raises ``ValueError``.
    d : int
        Dimension of the search space.
    period : float
        Periodicity per coordinate; also the edge length of the start lattice.
    starts : int, optional
        Requested number of lattice starts.  Rounded to the nearest perfect
        d-th power (default ``3**d``); cell-midpoint placement avoids the
        degenerate all-zero corner.

    Returns
    -------
    OptimizationResult
        Best value found, its (reduced) argmax, the total number of
        objective evaluations, and a convergence flag.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_search(period, starts)
    if starts is None:
        starts = 3 ** d
    per_axis = max(1, round(starts ** (1.0 / d)))

    polish = _Polish(objective, d, period)
    axis = [(i + 0.5) * period / per_axis for i in range(per_axis)]
    best_value, best_point, best_ok = polish.best(itertools.product(axis, repeat=d))

    # one polishing pass from the winner tightens the last digits
    value, point, ok = polish.refine(best_point)
    if _better(value, point, best_value, best_point):
        best_value, best_point, best_ok = value, point, ok and best_ok

    return OptimizationResult(
        value=best_value,
        argmax=best_point,
        evaluations=polish.count,
        converged=best_ok,
        starts_used=per_axis ** d,
    )


def maximize_chsh(correlator, starts: int | None = None) -> OptimizationResult:
    """Maximise the CHSH combination of a two-angle correlator."""
    period = getattr(correlator, "period", math.pi)
    return maximize(_chsh_objective(_bare(correlator)), d=4, period=period, starts=starts)


def _maxplus(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic max-plus convolution: out[s] = max_k x[k] + y[(s - k) mod n].

    Also returns the maximising k (the smallest on ties).  Row s of the
    circulant y[(s - k) mod n] is window n - 1 - s of the doubled, reversed
    y, so the rows are strided views and no n x n array is built; the sums
    are formed a block of rows at a time.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    n = len(x)
    rev = y[::-1]
    windows = sliding_window_view(np.concatenate((rev, rev)), n)
    rows = max(1, _LG_BLOCK_BYTES // (8 * n))
    buf = np.empty((rows, n))
    out = np.empty(n)
    arg = np.empty(n, dtype=np.intp)
    for s0 in range(0, n, rows):
        s1 = min(n, s0 + rows)
        block = np.add(x, windows[n - s1:n - s0][::-1], out=buf[: s1 - s0])
        arg[s0:s1] = block.argmax(axis=1)
        out[s0:s1] = block[np.arange(s1 - s0), arg[s0:s1]]
    return out, arg


def _lg_samples(correlator, period: float) -> tuple[np.ndarray, bool]:
    """C on the first grid fine enough for its bandwidth, and whether one was.

    The grid doubles from ``_LG_GRID_MIN`` points, reusing the samples it
    has, until it holds ``_LG_POINTS_PER_PERIOD`` points per period of the
    highest harmonic whose Fourier coefficient exceeds ``_LG_FFT_TOL``
    relative to max(1, max|C|); it stops at ``_LG_GRID_MAX`` points.
    """
    n = _LG_GRID_MIN
    c = np.array([float(correlator(k * period / n)) for k in range(n)])
    while True:
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"correlator value is not finite: {float(c[k])!r} at tau={k * period / n!r}"
            )
        spectrum = np.abs(np.fft.rfft(c)) / n
        floor = _LG_FFT_TOL * max(1.0, float(np.max(np.abs(c))))
        above = np.flatnonzero(spectrum > floor)
        top = int(above[-1]) if above.size else 0
        if top * _LG_POINTS_PER_PERIOD <= n:
            return c, True
        if n >= _LG_GRID_MAX:
            return c, False
        finer = np.empty(2 * n)
        finer[0::2] = c
        finer[1::2] = [float(correlator(k * period / (2 * n))) for k in range(1, 2 * n, 2)]
        c, n = finer, 2 * n


def maximize_lg(correlator, starts: int | None = None) -> OptimizationResult:
    """Globally maximise the four-time combination of a single-gap correlator.

    C is sampled on a periodic grid sized from its bandwidth (see the module
    docstring), the grid maximum of K for every gap total s comes from two
    max-plus convolutions, and Nelder-Mead polishes the grid triples of the
    ``_LG_POLISHED`` best local maxima of that grid K over s.  The highest
    polished value wins, the lexicographically smaller argmax on a tie.

    ``value`` is K re-evaluated at ``argmax``, whose gaps are reduced into
    ``[0, period)``.  ``evaluations`` counts every call of ``correlator``,
    the grid samples included.  ``starts`` is validated (>= 1) but does not
    change the search; ``starts_used`` is the number of polished triples.
    ``converged`` is true only when the grid resolved the bandwidth of C
    below its size cap and the winning polish met its tolerances.  A
    non-finite sample or objective value raises ``ValueError``.
    """
    period = getattr(correlator, "period", 2.0 * math.pi)
    _check_search(period, starts)
    corr = _bare(correlator)

    c, resolved = _lg_samples(corr, period)
    n = len(c)
    pairs, first = _maxplus(c, c)  # pairs[k] = c[g1] + c[k - g1], g1 = first[k]
    triples, second = _maxplus(pairs, c)  # triples[s] = pairs[k] + c[s - k], k = second[s]
    k_grid = triples - c

    # polish from local maxima over s (the first point of a plateau), not the
    # best s values, which tend to sit side by side in one basin
    peaks = np.flatnonzero((k_grid > np.roll(k_grid, 1)) & (k_grid >= np.roll(k_grid, -1)))
    if not peaks.size:
        peaks = np.array([int(np.argmax(k_grid))])
    peaks = peaks[np.lexsort((peaks, -k_grid[peaks]))][:_LG_POLISHED]

    def grid_gaps(s: int) -> tuple[float, float, float]:
        k = int(second[s])
        g1 = int(first[k])
        return tuple(g * period / n for g in (g1, (k - g1) % n, (s - k) % n))

    polish = _Polish(_lg_objective(corr), 3, period)
    value, point, ok = polish.best(grid_gaps(int(s)) for s in peaks)
    return OptimizationResult(
        value=value,
        argmax=point,
        evaluations=n + 4 * polish.count,
        converged=resolved and ok,
        starts_used=len(peaks),
    )
