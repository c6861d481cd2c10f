"""Deterministic maximisation of Bell and Leggett-Garg figures of merit.

Both figures of merit are smooth periodic functions of a handful of angles
or time gaps:

    CHSH:  B = E(a, b) + E(a', b) + E(a, b') - E(a', b')      (4 angles)
    LG:    K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3)        (3 gaps)

CHSH maximisation of a ``kernels.CosineForm`` with q = 0, E = c + A cos 2(a - b)
with A >= 0 (the three ECS systems), is exact and needs no search: the signed
sum of four cosines is at most 2 sqrt(2) (Tsirelson's bound), attained at
(a, a', b, b') = (0, pi/4, pi/8, 7 pi/8), one point of a continuum of
maximisers.  Every other correlator runs Nelder-Mead simplex refinement from
a fixed lattice of starting points spread over one period per coordinate (3
per axis by default); a form with q < 0, c + q cos 2(a + b) (generic-delta,
generic-ref and photon), runs it on the form's ``closure``.

The simplex is an in-house ``_nelder_mead`` over floats that
replays ``scipy.optimize.minimize(method="Nelder-Mead")`` step for step: the
same coefficients, initial simplex, stopping test and evaluation caps, and
the same float expressions, so it evaluates the same points.  The one
deliberate difference is the tie rule: the simplex is ordered by a stable
sort, so vertices with equal values keep their order, where scipy's
``numpy.argsort`` is unstable and its tie order depends on the numpy build.
Each run is straight-line code that ``_compiled_nelder_mead`` writes out
per dimension; ``maximize_chsh`` has the CHSH sum of the bare
correlator compiled in, so no wrapper frame sits between the simplex and
the correlator.  Every value the run computes, and the re-evaluation at
each run's best vertex, counts as one evaluation.

LG maximisation of a ``kernels.Harmonic``, C = A cos(omega tau) with A >= 0
(lg-nonclassical), is exact too: K = A (cos x1 + cos x2 + cos x3 -
cos(x1 + x2 + x3)) with x = omega g is at most 2 sqrt(2) A, attained at
g1 = g2 = g3 = pi / (4 omega), one point of a continuum of maximisers.  No
numpy is loaded for it.  Every other LG maximisation is global.  C has
period T, so K depends on the gaps only through their residues mod T, and
for each total s = g1 + g2 + g3 (mod T)

    max K(s) = [C (+) C (+) C](s) - C(s),

where (+) is the max-plus convolution (x (+) y)(s) = max_k x(k) + y(s - k).
On an N-point periodic grid that is two O(N^2) max-reductions, and every
grid value is attained by a grid triple.  N starts at 512 and doubles, up to
8192, until the grid holds 16 points per period of the highest harmonic of
C that the FFT of the samples shows.  A ``kernels.CosineSeries`` (lg-spin)
gives each step's samples from one numpy product, with the bits of its
calls; any other correlator is called once per grid point.  Nelder-Mead
then polishes the triples of the three best local maxima of the grid K
over s, calling a series through its bound ``__call__``.

There is no randomness anywhere: identical inputs produce bit-identical
results, and every reduction over starts is order-independent because ties
are broken towards the lexicographically smallest argmax.  A non-finite
objective value raises ``NonFiniteObjectiveError``, a ``ValueError``.

``starts`` is an integer (not a bool) from 1 to ``MAX_STARTS``; anything
else raises ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable

from .kernels import CosineForm, CosineSeries, Harmonic, Validated, as_int, is_finite, require_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Correlator",
    "ChshSettings",
    "LgTimes",
    "MAX_STARTS",
    "NonFiniteObjectiveError",
    "OptimizationResult",
    "chsh_value",
    "lg_function",
    "maximize_chsh",
    "maximize_lg",
]

# Largest multistart count.  A CHSH point makes ~300 objective calls per
# start, so at this limit one point takes 3.5-5 s on a 2-vCPU Xeon, by its
# clock level (generic-ref and generic-delta, `coarsebell point`, whole
# process); 1e12 starts would run for years, and a count past ~1e308
# overflows the lattice's float arithmetic.
MAX_STARTS = 10_000

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

class Correlator(namedtuple("Correlator", "fn period kind")):
    """An evaluable correlation function bundled with its search metadata.

    ``period`` is the periodicity of the function per argument, which bounds
    the search box.  ``kind`` is "chsh" (the default) for E(theta_a,
    theta_b) or "lg" for C(tau); no maximiser reads it, but it sets the
    default period: pi for "chsh", 2 pi for "lg".
    """

    __slots__ = ()

    def __new__(cls, fn, period: float | None = None, kind: str = "chsh"):
        if period is None:
            period = 2.0 * math.pi if kind == "lg" else math.pi
        return super().__new__(cls, fn, period, kind)

    def __call__(self, *args: float) -> float:
        return self.fn(*args)


class ChshSettings(
    Validated, namedtuple("ChshSettings", "theta_a theta_a_prime theta_b theta_b_prime")
):
    """Four finite analyser angles, each stored reduced modulo pi."""

    __slots__ = ()

    def __new__(cls, theta_a: float, theta_a_prime: float, theta_b: float, theta_b_prime: float):
        angles = (theta_a, theta_a_prime, theta_b, theta_b_prime)
        require_finite(cls, *angles)
        return tuple.__new__(cls, [float(theta) % math.pi for theta in angles])


class LgTimes(Validated, namedtuple("LgTimes", "gaps")):
    """Three finite, non-negative gaps between the four measurement times."""

    __slots__ = ()

    def __new__(cls, gaps: tuple[float, float, float]):
        if not all(map(is_finite, gaps)):
            raise ValueError(f"gaps must be finite, got {gaps!r}")
        if len(gaps) != 3 or any(g < 0.0 for g in gaps):
            raise ValueError(f"need three non-negative gaps, got {gaps!r}")
        return tuple.__new__(cls, (gaps,))


class OptimizationResult(
    namedtuple("OptimizationResult", "value argmax evaluations converged starts_used")
):
    """Outcome of a maximisation.

    ``value`` is the objective re-evaluated exactly at ``argmax``;
    ``converged`` reports whether the simplex runs that produced the result
    met their tolerances, and for LG points also whether the grid resolved
    the correlator's bandwidth (a best-so-far point is returned either way);
    a closed-form CHSH or LG result is exact and always converged.
    ``evaluations`` counts objective calls, or correlator calls for LG
    points; ``starts_used`` counts the simplex starts (0 for a closed form).
    """

    __slots__ = ()


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
    return _chsh_objective(correlator)(settings)


def lg_function(correlator, times: LgTimes) -> float:
    """Four-time combination K = C(g1) + C(g2) + C(g3) - C(g1+g2+g3)."""
    return _lg_objective(correlator)(times.gaps)


class NonFiniteObjectiveError(ValueError):
    """An objective or correlator value met during a maximisation is NaN or infinite."""


def _not_finite(value: float, point: tuple[float, ...]) -> None:
    """Raise ``NonFiniteObjectiveError`` for the objective's ``value`` at ``point``."""
    raise NonFiniteObjectiveError(f"objective value is not finite: {value!r} at {point!r}")


def _reorder(sim: list, fsim: list) -> None:
    """Sort the simplex by value in place; the stable sort keeps tied vertices in order."""
    rank = sorted(range(len(fsim)), key=fsim.__getitem__)
    sim[:] = [sim[i] for i in rank]
    fsim[:] = [fsim[i] for i in rank]


@functools.cache
def _compiled_nelder_mead(d: int, chsh: bool) -> Callable:
    """One Nelder-Mead run in dimension ``d``, written out as source and compiled once.

    The run minimises the objective's negation as scipy would.  The sorted
    simplex lives in float locals from one iteration to the next: vertex j
    is s{j}_0 .. s{j}_{d-1} with negated value f{j} (the worst is j = d);
    the centroid is c0 .. c{d-1}, and the trial points xr (reflect), xe
    (expand), xc (contract) and p (initial or shrunk vertex).  An accepted
    point y replaces the worst vertex and moves up past every vertex whose
    value is strictly greater, so ties keep the earlier vertex.  The initial
    simplex and the rare shrink step are lists, sorted by ``_reorder``; a
    cap that cuts a shrink leaves the vertex it just moved with its old
    value, as scipy's run does.

    Each expansion spells one per-coordinate expression out for k = 0 ..
    d-1, in the operation order of scipy's array expression.  Each
    ``evaluate`` caps and counts one call inline, makes its value a float,
    negates it and checks that it is finite.  That value is all the two
    forms differ in: the point form calls the objective on the point's
    tuple, ``f((p0, ..., p{d-1},))``, and the CHSH form (``chsh``, d = 4)
    sums the bare correlator ``f`` as ``_chsh_objective`` does.  Each
    (d, form) pair is built on first use, never at import (as
    ``collections.namedtuple`` builds its classes).  Its file name is
    ``<nelder-mead d=...>`` (``<nelder-mead d=4 chsh>``), and its source is
    put in ``linecache`` so that tracebacks through it show their lines.
    """

    def each(pattern: str, sep: str = ", ", j: int = 0) -> str:  # j: a vertex, i = j + 1
        return sep.join(pattern.format(k=k, d=d, j=j, i=j + 1) for k in range(d))

    def evaluate(x: str, indent: int, store: str = "") -> str:  # of point x{k}, into f{x}
        point = each(x + "{k}")
        if chsh:
            value = "f({x}0, {x}2) + f({x}1, {x}2) + f({x}0, {x}3) - f({x}1, {x}3)".format(x=x)
        else:
            value = "f((" + point + ",))"
        lines = (
            "if calls >= maxfev:",
            "    break",
            "calls += 1",
            "{}f{} = -float({})".format(store, x, value),
            "if not isfinite(f{}):".format(x),
            "    _not_finite(-f{}, ({},))".format(x, point),
        )
        return ("\n" + " " * indent).join(lines)

    def start(j: int) -> str:  # x0, with coordinate j scaled when j < d
        scaled = "(1 + 0.05) * x0_{k} if x0_{k} != 0 else 0.00025"
        return "(" + ", ".join((scaled if k == j else "x0_{k}").format(k=k) for k in range(d)) + ",)"

    def vertex_sum(k: int) -> str:  # vertex by vertex from +0.0, as numpy reduces axis 0
        total = "(0.0 + s0_{k})"  # so that a sum of -0.0s is +0.0
        for j in range(1, d):
            total = "(" + total + " + s{}_{{k}})".format(j)
        return total.format(k=k)

    vertices = ", ".join("(" + each("s{j}_{k}", j=j) + ",)" for j in range(d + 1))
    values = ", ".join("f" + str(j) for j in range(d + 1))
    close = " and ".join(each("abs(s{i}_{k} - s0_{k}) <= xatol", " and ", j) for j in range(d))
    # the accepted point y moves up past vertex j = d-1 .. 0 while fy < f{j}
    insert = ["    " * d + each("s0_{k} = y{k}", "; ") + "; f0 = fy"]
    for j in range(d):  # from the innermost branch out
        pad = "    " * (d - 1 - j)
        shift = each("s{i}_{k} = s{j}_{k}", "; ", j) + "; f{} = f{}".format(j + 1, j)
        put = each("s{i}_{k} = y{k}", "; ", j) + "; f{} = fy".format(j + 1)
        insert = [pad + "if fy < f{}:".format(j), pad + "    " + shift, *insert]
        insert += [pad + "else:", pad + "    " + put]
    insert = ("\n" + " " * 8).join(insert)

    source = f"""\
def nelder_mead(f, x0, maxiter, maxfev):
    isfinite = math.isfinite
    {each("x0_{k}")}, = x0
    sim = [{", ".join(start(j) for j in [d, *range(d)])}]
    fsim = [math.inf] * ({d} + 1)
    calls = 0
    for j, ({each("p{k}")},) in enumerate(sim):
        {evaluate("p", 8, "fsim[j] = ")}
    _reorder(sim, fsim)
    {vertices}, = sim
    {values}, = fsim
    xatol, fatol = _XATOL, _FATOL

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        if f{d} - f0 <= fatol and {close}:
            break
        {"; ".join("c{} = {} / {}".format(k, vertex_sum(k), d) for k in range(d))}
        {each("xr{k} = 2 * c{k} - s{d}_{k}", "; ")}
        {evaluate("xr", 8)}
        if fxr < f0:
            {each("xe{k} = 3 * c{k} - 2 * s{d}_{k}", "; ")}
            {evaluate("xe", 12)}
            if fxe < fxr:
                {each("y{k} = xe{k}", "; ")}; fy = fxe
            else:
                {each("y{k} = xr{k}", "; ")}; fy = fxr
        elif fxr < f{d - 1}:
            {each("y{k} = xr{k}", "; ")}; fy = fxr
        else:
            if fxr < f{d}:
                {each("xc{k} = 1.5 * c{k} - 0.5 * s{d}_{k}", "; ")}
            else:
                {each("xc{k} = 0.5 * c{k} + 0.5 * s{d}_{k}", "; ")}
            {evaluate("xc", 12)}
            if fxc <= fxr if fxr < f{d} else fxc < f{d}:
                {each("y{k} = xc{k}", "; ")}; fy = fxc
            else:  # shrink towards the best vertex
                sim = [{vertices}]
                fsim = [{values}]
                for j, ({each("v{k}")},) in enumerate(sim[1:], 1):
                    {each("p{k} = s0_{k} + 0.5 * (v{k} - s0_{k})", "; ")}
                    sim[j] = ({each("p{k}")},)
                    {evaluate("p", 20, "fsim[j] = ")}
                _reorder(sim, fsim)
                {vertices}, = sim
                {values}, = fsim
                iterations += 1
                continue
        {insert}
        iterations += 1
    return ({each("s0_{k}")},), calls < maxfev and iterations < maxiter, calls
"""
    import linecache

    filename = "<nelder-mead d={}{}>".format(d, " chsh" if chsh else "")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["nelder_mead"]


def _nelder_mead(
    f, x0, maxiter: int, maxfev: int, chsh: bool = False
) -> tuple[tuple[float, ...], bool, int]:
    """Maximise an objective from ``x0`` by scipy's Nelder-Mead on its negation.

    Reflection 1, expansion 2, contraction 1/2, shrink 1/2; the initial
    simplex scales coordinate k of ``x0`` by 1.05 (sets it to 0.00025 when it
    is zero); the run stops once every vertex lies within ``_XATOL`` of the
    best and every value within ``_FATOL`` of the best value, after
    ``maxiter`` iterations, or when ``maxfev`` calls are spent, which may cut
    a step short.  Ties in the ordering keep the earlier vertex.  ``f`` is
    the objective, which gets each point as a tuple of floats, or with
    ``chsh`` the two-angle correlator whose CHSH sum is the objective.  Each
    value is made a float; a non-finite one raises
    ``NonFiniteObjectiveError``.  Returns the best vertex, whether neither
    cap was reached, and the number of evaluations (calls of the objective,
    or of the CHSH sum).
    """
    return _compiled_nelder_mead(len(x0), chsh)(f, x0, maxiter, maxfev)


def _best_run(
    f, chsh: bool, objective, period: float, starts
) -> tuple[float, tuple[float, ...], bool, int]:
    """Value, point and convergence flag of the best Nelder-Mead run, and all runs' evaluations.

    Each run from a start evaluates ``f`` (with ``chsh``, the correlator whose
    CHSH sum is ``objective``; see ``_compiled_nelder_mead``).  Its point is
    reduced into ``[0, period)`` and re-evaluated through ``objective``, and
    that call counts as an evaluation too.  ``_better`` picks the best run.
    """
    best_value, best_point, best_ok, evaluations = -math.inf, None, False, 0
    for x0 in starts:
        d = len(x0)
        x, ok, calls = _nelder_mead(f, x0, 4000 * d, 8000 * d, chsh)
        point = tuple(v % period for v in x)
        value = float(objective(point))
        if not math.isfinite(value):
            _not_finite(value, point)
        evaluations += calls + 1
        if _better(value, point, best_value, best_point):
            best_value, best_point, best_ok = value, point, ok
    return best_value, best_point, best_ok, evaluations


def _better(value: float, point: tuple[float, ...], best_value: float, best_point) -> bool:
    """Higher value wins; on a tie the lexicographically smaller point wins."""
    return value > best_value or (value == best_value and point < best_point)


def _bare(correlator) -> Callable[..., float]:
    """The function inside a ``Correlator`` (skipping its ``__call__``), else the argument."""
    return correlator.fn if isinstance(correlator, Correlator) else correlator


def _check_search(period: float, starts: int | None) -> int | None:
    """``starts`` as a built-in int (or None), once it and ``period`` are valid."""
    if not (is_finite(period) and period > 0.0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    if starts is None:
        return None
    count = as_int(starts)
    if count is None:
        raise ValueError(f"starts must be an integer, got {starts!r}")
    if count < 1:
        raise ValueError(f"starts must be >= 1, got {count}")
    if count > MAX_STARTS:
        raise ValueError(f"starts must be <= MAX_STARTS = {MAX_STARTS}, got {count}")
    return count


def maximize_chsh(correlator, starts: int | None = None) -> OptimizationResult:
    """Maximise the CHSH combination of a two-angle correlator.

    A ``kernels.CosineForm`` with ``q == 0``, bare or inside a ``Correlator``,
    takes its closed-form maximum (see the module docstring): ``argmax`` is
    the fixed (0, pi/4, pi/8, 7 pi/8), ``value`` the CHSH sum there, one
    evaluation and no start; ``starts`` is validated but unused.  Any other
    form runs the lattice on its ``closure``, never its ``__call__``.  The
    check is by exact type, so any other correlator, a subclass or a
    function of the same shape too, runs the lattice as it is.  Its simplex
    runs evaluate the CHSH sum of the bare correlator inline (the CHSH form
    of ``_compiled_nelder_mead``), with the operation order of
    ``_chsh_objective``, through which ``value`` is re-evaluated.

    The lattice puts its starts at the cell midpoints of the period box, the
    number per angle being the fourth root of ``starts`` (default 81)
    rounded to the nearest integer; the runs from every start and one more
    from the winner count in ``evaluations``, and ``argmax`` is reduced
    into ``[0, period)``.  Its ``value`` can read a few ulps above the
    closed maximum, from the rounding of the four-term sum: the sharp
    singlet form gives 2.8284271247461916, not the float 2 sqrt(2).

    ``converged`` on the closed path is always true: ``value`` is the exact
    maximum.  On the lattice it is true when the winning run met ``_XATOL``
    and ``_FATOL`` within its caps, and so did the polish from the winner
    when the polish wins; that value is uncertified, the best of the runs.
    """
    period = getattr(correlator, "period", math.pi)
    starts = _check_search(period, starts)
    corr = _bare(correlator)
    if type(corr) is CosineForm:
        if corr.q == 0.0:
            argmax = (0.0, math.pi / 4, math.pi / 8, 7 * math.pi / 8)  # each term c +- p / sqrt(2)
            return OptimizationResult(_chsh_objective(corr.closure)(argmax), argmax, 1, True, 0)
        corr = corr.closure
    objective = _chsh_objective(corr)
    per_axis = max(1, round((81 if starts is None else starts) ** 0.25))
    axis = [(i + 0.5) * period / per_axis for i in range(per_axis)]
    lattice = itertools.product(axis, repeat=4)
    best_value, best_point, best_ok, evaluations = _best_run(corr, True, objective, period, lattice)

    # one polishing pass from the winner tightens the last digits
    value, point, ok, calls = _best_run(corr, True, objective, period, [best_point])
    if _better(value, point, best_value, best_point):
        best_value, best_point, best_ok = value, point, ok and best_ok
    return OptimizationResult(best_value, best_point, evaluations + calls, best_ok, per_axis ** 4)


def _maxplus(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic max-plus convolution: out[s] = max_k x[k] + y[(s - k) mod n].

    Also returns the maximising k (the smallest on ties).  Row s of the
    circulant y[(s - k) mod n] is window n - 1 - s of the doubled, reversed
    y, so the rows are strided views and no n x n array is built; the sums
    are formed a block of rows at a time.
    """
    import numpy as np
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
    relative to max(1, max|C|); it stops at ``_LG_GRID_MAX`` points.  Each
    step's new gaps come as one array; a ``CosineSeries`` samples them in
    one product, any other correlator is called at each.
    """
    import numpy as np

    if type(correlator) is CosineSeries:
        sample = correlator.sample
    else:

        def sample(taus: np.ndarray) -> np.ndarray:
            return np.array([float(correlator(tau)) for tau in taus.tolist()])

    n = _LG_GRID_MIN
    c = sample(np.arange(n) * period / n)
    while True:
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            k = int(bad[0])
            raise NonFiniteObjectiveError(
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
        finer[1::2] = sample(np.arange(1, 2 * n, 2) * period / (2 * n))
        c, n = finer, 2 * n


def maximize_lg(correlator, starts: int | None = None) -> OptimizationResult:
    """Globally maximise the four-time combination of a single-gap correlator.

    C is sampled on a periodic grid sized from its bandwidth (see the module
    docstring), the grid maximum of K for every gap total s comes from two
    max-plus convolutions, and Nelder-Mead polishes the grid triples of the
    ``_LG_POLISHED`` best local maxima of that grid K over s.  The highest
    polished value wins, the lexicographically smaller argmax on a tie.

    C's period is a ``Correlator``'s, else C's own ``period``, else 2 pi.
    ``value`` is K re-evaluated at ``argmax``, whose gaps are reduced into
    ``[0, period)``.  ``evaluations`` counts every call of ``correlator``,
    the grid samples included.  ``starts`` is validated (>= 1) but does not
    change the search; ``starts_used`` is the number of polished triples.
    ``converged`` is true only when a grid of at most ``_LG_GRID_MAX``
    points resolved C's highest harmonic and the winning polish met
    ``_XATOL`` and ``_FATOL`` within its caps.  A non-finite sample or
    objective value raises ``NonFiniteObjectiveError``.

    A ``kernels.Harmonic``, bare or inside a ``Correlator``, takes its
    closed-form maximum instead (see the module docstring): ``argmax`` is
    (pi / (4 omega),) * 3 reduced modulo the period, ``value`` K there,
    four evaluations and no start, and ``converged`` is always true, since
    ``value`` is the exact maximum.  The check is by exact type, as in
    ``maximize_chsh``; a ``kernels.CosineSeries`` runs the grid search
    above, sampled in numpy.
    """
    period = getattr(correlator, "period", 2.0 * math.pi)
    _check_search(period, starts)
    corr = _bare(correlator)
    if type(corr) is Harmonic:
        gap = math.pi / (4.0 * corr.omega) % period
        argmax = (gap, gap, gap)
        return OptimizationResult(_lg_objective(corr)(argmax), argmax, 4, True, 0)
    import numpy as np

    c, resolved = _lg_samples(corr, period)
    if type(corr) is CosineSeries:
        corr = corr.__call__  # the bound method skips the instance's call slot
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

    objective = _lg_objective(corr)
    peak_gaps = (grid_gaps(int(s)) for s in peaks)
    value, point, ok, calls = _best_run(objective, False, objective, period, peak_gaps)
    return OptimizationResult(
        value=value,
        argmax=point,
        evaluations=n + 4 * calls,
        converged=resolved and ok,
        starts_used=len(peaks),
    )
