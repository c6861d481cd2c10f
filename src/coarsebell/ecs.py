"""Entangled coherent states probed by dichotomised homodyne detection.

The two-mode input is the even superposition of coherent amplitudes,

    |psi> = N ( |alpha, alpha> + |-alpha, -alpha> ),
    N = [ 2 (1 + exp(-4 alpha^2)) ]^(-1/2),    alpha real > 0.

Each party applies an ideal rotation in the span of {|alpha>, |-alpha>},
measures the position quadrature, and dichotomises the outcome by its sign.
All three coarsening variants reduce to the separable form

    E(ta, tb) = A * cos 2(ta - tb)

with an amplitude A that encodes the imperfection:

* detector efficiency eta:     A = erf(sqrt(2 eta) alpha)^2 / (1 + e^{-4 alpha^2})
* smeared reference angle:     A = e^{-4 Delta^2} erf(sqrt(2) alpha)^2 / (1 + e^{-4 alpha^2})
* smeared homodyne angle:      A = I(alpha, Delta)^2 / (1 + e^{-4 alpha^2})

where I(alpha, Delta) is a Gaussian average over the homodyne-angle error
lambda of the sharp response erf(sqrt(2) alpha cos lambda); it tends to
erf(sqrt(2) alpha) as Delta -> 0.  The integral is evaluated by an in-house
adaptive Gauss-Kronrod (7/15) quadrature with breakpoints at the erf steps,
so this module needs no scipy.

Each ``ecs_*_correlator(params)`` computes its amplitude, the quadrature
included, once and returns ``(theta_a, theta_b) -> E`` as a
``kernels.CosineDifference``, whose CHSH maximum 2 sqrt(2) A
``optimize.maximize_chsh`` takes in closed form, with no search; sweeps bind
one per point, and the ``corr_ecs_*`` functions bind theirs once per
configuration through ``kernels.bound``.

``oracles.oracle_ecs_quadrature`` rebuilds the efficiency-free correlation
from first principles - coherent-state position wavefunctions,
sign-probability integrals, cross-term overlaps and all - as an independent
check on the closed form.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from math import erf
from typing import Callable

from .kernels import CosineDifference, Validated, bound, require_finite

__all__ = [
    "EcsParams",
    "ConvergenceError",
    "ecs_efficiency_correlator",
    "ecs_reference_correlator",
    "ecs_homodyne_correlator",
    "corr_ecs_efficiency",
    "corr_ecs_reference",
    "corr_ecs_homodyne_angle",
    "homodyne_angle_average",
]

_SQRT_2 = math.sqrt(2.0)


class ConvergenceError(RuntimeError):
    """Raised when the adaptive quadrature cannot certify the target accuracy."""


class EcsParams(Validated, namedtuple("EcsParams", "alpha eta Delta", defaults=(1.0, 0.0))):
    """Coherent amplitude ``alpha`` plus the coarsening knobs ``eta``/``Delta``."""

    __slots__ = ()

    def __new__(cls, alpha: float, eta: float = 1.0, Delta: float = 0.0):
        require_finite(cls, alpha, eta, Delta)
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {Delta}")
        return tuple.__new__(cls, (alpha, eta, Delta))


def _overlap_denominator(alpha: float) -> float:
    # 1 + e^{-4 alpha^2}; the exponential underflows harmlessly to 0 for
    # large alpha, which is the correct limit.
    return 1.0 + math.exp(-4.0 * alpha * alpha)


def ecs_efficiency_correlator(params: EcsParams) -> CosineDifference:
    """Correlation with detector efficiency ``eta`` (sharp references).

    Amplitude ``erf(sqrt(2 eta) alpha)^2 / (1 + e^{-4 alpha^2})``; increasing
    either ``eta`` or ``alpha`` drives it towards 1, so inefficiency can be
    compensated by amplitude.
    """
    e = erf(math.sqrt(2.0 * params.eta) * params.alpha)
    return CosineDifference(e * e / _overlap_denominator(params.alpha))


def ecs_reference_correlator(params: EcsParams) -> CosineDifference:
    """Correlation with Gaussian-smeared rotation references (unit efficiency).

    The smearing multiplies the sharp amplitude by ``e^{-4 Delta^2}``,
    independent of ``alpha`` once the erf factor saturates.
    """
    e = erf(_SQRT_2 * params.alpha)
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    return CosineDifference(damping * e * e / _overlap_denominator(params.alpha))


def ecs_homodyne_correlator(params: EcsParams) -> CosineDifference:
    """Correlation with a Gaussian-smeared homodyne measurement angle.

    Amplitude ``I(alpha, Delta)^2 / (1 + e^{-4 alpha^2})``, with the average
    I computed once here.  Unlike the efficiency case this degradation
    cannot be compensated by increasing ``alpha``.
    """
    i_val = homodyne_angle_average(params.alpha, params.Delta)
    return CosineDifference(i_val * i_val / _overlap_denominator(params.alpha))


def corr_ecs_efficiency(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_efficiency_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_efficiency_correlator, params)(theta_a, theta_b)


def corr_ecs_reference(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_reference_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_reference_correlator, params)(theta_a, theta_b)


def corr_ecs_homodyne_angle(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_homodyne_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_homodyne_correlator, params)(theta_a, theta_b)


# ---------------------------------------------------------------------------
# homodyne-angle quadrature

# Gauss-Kronrod 7/15 rule on [-1, 1], as in QUADPACK's qk15: the positive
# Kronrod nodes and their weights, then the weight of the centre.  The
# 7-point Gauss rule uses every second of those nodes, from the second on,
# and the centre.
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK0 = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG0 = 0.417959183673469387755102040816327

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# Error targets of the adaptive integration, the error estimate above which
# it fails, and the most pieces it may cut the window into.  The breakpoints
# alone take 7 pieces per sign flip of cos(lambda), so the limit admits
# Delta up to ~35; I(alpha, Delta) ~ exp(-Delta^2 / 2) underflows to 0 there.
_EPSABS = 1e-13
_EPSREL = 1e-12
_QUAD_TOL = 1e-9
_QUAD_LIMIT = 2000
# Breakpoints around each sign flip, in units of the erf transition width.
_FLIP_OFFSETS = (-10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0)


def _kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 value of the integral of ``f`` over [a, b].

    Also returns QUADPACK's error estimate for it.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    pairs = [(f(c - h * x), f(c + h * x)) for x in _XK]
    kronrod = _WK0 * fc + sum(w * (lo + hi) for w, (lo, hi) in zip(_WK, pairs))
    gauss = _WG0 * fc + sum(w * (lo + hi) for w, (lo, hi) in zip(_WG, pairs[1::2]))
    mean = 0.5 * kronrod
    spread = _WK0 * abs(fc - mean) + sum(
        w * (abs(lo - mean) + abs(hi - mean)) for w, (lo, hi) in zip(_WK, pairs)
    )
    size = _WK0 * abs(fc) + sum(w * (abs(lo) + abs(hi)) for w, (lo, hi) in zip(_WK, pairs))
    h = abs(h)
    err, spread, size = abs((kronrod - gauss) * h), spread * h, size * h
    if spread and err:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    if size > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * size, err)
    return kronrod * h, err


def _adaptive(f: Callable[[float], float], edges: list[float]) -> tuple[float, float]:
    """Integral of ``f`` over consecutive ``edges``, and its error estimate.

    Global adaptive bisection: while the summed error estimate exceeds
    max(``_EPSABS``, ``_EPSREL`` |value|) and fewer than ``_QUAD_LIMIT``
    pieces exist, the piece with the largest estimate is halved.
    """
    import heapq

    heap = []
    for a, b in zip(edges, edges[1:]):
        value, err = _kronrod(f, a, b)
        heap.append((-err, a, b, value))
    heapq.heapify(heap)
    total = math.fsum(piece[3] for piece in heap)
    total_err = -math.fsum(piece[0] for piece in heap)
    while total_err > max(_EPSABS, _EPSREL * abs(total)) and len(heap) < _QUAD_LIMIT:
        neg_err, a, b, value = heap[0]
        mid = 0.5 * (a + b)
        if not a < mid < b:  # the worst piece is as narrow as floats allow
            break
        heapq.heappop(heap)
        for lo, hi in ((a, mid), (mid, b)):
            part, part_err = _kronrod(f, lo, hi)
            heapq.heappush(heap, (-part_err, lo, hi, part))
            total += part
            total_err += part_err
        total -= value
        total_err += neg_err
    return math.fsum(piece[3] for piece in heap), -math.fsum(piece[0] for piece in heap)


def homodyne_angle_average(alpha: float, Delta: float) -> float:
    """Gaussian average I(alpha, Delta) of the sharp homodyne sign response.

    The integrand is ``erf(sqrt(2) alpha cos(lambda))`` times the Gaussian of
    width ``Delta``, integrated over a 12-sigma window by an in-house
    adaptive Gauss-Kronrod (7/15) rule.  Breakpoints sit at every sign flip
    of cos(lambda) in the window and at +-1, +-3 and +-10 widths
    1/(sqrt(2) alpha) of its erf step either side of each.  Raises
    :class:`ConvergenceError` if the estimated error exceeds 1e-9, or if the
    breakpoints alone exceed the piece limit (Delta above ~37.3; from ~36 up
    the pieces left for bisection no longer suffice), rather than
    silently returning a truncated result.  ``Delta == 0`` is the exact
    point-mass branch ``erf(sqrt(2) alpha)``, and so is a subnormal
    ``Delta`` (below ``sys.float_info.min``), whose Gaussian peak would
    overflow the quadrature while the average differs from the point mass
    by ~(alpha Delta)^2.  A non-finite or non-positive
    ``alpha``, or a non-finite or negative ``Delta``, raises ``ValueError``.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    if not (math.isfinite(Delta) and Delta >= 0.0):
        raise ValueError(f"Delta must be finite and >= 0, got {Delta!r}")
    if Delta < _TINY:  # a subnormal width's peak 1/(Delta sqrt(2 pi)) overflows
        return erf(_SQRT_2 * alpha)
    window = 12.0 * Delta
    # sign flips (k + 1/2) pi < window, k >= 0; min() keeps ceil() finite
    flips = max(0, math.ceil(min(window / math.pi - 0.5, _QUAD_LIMIT)))
    if 2 * flips * len(_FLIP_OFFSETS) + 1 > _QUAD_LIMIT:
        raise ConvergenceError(
            f"homodyne-angle average did not converge: alpha={alpha}, Delta={Delta}, "
            f"its {2 * flips} sign flips need more than {_QUAD_LIMIT} pieces"
        )
    width = 1.0 / (_SQRT_2 * alpha)
    points = {
        s * (k + 0.5) * math.pi + d * width
        for k in range(flips) for s in (-1.0, 1.0) for d in _FLIP_OFFSETS
    }
    edges = [-window, *sorted(p for p in points if -window < p < window), window]
    scale, norm = _SQRT_2 * alpha, 1.0 / (Delta * math.sqrt(2.0 * math.pi))
    cos, exp = math.cos, math.exp

    def integrand(lam: float) -> float:
        u = lam / Delta
        return norm * exp(-0.5 * u * u) * erf(scale * cos(lam))

    value, est_err = _adaptive(integrand, edges)
    if est_err > _QUAD_TOL:
        raise ConvergenceError(
            f"homodyne-angle average did not converge: alpha={alpha}, Delta={Delta}, "
            f"estimated error {est_err:g} > {_QUAD_TOL:g}"
        )
    return value
