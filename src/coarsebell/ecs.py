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
lambda of the sharp response erf(sqrt(2) alpha cos lambda), which tends to
erf(sqrt(2) alpha) as Delta -> 0: a damped odd-harmonic series whose Bessel
coefficients this module computes itself, with no scipy.  Both smeared
references damp their harmonics by ``kernels.smear_damping``, the rule of the
``kernels`` docstring: widths (2 Delta, 2 Delta) for the two reference angles,
and n Delta for the homodyne phase in odd harmonic n.

Each ``ecs_*_correlator(params)`` computes its amplitude, the average
included, once and returns ``(theta_a, theta_b) -> E`` as the
``kernels.CosineForm(0, A, 0)``, whose CHSH maximum 2 sqrt(2) A
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
from itertools import accumulate, count
from math import erf
from operator import mul

from .kernels import CosineForm, Validated, bound, is_finite, require_finite, smear_damping

__all__ = [
    "EcsParams",
    "ecs_efficiency_correlator",
    "ecs_reference_correlator",
    "ecs_homodyne_correlator",
    "corr_ecs_efficiency",
    "corr_ecs_reference",
    "corr_ecs_homodyne_angle",
    "homodyne_angle_average",
]

_SQRT_2 = math.sqrt(2.0)


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


def ecs_efficiency_correlator(params: EcsParams) -> CosineForm:
    """Correlation with detector efficiency ``eta`` (sharp references).

    Amplitude ``erf(sqrt(2 eta) alpha)^2 / (1 + e^{-4 alpha^2})``; increasing
    either ``eta`` or ``alpha`` drives it towards 1, so inefficiency can be
    compensated by amplitude.
    """
    e = erf(math.sqrt(2.0 * params.eta) * params.alpha)
    return CosineForm(0.0, e * e / _overlap_denominator(params.alpha), 0.0)


def ecs_reference_correlator(params: EcsParams) -> CosineForm:
    """Correlation with Gaussian-smeared rotation references (unit efficiency).

    The smearing multiplies the sharp amplitude by ``e^{-4 Delta^2}``,
    independent of ``alpha`` once the erf factor saturates.
    """
    e = erf(_SQRT_2 * params.alpha)
    width = 2.0 * params.Delta
    damping = smear_damping(width, width)
    return CosineForm(0.0, damping * e * e / _overlap_denominator(params.alpha), 0.0)


def ecs_homodyne_correlator(params: EcsParams) -> CosineForm:
    """Correlation with a Gaussian-smeared homodyne measurement angle.

    Amplitude ``I(alpha, Delta)^2 / (1 + e^{-4 alpha^2})``, with the average
    I computed once here.  Unlike the efficiency case this degradation
    cannot be compensated by increasing ``alpha``.
    """
    i_val = homodyne_angle_average(params.alpha, params.Delta)
    return CosineForm(0.0, i_val * i_val / _overlap_denominator(params.alpha), 0.0)


def corr_ecs_efficiency(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_efficiency_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_efficiency_correlator, params).closure(theta_a, theta_b)


def corr_ecs_reference(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_reference_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_reference_correlator, params).closure(theta_a, theta_b)


def corr_ecs_homodyne_angle(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """:func:`ecs_homodyne_correlator` of ``params`` at one pair of angles."""
    return bound(ecs_homodyne_correlator, params).closure(theta_a, theta_b)


# ---------------------------------------------------------------------------
# homodyne-angle average

_SQRT_80 = math.sqrt(80.0)
# Hankel's expansion above, Miller's recurrence below: both take 30-180 us a call at
# alpha = 20-30 on a 2-vCPU Xeon; the recurrence's cost grows as alpha, the expansion's falls.
_HANKEL_ALPHA = 25.0


def _bessel_terms(alpha: float, size: int) -> list[float]:
    """``(2 s / sqrt(pi)) e^-x I_k(x)`` for k < ``size``, with s = sqrt(2) alpha, x = alpha^2."""
    if alpha > _HANKEL_ALPHA:
        # Hankel's expansion (DLMF 10.40.1) to a term < 1e-20: for x > 625, k <= 41 the terms fall
        # from the second on, and DLMF 10.40(iv) bounds the rest by that term times ~e^(k^2/x) < 15.
        u, values = 0.125 / alpha / alpha, []  # u = 1 / (8 x), which never overflows
        for k in range(size):
            term = total = 2.0 / math.pi
            for m in count(1):
                term *= ((2 * m - 1) ** 2 - 4 * k * k) * u / m
                total += term
                if abs(term) <= 1e-20:
                    break
            values.append(total)
        return values
    # Miller's backward recurrence, scaled by e^-x (I_0 + 2 sum I_k) = 1, starts at sqrt(80 x) + 21
    # whatever ``size``: the sum needs all I_k > e^-40 I_0, and e^-x I_k is then off by < e^-40.
    # It never divides by x, so where alpha^2 underflows it gives the linear limit g_0 = 2s/sqrt(pi).
    x, r, ratios = alpha * alpha, 0.0, []
    for k in range(int(_SQRT_80 * alpha + 20.0) + 1, 0, -1):
        r = x / (k + k + x * r)
        ratios.append(r)
    relative = [1.0, *accumulate(reversed(ratios), mul)]
    scale = 2.0 * _SQRT_2 * alpha / math.sqrt(math.pi) / (2.0 * math.fsum(relative) - 1.0)
    return [scale * p for p in relative[:size]]


def homodyne_angle_average(alpha: float, Delta: float) -> float:
    """Gaussian average I(alpha, Delta) of the sharp homodyne sign response.

    By the Jacobi-Anger expansion (DLMF 10.35.3) erf(s cos lambda), s = sqrt(2) alpha, is
    sum_k c_k cos((2k + 1) lambda), c_k = (2s / sqrt(pi)) (-1)^k e^-x [I_k + I_(k+1)](x) / (2k + 1)
    with x = alpha^2, and an angle error of Gaussian width ``Delta`` damps harmonic n by
    ``smear_damping(n Delta)`` = e^(-n^2 Delta^2 / 2).  The sum runs to
    k <= min(sqrt(80 x) + 20, sqrt(80) / (2 Delta) + 2), past which I_k / I_0 ~ e^(-k^2 / 2x)
    or the damping is below e^-40, and agrees with a 40-digit reference within 1e-15.  A non-finite or non-positive ``alpha``, or a non-finite
    or negative ``Delta``, raises ``ValueError``.
    """
    if not (is_finite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha!r}")
    if not (is_finite(Delta) and Delta >= 0.0):
        raise ValueError(f"Delta must be finite and >= 0, got {Delta!r}")
    s = _SQRT_2 * alpha
    if Delta < sys.float_info.min:  # the point mass, off by < Delta^2 / 4 < 2e-616
        return erf(s)
    # the response rounds to 1 across 12 sigma: 1 - I < erfc(s cos 12 Delta) + 4e-33 <~ 1e-16
    if 12.0 * Delta < 0.5 * math.pi and erf(s * math.cos(12.0 * Delta)) == 1.0:
        return 1.0
    # outside that region an alpha > 25 has Delta > 0.1168, so last <= 40
    last = int(min(_SQRT_80 * alpha + 20.0, _SQRT_80 / (2.0 * Delta) + 2.0))
    g = _bessel_terms(alpha, last + 2)
    total = math.fsum((-1) ** k * (g[k] + g[k + 1]) / n * smear_damping(n * Delta)
                      for k, n in enumerate(range(1, last + last + 2, 2)))
    # |erf| < 1 bounds I in [-1, 1]; near saturation the rounded terms can sum an ulp past 1
    return max(-1.0, min(1.0, total))
