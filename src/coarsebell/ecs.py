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
lambda of an erf-shaped sharp response; it tends to erf(sqrt(2) alpha) as
Delta -> 0.  The integral is evaluated by adaptive Gauss-Kronrod quadrature
with a guard excluding the removable singularity of the printed integrand at
cos(lambda) = 0.

``oracle_ecs_quadrature`` rebuilds the efficiency-free correlation from
first principles - coherent-state position wavefunctions, sign-probability
integrals, cross-term overlaps and all - as an independent check on the
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import erf

import numpy as np

from .kernels import require_finite

__all__ = [
    "EcsParams",
    "ConvergenceError",
    "corr_ecs_efficiency",
    "corr_ecs_reference",
    "corr_ecs_homodyne_angle",
    "homodyne_angle_average",
    "oracle_ecs_quadrature",
]

_SQRT_2 = math.sqrt(2.0)
_COS_GUARD = 1e-8
_QUAD_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """Raised when the adaptive quadrature cannot certify the target accuracy."""


@dataclass(frozen=True)
class EcsParams:
    """Coherent amplitude ``alpha`` plus the coarsening knobs ``eta``/``Delta``."""

    alpha: float
    eta: float = 1.0
    Delta: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {self.Delta}")


def _overlap_denominator(alpha: float) -> float:
    # 1 + e^{-4 alpha^2}; the exponential underflows harmlessly to 0 for
    # large alpha, which is the correct limit.
    return 1.0 + math.exp(-4.0 * alpha * alpha)


def corr_ecs_efficiency(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """Correlation with detector efficiency ``eta`` (sharp references).

    Amplitude ``erf(sqrt(2 eta) alpha)^2 / (1 + e^{-4 alpha^2})``; increasing
    either ``eta`` or ``alpha`` drives it towards 1, so inefficiency can be
    compensated by amplitude.
    """
    e = erf(math.sqrt(2.0 * params.eta) * params.alpha)
    amp = e * e / _overlap_denominator(params.alpha)
    return amp * math.cos(2.0 * (theta_a - theta_b))


def corr_ecs_reference(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """Correlation with Gaussian-smeared rotation references (unit efficiency).

    The smearing multiplies the sharp amplitude by ``e^{-4 Delta^2}``,
    independent of ``alpha`` once the erf factor saturates.
    """
    e = erf(_SQRT_2 * params.alpha)
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    amp = damping * e * e / _overlap_denominator(params.alpha)
    return amp * math.cos(2.0 * (theta_a - theta_b))


def _homodyne_integrand(lam: float, alpha: float, Delta: float) -> float:
    c = math.cos(lam)
    if abs(c) < _COS_GUARD:
        return 0.0
    kernel = math.exp(-lam * lam / (2.0 * Delta * Delta)) / (Delta * math.sqrt(2.0 * math.pi))
    response = alpha * c * erf(math.sqrt(alpha * alpha * (1.0 + math.cos(2.0 * lam))))
    return kernel * response / math.sqrt(alpha * alpha * c * c)


@lru_cache(maxsize=1024)
def homodyne_angle_average(alpha: float, Delta: float) -> float:
    """Gaussian average I(alpha, Delta) of the sharp homodyne sign response.

    Evaluated by adaptive Gauss-Kronrod quadrature over a 12-sigma window
    with breakpoints at the sign flips of cos(lambda); raises
    :class:`ConvergenceError` if the estimated error exceeds 1e-9 rather
    than silently returning a truncated result.  ``Delta == 0`` is the exact
    point-mass branch ``erf(sqrt(2) alpha)``.
    """
    if Delta == 0.0:
        return erf(_SQRT_2 * alpha)
    from scipy import integrate

    window = 12.0 * Delta
    flips = [s * 0.5 * k * math.pi for k in (1, 3, 5, 7) for s in (-1, 1)]
    points = sorted(p for p in flips if -window < p < window)
    value, est_err = integrate.quad(
        _homodyne_integrand,
        -window,
        window,
        args=(alpha, Delta),
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
        points=points or None,
    )
    if est_err > _QUAD_TOL:
        raise ConvergenceError(
            f"homodyne-angle average did not converge: alpha={alpha}, Delta={Delta}, "
            f"estimated error {est_err:g} > {_QUAD_TOL:g}"
        )
    return value


def corr_ecs_homodyne_angle(theta_a: float, theta_b: float, params: EcsParams) -> float:
    """Correlation with a Gaussian-smeared homodyne measurement angle.

    Amplitude ``I(alpha, Delta)^2 / (1 + e^{-4 alpha^2})``.  Unlike the
    efficiency case this degradation cannot be compensated by increasing
    ``alpha``.
    """
    i_val = homodyne_angle_average(params.alpha, params.Delta)
    amp = i_val * i_val / _overlap_denominator(params.alpha)
    return amp * math.cos(2.0 * (theta_a - theta_b))


# ---------------------------------------------------------------------------
# first-principles oracle


_ORACLE_ALPHA_MAX = 10.0
_GL_ORDER = 400


@lru_cache(maxsize=64)
def _half_line_moments(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Sign-weighted and total overlap matrices of the coherent doublet.

    Returns (sign_matrix, overlap_matrix) over the nonorthogonal basis
    (|alpha>, |-alpha>), computed by Gauss-Legendre integration of the
    position wavefunctions  <x|+-alpha> = pi^{-1/4} exp(-(x -+ sqrt(2) alpha)^2 / 2)
    over x > 0 and x < 0 separately.
    """
    x_nodes, x_weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    span = _SQRT_2 * alpha + 12.0

    def wave(x: np.ndarray, sign: float) -> np.ndarray:
        return math.pi ** -0.25 * np.exp(-0.5 * (x - sign * _SQRT_2 * alpha) ** 2)

    def half(lo: float, hi: float) -> np.ndarray:
        x = 0.5 * (hi - lo) * x_nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * x_weights
        out = np.empty((2, 2))
        for i, si in enumerate((1.0, -1.0)):
            for j, sj in enumerate((1.0, -1.0)):
                out[i, j] = float(np.sum(w * wave(x, si) * wave(x, sj)))
        return out

    plus = half(0.0, span)
    minus = half(-span, 0.0)
    return plus - minus, plus + minus


def oracle_ecs_quadrature(theta_a: float, theta_b: float, alpha: float) -> float:
    """Independent rebuild of the unit-efficiency correlation from scratch.

    Expands the ideally rotated two-party state on the nonorthogonal doublet
    {|alpha>, |-alpha>} per party and contracts it against numerically
    integrated sign-probability matrices, keeping every cross-term overlap.
    The party-b rotation sense is chosen so the result carries the same
    ``cos 2(theta_a - theta_b)`` dependence as the closed forms.  Valid for
    ``alpha <= 10`` where the cross-term arithmetic is stable.
    """
    if not 0.0 < alpha <= _ORACLE_ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, {_ORACLE_ALPHA_MAX}] for the oracle, got {alpha}")
    sign_m, overlap_m = _half_line_moments(alpha)

    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(-theta_b), math.sin(-theta_b)
    # coefficient matrix psi[i, j] on (|alpha>, |-alpha>) x (|alpha>, |-alpha>)
    col_a = np.array([[ca, 1j * sa], [1j * sa, ca]], dtype=complex)
    col_b = np.array([[cb, 1j * sb], [1j * sb, cb]], dtype=complex)
    bare = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)  # |aa> + |-a,-a| coefficients
    psi = col_a @ bare @ col_b.T

    numer = 0.0
    denom = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    w = psi[i, j] * np.conj(psi[k, l])
                    numer += float(np.real(w * sign_m[k, i] * sign_m[l, j]))
                    denom += float(np.real(w * overlap_m[k, i] * overlap_m[l, j]))
    return numer / denom
