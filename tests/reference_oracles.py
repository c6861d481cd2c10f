"""Reference oracles that only the unit tests call.

Each rebuilds a program correlator, or a piece of one, the long way, so
that the tests can check the closed forms against it: the generic model's
single-party responses f_delta and g_delta and its two Gaussian angle
averages by quadrature, the first-principles rebuild of the unit-efficiency
ECS correlation from position wavefunctions, and the spin parity
observable.  The oracles that the acceptance criteria and the benchmark
reach stay in ``coarsebell.oracles``, whose quadrature these share.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from coarsebell.generic import GenericParams, _smeared_signs, fuzzy_detector_correlator
from coarsebell.leggett_garg import _check_spin
from coarsebell.oracles import QuadratureRule, angle_average, gauss_hermite

_SQRT_2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# generic two-party model


def f_delta(n: int, theta: float, params: GenericParams) -> float:
    """Even part of the single-party response for carried value ``n`` (may be negative)."""
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    s_pos, s_neg = _smeared_signs(n, params.delta)
    c, s = math.cos(theta), math.sin(theta)
    return c * c * s_pos + s * s * s_neg


def g_delta(n: int, theta: float, params: GenericParams) -> float:
    """Odd (interference) part of the single-party response, n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s_pos, s_neg = _smeared_signs(n, params.delta)
    return math.sin(theta) * math.cos(theta) * (s_pos - s_neg)


def corr_coarse_reference_quad(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Same quantity as ``generic.corr_coarse_reference``, by 2-D quadrature.

    Averages the sharp correlation ``-cos 2(pa + pb)`` over independent
    Gaussian angle offsets on both sides (order 40 per axis by default).
    The closed form and this integral agree to well under 1e-9.
    """
    if rule is None:
        rule = gauss_hermite(40)
    return angle_average(
        lambda pa, pb: -math.cos(2.0 * (pa + pb)), (theta_a, theta_b), params.Delta, rule
    )


def corr_combined(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Correlation with both coarsenings active.

    The 2-D Gaussian angle average (width ``Delta`` per party, order 40 per
    axis by default) of the detector-fuzzy correlator.  Degenerates to the
    single-mechanism branches when either width vanishes.
    """
    if rule is None:
        rule = gauss_hermite(40)
    corr = fuzzy_detector_correlator(params)
    return angle_average(corr, (theta_a, theta_b), params.Delta, rule)



# ---------------------------------------------------------------------------
# entangled coherent states: first-principles rebuild


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

    plus, minus = half(0.0, span), half(-span, 0.0)
    return plus - minus, plus + minus


def oracle_ecs_quadrature(theta_a: float, theta_b: float, alpha: float) -> float:
    """Independent rebuild of the unit-efficiency ECS correlation from scratch.

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

    numer = denom = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    w = psi[i, j] * np.conj(psi[k, l])
                    numer += float(np.real(w * sign_m[k, i] * sign_m[l, j]))
                    denom += float(np.real(w * overlap_m[k, i] * overlap_m[l, j]))
    return numer / denom



# ---------------------------------------------------------------------------
# precessing spin


def parity_operator(j: float) -> np.ndarray:
    """Dichotomic parity observable in the m = -j..j projection basis."""
    j = _check_spin(j)
    m = np.arange(-j, j + 0.5)
    signs = np.where(np.round(j - m).astype(int) % 2 == 0, 1.0, -1.0)
    return np.diag(signs)
