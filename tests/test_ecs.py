"""Tests for the entangled-coherent-state correlations.

oracle_ecs_quadrature rebuilds the unit-efficiency correlation from position
wavefunctions; the homodyne-angle average is cross-checked by a piecewise
trapezoid integration written here with scipy.special.erf only, at large
alpha by a composite Gauss-Legendre rule written here with math.erf, and
across every branch of its series by a 40-digit mpmath reference.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special

from coarsebell.ecs import (
    EcsParams,
    corr_ecs_efficiency,
    corr_ecs_homodyne_angle,
    corr_ecs_reference,
    homodyne_angle_average,
)
from coarsebell.oracles import _half_line_moments, oracle_ecs_quadrature

ANGLES = (0.0, 0.55, 2.1)


def trapezoid_average_oracle(alpha: float, Delta: float, pts_per_seg: int = 400_001) -> float:
    """Piecewise trapezoid over the sign flips of cos(lambda)."""
    window = 12.0 * Delta
    flips = sorted(
        p for k in (1, 3, 5, 7) for p in (k * math.pi / 2, -k * math.pi / 2)
        if -window < p < window
    )
    edges = [-window] + flips + [window]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        lam = np.linspace(lo, hi, pts_per_seg)
        kernel = np.exp(-(lam ** 2) / (2.0 * Delta ** 2)) / (Delta * math.sqrt(2.0 * math.pi))
        response = np.sign(np.cos(lam)) * scipy.special.erf(
            np.sqrt(alpha * alpha * (1.0 + np.cos(2.0 * lam)))
        )
        total += np.trapezoid(kernel * response, lam)
    return float(total)


# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        EcsParams(alpha=0.0)
    with pytest.raises(ValueError):
        EcsParams(alpha=-1.0)
    with pytest.raises(ValueError):
        EcsParams(alpha=2.0, eta=1.5)
    with pytest.raises(ValueError):
        EcsParams(alpha=2.0, Delta=-0.1)


def test_the_homodyne_average_refuses_a_zero_amplitude():
    with pytest.raises(ValueError, match=r"^alpha must be finite and > 0, got 0\.0$"):
        homodyne_angle_average(0.0, 0.3)


def test_half_line_moments_resolve_the_overlap_structure():
    alpha = 1.2
    sign_m, overlap_m = _half_line_moments(alpha)
    # completeness: integrating over the whole line recovers the Gram matrix
    assert overlap_m[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert overlap_m[1, 1] == pytest.approx(1.0, abs=1e-10)
    assert overlap_m[0, 1] == pytest.approx(math.exp(-2.0 * alpha * alpha), abs=1e-10)
    assert overlap_m[0, 1] == pytest.approx(overlap_m[1, 0], abs=1e-12)
    # sign response of each coherent lobe
    assert sign_m[0, 0] == pytest.approx(scipy.special.erf(math.sqrt(2.0) * alpha), abs=1e-10)
    assert sign_m[1, 1] == pytest.approx(-scipy.special.erf(math.sqrt(2.0) * alpha), abs=1e-10)
    # the symmetric cross lobe has zero net sign
    assert sign_m[0, 1] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
def test_closed_form_matches_wavefunction_oracle(alpha):
    params = EcsParams(alpha=alpha, eta=1.0)
    for ta in ANGLES:
        for tb in ANGLES:
            got = corr_ecs_efficiency(ta, tb, params)
            assert got == pytest.approx(oracle_ecs_quadrature(ta, tb, alpha), abs=1e-6)


def test_the_oracle_holds_at_its_largest_amplitude():
    # alpha = 10 is accepted, and the integration span still holds each lobe's whole mass there
    sign_m, overlap_m = _half_line_moments(10.0)
    assert overlap_m[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert sign_m[0, 0] == pytest.approx(1.0, abs=1e-10)
    want = corr_ecs_efficiency(0.55, 2.1, EcsParams(alpha=10.0, eta=1.0))
    assert oracle_ecs_quadrature(0.55, 2.1, 10.0) == pytest.approx(want, abs=1e-6)


def test_oracle_rejects_unstable_amplitudes():
    with pytest.raises(ValueError):
        oracle_ecs_quadrature(0.1, 0.2, 30.0)
    with pytest.raises(ValueError):
        oracle_ecs_quadrature(0.1, 0.2, 0.0)


def test_correlation_is_separable_in_the_angle_difference():
    params = EcsParams(alpha=2.0, eta=0.4)
    base = corr_ecs_efficiency(0.2, 0.0, params)
    amp = base / math.cos(2.0 * 0.2)
    rng = np.random.default_rng(5)
    for _ in range(15):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        want = amp * math.cos(2.0 * (ta - tb))
        assert corr_ecs_efficiency(ta, tb, params) == pytest.approx(want, abs=1e-12)
        got_ref = corr_ecs_reference(ta, tb, EcsParams(alpha=2.0, Delta=0.3))
        assert got_ref == pytest.approx(
            corr_ecs_reference(ta + 0.4, tb + 0.4, EcsParams(alpha=2.0, Delta=0.3)),
            abs=1e-12,
        )


def test_amplitude_grows_with_alpha_at_low_efficiency():
    vals = [
        corr_ecs_efficiency(0.0, 0.0, EcsParams(alpha=a, eta=0.05)) for a in (5.0, 10.0, 30.0)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_reference_and_efficiency_forms_agree_at_their_sharp_points():
    # Delta = 0 reference coarsening and eta = 1 efficiency are the same
    # physical situation computed through two unrelated formulas
    rng = np.random.default_rng(17)
    for alpha in (0.9, 2.5, 7.0):
        p_ref = EcsParams(alpha=alpha, Delta=0.0)
        p_eff = EcsParams(alpha=alpha, eta=1.0)
        for _ in range(6):
            ta, tb = rng.uniform(0.0, math.pi, size=2)
            assert corr_ecs_reference(ta, tb, p_ref) == pytest.approx(
                corr_ecs_efficiency(ta, tb, p_eff), abs=1e-12
            )


# ---------------------------------------------------------------------------
# homodyne-angle coarsening


def test_homodyne_average_sharp_branch_and_small_width_limit():
    alpha = 3.0
    sharp = homodyne_angle_average(alpha, 0.0)
    assert sharp == pytest.approx(scipy.special.erf(math.sqrt(2.0) * alpha), abs=1e-14)
    near = homodyne_angle_average(alpha, 1e-3)
    assert near == pytest.approx(sharp, abs=1e-5)


@pytest.mark.parametrize("alpha", [1e-300, 1.0, 1e300])
def test_homodyne_average_of_a_subnormal_width_is_the_point_mass(alpha):
    # below the smallest normal float the average is the point mass erf(s),
    # which it differs from by < Delta^2 / 4
    sharp = homodyne_angle_average(alpha, 0.0)
    for Delta in (3e-309, 5e-324):
        assert homodyne_angle_average(alpha, Delta) == sharp
    assert homodyne_angle_average(alpha, sys.float_info.min) == pytest.approx(sharp, abs=1e-15)


def test_homodyne_average_matches_trapezoid_oracle():
    got = homodyne_angle_average(5.0, 0.3)
    assert got == pytest.approx(trapezoid_average_oracle(5.0, 0.3), abs=1e-7)


def test_homodyne_average_handles_wide_smearing_and_large_alpha():
    # the window spans many sign flips of cos(lambda); the series sums 7 damped harmonics
    val = homodyne_angle_average(30.0, 1.0)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(trapezoid_average_oracle(30.0, 1.0), abs=1e-6)


def test_homodyne_correlation_sharp_limit_equals_efficiency_form():
    rng = np.random.default_rng(23)
    for alpha in (1.5, 5.0):
        p_hom = EcsParams(alpha=alpha, Delta=0.0)
        p_eff = EcsParams(alpha=alpha, eta=1.0)
        for _ in range(5):
            ta, tb = rng.uniform(0.0, math.pi, size=2)
            assert corr_ecs_homodyne_angle(ta, tb, p_hom) == pytest.approx(
                corr_ecs_efficiency(ta, tb, p_eff), abs=1e-12
            )


def mpmath_average(alpha: float, Delta: float) -> float:
    """I(alpha, Delta) at 40 digits, from mpmath's own Bessel values or the square wave.

    Below alpha = 1e150 it sums the odd-harmonic series with
    ``mpmath.besseli`` until a term falls below 1e-40.  Above, erf(s cos
    lambda) is sign(cos lambda) to within ~1/alpha^2 < 1e-300, and the
    average of that square wave is summed directly: over the intervals
    between sign flips when Delta < 1, else as its Fourier series.
    """
    mp = mpmath.mp
    with mp.workdps(40):
        a, D = mp.mpf(alpha), mp.mpf(Delta)
        if alpha < 1e150:
            x = a * a
            scale = 2 * mp.sqrt(2) * a / mp.sqrt(mp.pi) * mp.exp(-x)
            terms, k, low = [], 0, mp.besseli(0, x)
            while True:
                high = mp.besseli(k + 1, x)
                term = scale * (low + high) / (2 * k + 1) * mp.exp(-((2 * k + 1) * D) ** 2 / 2)
                terms.append(-term if k % 2 else term)
                if k > 5 and abs(term) < mp.mpf(10) ** -40:
                    return float(mp.fsum(terms))
                k, low = k + 1, high
        if Delta < 1.0:
            edges = range(-int(40 * D / mp.pi) - 2, int(40 * D / mp.pi) + 2)
            return float(mp.fsum((-1) ** n * (mp.ncdf((n + 0.5) * mp.pi / D) - mp.ncdf((n - 0.5) * mp.pi / D))
                                 for n in edges))
        return float(4 / mp.pi * mp.fsum((-1) ** k * mp.exp(-((2 * k + 1) * D) ** 2 / 2) / (2 * k + 1)
                                         for k in range(40)))


# The branches of homodyne_angle_average: Miller's recurrence up to alpha = 25,
# tiny alpha whose square is subnormal or 0 included, Hankel's expansion above,
# the saturated region, which returns 1.0, and widths whose average underflows.
MPMATH_POINTS = [
    (1e-300, 0.5), (1e-300, 100.0), (1e-160, 0.5), (1e-9, 0.3), (1e-5, 1.0), (0.1, 0.01),
    (0.5, 0.3), (1.0, 1.0), (2.0, 0.05), (3.0, 1e-3), (5.0, 0.2828), (5.0, 0.8),
    (10.0, 2.0), (10.0, 10.0), (10.0, 100.0), (10.0, 1e308), (24.0, 0.12), (26.0, 0.12),
    (30.0, 0.1), (30.0, 0.4899), (100.0, 0.13), (1000.0, 0.5), (1e300, 0.13), (1e300, 1.0),
    (1e300, 100.0), (1e300, 1e308),
]


@pytest.mark.parametrize("alpha,Delta", MPMATH_POINTS)
def test_homodyne_average_matches_a_40_digit_reference(alpha, Delta):
    # relative, so a tiny average is held to its own scale and one that underflows must be 0.0
    got, ref = homodyne_angle_average(alpha, Delta), mpmath_average(alpha, Delta)
    assert abs(got - ref) <= 1e-15 * abs(ref), (got, ref)


def test_homodyne_average_and_correlation_stay_within_one():
    # |erf| < 1 bounds both; the quadrature this replaced returned
    # I = 1 + 2e-16 at alpha = 5, 10 and 30 with V = 1e-4 and 0.01
    for alpha in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        for V in (10.0 ** e for e in range(-6, 5)):
            average = homodyne_angle_average(alpha, math.sqrt(V))
            assert abs(average) <= 1.0, (alpha, V, average)
            correlation = corr_ecs_homodyne_angle(0.0, 0.0, EcsParams(alpha=alpha, Delta=math.sqrt(V)))
            assert abs(correlation) <= 1.0, (alpha, V, correlation)


def gauss_legendre_average(alpha: float, Delta: float, order: int = 20) -> float:
    """Composite Gauss-Legendre rule for I(alpha, Delta) with ``math.erf``.

    Panels are half an erf width 1/(sqrt(2) alpha) wide within 8 widths of
    each sign flip of cos(lambda), where the response steps, and Delta/8
    wide elsewhere, where it is +-1 and only the Gaussian varies.
    """
    window = 12.0 * Delta
    width = 1.0 / (math.sqrt(2.0) * alpha)
    flips = [
        s * (k + 0.5) * math.pi
        for k in range(int(window / math.pi) + 1)
        for s in (-1.0, 1.0)
        if (k + 0.5) * math.pi < window
    ]
    cuts = {-window, window}
    cuts.update(p + d for p in flips for d in (-8.0 * width, 8.0 * width) if -window < p + d < window)
    edges = sorted(cuts)
    x, w = np.polynomial.legendre.leggauss(order)
    pieces = []
    for a, b in zip(edges, edges[1:]):
        near = any(abs(0.5 * (a + b) - p) < 8.0 * width for p in flips)
        step = 0.5 * width if near else Delta / 8.0
        panel = np.linspace(a, b, max(1, math.ceil((b - a) / step)) + 1)
        lo, hi = panel[:-1, None], panel[1:, None]
        lam = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        response = np.array([math.erf(math.sqrt(2.0) * alpha * c) for c in np.cos(lam).ravel()])
        kernel = np.exp(-0.5 * (lam / Delta) ** 2) / (Delta * math.sqrt(2.0 * math.pi))
        pieces.append(math.fsum((0.5 * (hi - lo) * w * kernel * response.reshape(lam.shape)).ravel()))
    return math.fsum(pieces)


@pytest.mark.parametrize("alpha", [300.0, 1000.0])
@pytest.mark.parametrize("Delta", [0.3, 0.5, 3.0])
def test_homodyne_average_resolves_narrow_erf_steps(alpha, Delta):
    # the erf step at each sign flip is only 1/(sqrt(2) alpha) wide
    assert abs(homodyne_angle_average(alpha, Delta) - gauss_legendre_average(alpha, Delta)) <= 1e-14


def test_homodyne_correlation_decays_with_smearing():
    alpha = 5.0
    vals = [
        corr_ecs_homodyne_angle(0.0, 0.0, EcsParams(alpha=alpha, Delta=D))
        for D in (0.0, 0.3, 0.6, 1.0)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.99
    assert vals[-1] < 0.7
