"""Tests for the Gaussian-kernel and quadrature primitives.

The quadrature oracles are closed-form Gaussian moments and the cosine
characteristic function, both computed without touching the module under
test; the rules are applied by summing their nodes and weights here.
"""

import math

import numpy as np
import pytest

from coarsebell.kernels import (
    CosineDifference,
    CosineSeries,
    DiscreteGaussianWeights,
    Harmonic,
    discrete_gaussian,
)
from coarsebell.oracles import QuadratureRule, _hermite_rule, gauss_hermite


def gaussian_average(f, center: float, sigma: float, rule: QuadratureRule) -> float:
    """sum_i w_i f(center + sqrt(2) sigma x_i), the rule's Gaussian average of f."""
    scale = math.sqrt(2.0) * sigma
    return sum(w * f(center + scale * x) for x, w in zip(rule.nodes, rule.weights))


# ---------------------------------------------------------------------------
# discrete kernel


@pytest.mark.parametrize("sigma,k_max", [(0.4, 4), (1.0, 9), (2.5, 20)])
def test_discrete_gaussian_normalized_and_symmetric(sigma, k_max):
    w = discrete_gaussian(sigma, k_max)
    assert isinstance(w, DiscreteGaussianWeights)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert list(w.offsets) == list(range(-k_max, k_max + 1))
    for k in range(1, k_max + 1):
        assert w.weight(k) == pytest.approx(w.weight(-k), abs=0.0)


def test_discrete_gaussian_weight_ratios_match_exponential():
    sigma = 1.7
    w = discrete_gaussian(sigma, 12)
    for k in range(0, 8):
        expected = math.exp(-(2 * k + 1) / (2.0 * sigma * sigma))
        assert w.weight(k + 1) / w.weight(k) == pytest.approx(expected, rel=1e-12)


def test_discrete_gaussian_rejects_aggressive_truncation():
    with pytest.raises(ValueError, match="truncation too aggressive"):
        discrete_gaussian(4.0, 11)  # k_max < 3 sigma


def test_discrete_gaussian_point_mass():
    # widths below the degeneracy threshold put all mass on offset 0
    for sigma in (0.0, 1e-12):
        w = discrete_gaussian(sigma, 5)
        assert list(w.offsets) == list(range(-5, 6))
        assert w.weight(0) == 1.0
        assert float(np.abs(w.weights).sum()) == 1.0


def test_discrete_gaussian_validates_k_max():
    with pytest.raises(ValueError):
        discrete_gaussian(1.0, 0)


def test_discrete_gaussian_weights_are_read_only():
    w = discrete_gaussian(1.0, 6)
    with pytest.raises(ValueError):
        w.weights[0] = 2.0


# ---------------------------------------------------------------------------
# the form amp cos 2(theta_a - theta_b)


def test_cosine_difference_evaluates_its_expression_bit_for_bit():
    for amp in (0.0, 0.37, 1.0):
        form = CosineDifference(amp)
        for a, b in [(0.0, 0.0), (0.3, 2.9), (-1.7, 5.2), (1e6, -3.0)]:
            assert form(a, b) == amp * math.cos(2.0 * (a - b))
    with pytest.raises(AttributeError, match="frozen"):
        form.amp = 0.5


@pytest.mark.parametrize("amp", [-1.0, -5e-324, math.nan, math.inf])
def test_cosine_difference_rejects_a_negative_or_non_finite_amplitude(amp):
    with pytest.raises(ValueError, match=r"^amp must be finite and >= 0"):
        CosineDifference(amp)


# ---------------------------------------------------------------------------
# the single-gap forms amp cos(omega tau) and sum_h damping_h cos(freq_h tau) / norm


def test_harmonic_evaluates_its_expression_bit_for_bit():
    for amp, omega in [(0.0, 1.0), (0.37, 1e-4), (1.0, 100.0)]:
        form = Harmonic(amp, omega)
        for tau in (0.0, 0.3, -1.7, 1e6):
            assert form(tau) == amp * math.cos(omega * tau)
    with pytest.raises(AttributeError, match="frozen"):
        form.omega = 0.5


@pytest.mark.parametrize(
    "amp,omega,field",
    [(-1.0, 1.0, "amp"), (math.nan, 1.0, "amp"), (math.inf, 1.0, "amp"),
     (1.0, 0.0, "omega"), (1.0, -2.0, "omega"), (1.0, math.inf, "omega")],
)
def test_harmonic_rejects_a_negative_or_non_finite_field(amp, omega, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        Harmonic(amp, omega)


def test_cosine_series_evaluates_its_expression_bit_for_bit():
    damping, freq = np.array([0.25, 1.0, 0.5]), np.array([-3.0, 0.0, 3.0])
    form = CosineSeries(damping, freq, 3.0, 2.0 * math.pi / 1.5)
    for tau in (0.0, 0.3, -1.7, 1e6):
        assert form(tau) == float(np.add.reduce(damping * np.cos(freq * tau))) / 3.0
    taus = np.array([0.0, 0.3, -1.7, 1e6])
    assert np.array_equal(form.sample(taus), [form(tau) for tau in taus.tolist()])
    with pytest.raises(AttributeError, match="frozen"):
        form.norm = 1.0


# ---------------------------------------------------------------------------
# Gauss-Hermite rules


def test_gauss_hermite_weights_sum_to_one():
    for order in (1, 2, np.int64(7), 32, 128):
        rule = gauss_hermite(order)
        assert isinstance(rule, QuadratureRule)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert rule.order == order


def test_gauss_hermite_rejects_out_of_range_orders():
    for bad in (0, -3, 129, 1000):
        with pytest.raises(ValueError):
            gauss_hermite(bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="order must be an integer"):
            gauss_hermite(bad)


def test_gaussian_moments_are_integrated_exactly():
    # order-N rule integrates polynomials up to degree 2N-1; for a standard
    # normal the even moments are the double factorials (2m-1)!!
    rule = gauss_hermite(6)
    sigma = 0.8
    for m, dfact in ((1, 1.0), (2, 3.0), (3, 15.0), (4, 105.0), (5, 945.0)):
        got = gaussian_average(lambda t: t ** (2 * m), 0.0, sigma, rule)
        assert got == pytest.approx(dfact * sigma ** (2 * m), rel=1e-12)
    odd = gaussian_average(lambda t: t ** 7, 0.0, sigma, rule)
    assert odd == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("Delta", [0.1, 0.5, 1.0, 2.0])
def test_cosine_characteristic_function_identity(m, Delta):
    """E[cos(2m(c + Delta xi))] = cos(2mc) exp(-2 m^2 Delta^2) for xi ~ N(0,1).

    The required order grows like omega^2 with omega = 2 sqrt(2) m Delta, so
    the internal uncapped rule is used for the extreme combinations.
    """
    omega = 2.0 * math.sqrt(2.0) * m * Delta
    order = max(24, int(math.e * omega * omega / 8.0 * 1.3) + 16)
    rule = _hermite_rule(order)
    center = 0.37
    got = gaussian_average(lambda t: math.cos(2.0 * m * t), center, Delta, rule)
    want = math.cos(2.0 * m * center) * math.exp(-2.0 * m * m * Delta * Delta)
    assert got == pytest.approx(want, abs=1e-12)


def test_characteristic_function_identity_with_negative_frequency():
    rule = _hermite_rule(64)
    got = gaussian_average(lambda t: math.cos(-6.0 * t), 0.9, 0.5, rule)
    want = math.cos(-6.0 * 0.9) * math.exp(-0.5 * 36.0 * 0.25)
    assert got == pytest.approx(want, abs=1e-12)
