"""Tests for the platform-agnostic dichotomized magnetization model.

Two independent oracles: a wide brute-force convolution of the sign function
against an unnormalized Gaussian, and a from-scratch reimplementation of the
correlation built only on that brute-force sum.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsebell import kernels
from coarsebell.generic import (
    DELTA_MAX,
    GenericParams,
    _smeared_signs,
    chi,
    corr_coarse_reference,
    corr_fuzzy_detector,
    discrimination_error,
    fuzzy_detector_correlator,
)
from reference_oracles import corr_combined, corr_coarse_reference_quad, f_delta, g_delta

WIDE = 60  # brute-force window, generous for every sigma used below


def smeared_sign_oracle(m: int, delta: float) -> float:
    if delta == 0.0:
        return 1.0 if m >= 1 else -1.0
    num = 0.0
    den = 0.0
    for k in range(-WIDE, WIDE + 1):
        w = math.exp(-k * k / (2.0 * delta * delta))
        num += w * (1.0 if m - k >= 1 else -1.0)
        den += w
    return num / den


def corr_oracle(theta_a: float, theta_b: float, n: int, delta: float) -> float:
    """From-scratch rebuild: joint outcome statistics of the two-party state."""

    def f(sign_n: int, theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        return c * c * smeared_sign_oracle(sign_n * n, delta) + s * s * smeared_sign_oracle(
            -sign_n * n, delta
        )

    def g(theta: float) -> float:
        return (
            math.sin(theta)
            * math.cos(theta)
            * (smeared_sign_oracle(n, delta) - smeared_sign_oracle(-n, delta))
        )

    return 0.5 * (
        f(1, theta_a) * f(-1, theta_b) + f(-1, theta_a) * f(1, theta_b)
    ) + g(theta_a) * g(theta_b)


# ---------------------------------------------------------------------------


def test_chi_is_the_unit_step_sign():
    assert chi(1) == 1
    assert chi(5) == 1
    assert chi(0) == -1
    assert chi(-3) == -1


@pytest.mark.parametrize("delta", [0.3, 1.0, 2.0, 3.0])
def test_smeared_sign_matches_brute_force(delta):
    for n in range(7):
        up, down = _smeared_signs(n, delta)
        assert up == pytest.approx(smeared_sign_oracle(n, delta), abs=1e-12)
        assert down == pytest.approx(smeared_sign_oracle(-n, delta), abs=1e-12)


def per_m_smeared_sign(m: int, delta: float) -> float:
    """One smeared sign at a time: the kernel's weights times chi_{m-k} in the kernel's order, clamped."""
    if delta == 0.0:
        return float(chi(m))
    k_max = max(1, math.ceil(8.0 * delta))
    weights = kernels.discrete_gaussian(delta, k_max).weights.tolist()
    total = 0.0
    for k, w in zip(range(-k_max, k_max + 1), weights, strict=True):
        total += w * chi(m - k)
    return max(-1.0, min(1.0, total))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 60), delta=st.floats(0.0, 6.0))
@example(n=0, delta=0.0)
@example(n=2, delta=math.sqrt(0.050905806377099516))  # +n unclamped reads 0.9999999999999999
@example(n=3, delta=0.2032293670790033)
@example(n=11, delta=1.1914089058252777)  # the clamp acts on both signs
@example(n=49, delta=0.6310682188770933)  # the clamp acts on both signs
def test_both_smeared_signs_keep_the_bits_of_a_per_m_loop(n, delta):
    up, down = _smeared_signs(n, delta)
    assert (up.hex(), down.hex()) == (per_m_smeared_sign(n, delta).hex(), per_m_smeared_sign(-n, delta).hex())
    assert type(up) is type(down) is float


def test_window_follows_the_kernel_alone_so_a_huge_size_costs_nothing(monkeypatch):
    # past the 8-delta window every chi_{+-n-k} is chi(+-n): a huge n reads the same
    # kernel, 16 either side of zero, and gives the same bits as n = ceil(8 delta) + 1
    delta, n = 2.0, 10**12
    windows = []
    discrete_gaussian = kernels.discrete_gaussian

    def recording(sigma, k_max):
        windows.append(k_max)
        return discrete_gaussian(sigma, k_max)

    monkeypatch.setattr(kernels, "discrete_gaussian", recording)
    edge = math.ceil(8.0 * delta) + 1
    assert _smeared_signs(n, delta) == _smeared_signs(edge, delta)
    assert windows == [16, 16]  # one kernel per configuration, for both signs
    # the kernel's weights sum to 1 only within rounding, so this is not bit-equal
    corr = fuzzy_detector_correlator(GenericParams(n=n, delta=delta))
    assert windows == [16, 16, 16]
    for ta, tb in ((0.0, 0.0), (0.3, 1.1), (-2.0, 0.785), (1.3, 2.9)):
        assert corr(ta, tb) == pytest.approx(-math.cos(2.0 * (ta + tb)), abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0])
def test_correlation_matches_independent_rebuild(n, delta):
    rng = np.random.default_rng(20260814)
    params = GenericParams(n=n, delta=delta)
    for _ in range(12):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        got = corr_fuzzy_detector(ta, tb, params)
        assert got == pytest.approx(corr_oracle(ta, tb, n, delta), abs=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_correlation_reduces_to_singlet_form_for_sharp_detector(n):
    rng = np.random.default_rng(7)
    params = GenericParams(n=n)
    for _ in range(20):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        assert corr_fuzzy_detector(ta, tb, params) == -math.cos(2.0 * (ta + tb))


def test_correlation_has_mean_plus_cosine_structure():
    # E = p^2 - q^2 cos 2(ta+tb), with p and q derived from the brute sums
    n, delta = 2, 1.3
    s_pos = smeared_sign_oracle(n, delta)
    s_neg = smeared_sign_oracle(-n, delta)
    p = 0.5 * (s_pos + s_neg)
    q = 0.5 * (s_pos - s_neg)
    params = GenericParams(n=n, delta=delta)
    rng = np.random.default_rng(99)
    for _ in range(10):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        want = p * p - q * q * math.cos(2.0 * (ta + tb))
        assert corr_fuzzy_detector(ta, tb, params) == pytest.approx(want, abs=1e-12)


def test_outcome_distributions_are_normalized_probabilistically():
    # f is a mean of values in [-1, 1], so it stays in [-1, 1]
    params = GenericParams(n=2, delta=0.8)
    for theta in np.linspace(0.0, math.pi, 40):
        for sign in (2, -2):
            assert -1.0 - 1e-12 <= f_delta(sign, float(theta), params) <= 1.0 + 1e-12
    assert abs(g_delta(2, 0.4, params)) <= 1.0


def test_f_delta_rejects_zero_outcome():
    with pytest.raises(ValueError):
        f_delta(0, 0.3, GenericParams(n=1))


# ---------------------------------------------------------------------------
# reference coarsening


@pytest.mark.parametrize("Delta", [0.2, 0.7])
def test_reference_closed_form_matches_quadrature(Delta):
    params = GenericParams(n=1, Delta=Delta)
    rng = np.random.default_rng(3)
    for _ in range(8):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        closed = corr_coarse_reference(ta, tb, params)
        quad = corr_coarse_reference_quad(ta, tb, params)
        assert closed == pytest.approx(quad, abs=1e-9)


def test_reference_coarsening_ignores_outcome_size():
    ta, tb = 0.31, 1.17
    vals = [
        corr_coarse_reference(ta, tb, GenericParams(n=n, Delta=0.6)) for n in (1, 2, 5)
    ]
    assert vals[0] == vals[1] == vals[2]


def test_combined_coarsening_damps_only_the_oscillating_part():
    n, delta, Delta = 2, 1.1, 0.4
    s_pos = smeared_sign_oracle(n, delta)
    s_neg = smeared_sign_oracle(-n, delta)
    p = 0.5 * (s_pos + s_neg)
    q = 0.5 * (s_pos - s_neg)
    damp = math.exp(-4.0 * Delta * Delta)
    params = GenericParams(n=n, delta=delta, Delta=Delta)
    rng = np.random.default_rng(11)
    for _ in range(6):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        want = p * p - q * q * damp * math.cos(2.0 * (ta + tb))
        assert corr_combined(ta, tb, params) == pytest.approx(want, abs=1e-9)


def test_combined_without_reference_noise_equals_fuzzy_detector():
    params = GenericParams(n=1, delta=0.5)
    assert corr_combined(0.3, 0.9, params) == corr_fuzzy_detector(0.3, 0.9, params)


# ---------------------------------------------------------------------------
# distinguishability


def test_discrimination_error_limits_and_monotonicity():
    assert discrimination_error(1, 0.0) == 0.0
    assert discrimination_error(4, 0.0) == 0.0
    deltas = np.linspace(0.0, 4.0, 17)
    errs = [discrimination_error(1, float(d)) for d in deltas]
    assert all(b >= a - 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] > 0.9
    assert discrimination_error(1, 50.0) > 0.999
    # bigger outcome separation discriminates better at fixed fuzziness
    assert discrimination_error(5, 1.0) < discrimination_error(1, 1.0)


def test_discrimination_error_against_brute_sum():
    for n, delta in ((1, 0.7), (3, 2.0)):
        want = 1.0 - smeared_sign_oracle(n, delta) ** 2
        assert discrimination_error(n, delta) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 50), delta=st.floats(0.0, 10.0))
@example(n=2, delta=math.sqrt(0.050905806377099516))  # unclamped, E = 0.9999999999999998
@example(n=3, delta=0.2032293670790033)  # unclamped, E = 1.0 and the error is 0.0
@example(n=11, delta=1.1914089058252777)  # unclamped, E = 1.0000000000000004, error -4.4e-16
@example(n=49, delta=0.6310682188770933)  # unclamped, E = 1.0000000000000004, error -4.4e-16
def test_smeared_signs_keep_correlations_and_errors_within_their_bounds(n, delta):
    # the renormalised weights can sum an ulp past 1; at a + b = pi/2, E = S^2 + A^2
    assert abs(corr_fuzzy_detector(math.pi / 4, math.pi / 4, GenericParams(n, delta))) <= 1.0
    assert 0.0 <= discrimination_error(n, delta) <= 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        GenericParams(n=0)
    with pytest.raises(ValueError):
        GenericParams(n=-2)
    with pytest.raises(ValueError):
        GenericParams(n=1, delta=-0.1)
    with pytest.raises(ValueError):
        GenericParams(n=1, Delta=-0.5)
    with pytest.raises(ValueError):
        GenericParams(n=1.5)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("delta", [0.0, 0.4, 1.7, 6.0])
def test_fuzzy_detector_is_the_f_g_composition_bit_for_bit(n, delta):
    # the closure is the closed form S^2 - A^2 cos 2(ta + tb), which rounds
    # differently from the f/g composition: equal within 1e-14, not bit for bit
    params = GenericParams(n=n, delta=delta)
    angles = [-2.0, -0.3, 0.0, 0.2, 0.785, 1.3, 2.9, 4.0]
    for ta in angles:
        for tb in angles:
            want = 0.5 * (
                f_delta(n, ta, params) * f_delta(-n, tb, params)
                + f_delta(-n, ta, params) * f_delta(n, tb, params)
                + 2.0 * g_delta(n, ta, params) * g_delta(n, tb, params)
            )
            assert corr_fuzzy_detector(ta, tb, params) == pytest.approx(want, abs=1e-14)


def test_detector_width_has_a_documented_limit():
    GenericParams(n=1, delta=DELTA_MAX)
    for call in (
        lambda: GenericParams(n=1, delta=DELTA_MAX * (1.0 + 1e-12)),
        lambda: GenericParams(n=1, delta=1e150),
        lambda: discrimination_error(1, 2.0 * DELTA_MAX),
    ):
        with pytest.raises(ValueError, match="DELTA_MAX"):
            call()

