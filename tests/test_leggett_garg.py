"""Tests for the spin-j parity correlations and the four-time combination.

Oracle: the two-time correlation of a maximally mixed spin-j probed by
projective parity measurements, built from ladder operators and
scipy.linalg.expm — Tr[Q U Q U^dag] / (2j+1).
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from coarsebell import kernels
from coarsebell.leggett_garg import (
    J_MAX,
    SpinParams,
    corr_nonclassical,
    corr_spin_parity,
    spin_parity_correlator,
)
from coarsebell.optimize import LgTimes, lg_function
from coarsebell.oracles import corr_spin_parity_quad, gauss_hermite
from reference_oracles import parity_operator


def spin_x(j: float) -> np.ndarray:
    dim = int(round(2 * j)) + 1
    m = np.arange(-j, j + 0.5)
    jx = np.zeros((dim, dim))
    for i in range(dim - 1):
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
        amp = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
        jx[i + 1, i] += 0.5 * amp
        jx[i, i + 1] += 0.5 * amp
    return jx


def sequential_parity_oracle(tau: float, j: float, omega: float) -> float:
    """Projective parity at time 0 and tau on the maximally mixed state."""
    q = parity_operator(j)
    u = scipy.linalg.expm(-1j * omega * tau * spin_x(j))
    val = np.trace(q @ u @ q @ u.conj().T) / (2 * j + 1)
    assert abs(val.imag) < 1e-12
    return float(val.real)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0])
def test_parity_squares_to_identity(j):
    q = parity_operator(j)
    dim = int(round(2 * j)) + 1
    assert q.shape == (dim, dim)
    assert np.allclose(q @ q, np.eye(dim), atol=0.0)
    assert set(np.diagonal(q)) <= {1.0, -1.0}
    # parity alternates along the projection ladder
    diag = np.diagonal(q)
    assert all(a == -b for a, b in zip(diag, diag[1:]))


@pytest.mark.parametrize("j,diag", [(0.5, [-1.0, 1.0]), (1.0, [1.0, -1.0, 1.0])], ids=["half", "one"])
def test_parity_is_minus_one_to_the_power_j_minus_m(j, diag):
    # m runs from -j up to j, so the last entry, m = j, is +1 for every j
    assert list(np.diagonal(parity_operator(j))) == diag


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_sharp_correlation_matches_sequential_projection_oracle(j):
    params = SpinParams(j=j, omega=1.3)
    for tau in np.linspace(0.0, 5.0, 21):
        got = corr_spin_parity(float(tau), params)
        want = sequential_parity_oracle(float(tau), j, 1.3)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0])
@pytest.mark.parametrize("Delta", [0.0, 0.3, 1.0])
def test_closed_sum_matches_quadrature(j, Delta):
    params = SpinParams(j=j, omega=1.0, Delta=Delta)
    # frequencies reach 2j, so the rule order must grow with j * Delta
    order = 96 if j * Delta > 2.0 else 48
    rule = gauss_hermite(order)
    for tau in (0.0, 0.4, 1.1, 2.7):
        closed = corr_spin_parity(tau, params)
        quad = corr_spin_parity_quad(tau, params, rule=rule)
        assert closed == pytest.approx(quad, abs=1e-10)


@pytest.mark.parametrize("j, Delta", [(0.5, 0.3), (2.5, 0.2), (7.5, 0.05)])
def test_spin_quadrature_defaults_to_forty_nodes(j, Delta):
    params = SpinParams(j=j, omega=1.0, Delta=Delta)
    rule = gauss_hermite(40)
    for tau in (0.0, 0.4, 1.1, 2.7):
        assert corr_spin_parity_quad(tau, params) == corr_spin_parity_quad(tau, params, rule=rule)


def test_spin_half_reduces_to_damped_cosine():
    params = SpinParams(j=0.5, omega=2.0, Delta=0.4)
    for tau in (0.0, 0.3, 1.9):
        want = math.exp(-0.5 * 0.4 ** 2) * math.cos(2.0 * tau)
        assert corr_spin_parity(tau, params) == pytest.approx(want, abs=1e-14)


def test_correlation_is_periodic_in_the_precession_period():
    params = SpinParams(j=2.5, omega=1.7, Delta=0.2)
    period = 2.0 * math.pi / 1.7
    for tau in (0.1, 0.9, 2.2):
        assert corr_spin_parity(tau + period, params) == pytest.approx(
            corr_spin_parity(tau, params), abs=1e-12
        )


def test_nonclassical_correlation_ignores_spin_size():
    taus = np.linspace(0.0, 6.0, 13)
    base = [corr_nonclassical(float(t), SpinParams(j=0.5, Delta=0.6)) for t in taus]
    for j in (1.0, 2.5, 4.0):
        other = [corr_nonclassical(float(t), SpinParams(j=j, Delta=0.6)) for t in taus]
        assert other == base
    for t, v in zip(taus, base):
        assert v == pytest.approx(math.exp(-0.18) * math.cos(float(t)), abs=1e-15)


def test_lg_function_combines_four_times():
    params = SpinParams(j=1.0, omega=1.0, Delta=0.1)
    c = lambda tau: corr_spin_parity(tau, params)  # noqa: E731
    times = LgTimes(gaps=(0.3, 0.5, 0.9))
    want = c(0.3) + c(0.5) + c(0.9) - c(1.7)
    assert lg_function(c, times) == pytest.approx(want, abs=1e-15)


def test_times_validation():
    with pytest.raises(ValueError):
        LgTimes(gaps=(0.1, -0.2, 0.3))
    with pytest.raises(ValueError):
        LgTimes(gaps=(0.1, 0.2))


def test_times_accept_zero_gaps():
    # coinciding measurement times are allowed; only a negative gap is refused
    assert LgTimes(gaps=(0.0, 0.5, 0.0)).gaps == (0.0, 0.5, 0.0)
    assert LgTimes(gaps=(0.0, 0.0, 0.0)).gaps == (0.0, 0.0, 0.0)


def test_spin_params_validation():
    with pytest.raises(ValueError):
        SpinParams(j=0.3)
    with pytest.raises(ValueError):
        SpinParams(j=0.0)
    with pytest.raises(ValueError):
        SpinParams(j=0.5, omega=0.0)
    with pytest.raises(ValueError):
        SpinParams(j=0.5, Delta=-0.1)
    # near-half-integers are normalised, not rejected
    assert SpinParams(j=1.0 + 1e-12).j == 1.0


def test_a_spin_whose_double_overflows_is_refused_by_name():
    # 2j is infinite here, which has no integer to round to
    for j in (1e308, 1.7e308, -1e308):
        for call in (SpinParams, parity_operator):
            with pytest.raises(ValueError, match="j must be a positive integer or half-integer"):
                call(j)


def test_larger_spins_decay_faster_under_smearing():
    Delta = math.sqrt(0.3)
    tau = 0.35
    vals = [
        corr_spin_parity(tau, SpinParams(j=j, Delta=Delta)) for j in (0.5, 1.0, 2.5)
    ]
    assert vals[0] > vals[1] > vals[2]


def spin_parity_per_call(tau: float, params: SpinParams) -> float:
    """The correlator as it was computed before its terms were cached per params."""
    m = params.magnetic_numbers()
    damping = np.exp(-2.0 * (m * params.Delta) ** 2)
    return float(np.sum(damping * np.cos(2.0 * m * params.omega * tau))) / (2.0 * params.j + 1.0)


@pytest.mark.parametrize("j", [0.5, 2.5, 7.0, 50.0])
@pytest.mark.parametrize("omega,Delta", [(1.0, 0.0), (0.37, 0.2), (13.0, 1.1)])
def test_spin_parity_equals_the_per_call_formula_bit_for_bit(j, omega, Delta):
    params = SpinParams(j=j, omega=omega, Delta=Delta)
    for tau in [0.0, 0.1, 0.77, 2.5, 6.2, 40.0, -3.0]:
        assert corr_spin_parity(tau, params) == spin_parity_per_call(tau, params)
        # an equal params object built separately gives the same value
        assert corr_spin_parity(tau, SpinParams(j=j, omega=omega, Delta=Delta)) == corr_spin_parity(
            tau, params
        )


def test_a_spin_series_arrays_are_read_only():
    series = spin_parity_correlator(SpinParams(j=3.5, omega=0.6, Delta=0.3))
    for field in (series.damping, series.freq):
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0


def test_the_sector_terms_are_computed_once_per_configuration(monkeypatch):
    kernels.bound.cache_clear()
    computed = []
    magnetic_numbers = SpinParams.magnetic_numbers

    def counting(params):
        computed.append(params)
        return magnetic_numbers(params)

    monkeypatch.setattr(SpinParams, "magnetic_numbers", counting)
    values = {corr_spin_parity(0.9, SpinParams(j=4.5, omega=0.7, Delta=0.35)) for _ in range(100)}
    series = spin_parity_correlator(SpinParams(j=4.5, omega=0.7, Delta=0.35))
    assert values == {series(0.9)}
    assert len(computed) == 1


def sampled_rows(n: int) -> np.ndarray:
    """Every gap of a 512-point grid; of a larger one the first and last 64 and every 29th.

    The grid's product is one flat array, so a value could depend on its
    position only through its SIMD lane or the array's end: each block of 64
    consecutive rows holds every lane, and both ends are in.
    """
    if n <= 512:
        return np.arange(n)
    return np.r_[0:64, 64:n - 64:29, n - 64:n]


@pytest.mark.parametrize("n", [512, 2048, 8192])
@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 7.5, 35.0, 50.0, 256.0])
def test_the_series_samples_a_grid_with_the_bits_of_its_calls(j, n):
    for V, omega in itertools.product([0.0, 0.01, 0.3, 1.2, 30.0], [1e-4, 1.0, 100.0]):
        series = spin_parity_correlator(SpinParams(j=j, omega=omega, Delta=math.sqrt(V)))
        taus = np.arange(n) * (2.0 * math.pi / omega) / n
        rows = sampled_rows(n)
        calls = np.array([series(tau) for tau in taus[rows].tolist()])
        assert np.array_equal(series.sample(taus)[rows], calls)


def test_spin_has_a_documented_limit():
    assert SpinParams(j=J_MAX).j == 256.0
    for j in (J_MAX + 0.5, 1e6):
        with pytest.raises(ValueError, match="J_MAX = 256"):
            SpinParams(j=j)
