"""Tests for the Gaussian-kernel and quadrature primitives, the damping of a
smeared reference, the forms, and the cache through which the three-argument
wrappers bind their factories.

The quadrature oracles are closed-form Gaussian moments and the cosine
characteristic function, both computed without touching the module under
test; the rules are applied by summing their nodes and weights here.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsebell import ecs, generic, kernels, leggett_garg, photon
from coarsebell.ecs import EcsParams
from coarsebell.generic import GenericParams
from coarsebell.kernels import (
    CosineForm,
    CosineSeries,
    DiscreteGaussianWeights,
    Harmonic,
    discrete_gaussian,
    smear_damping,
)
from coarsebell.leggett_garg import SpinParams
from coarsebell.photon import PhotonParams
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
    assert DiscreteGaussianWeights._fields == ("weights",)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert w.weights.shape == (2 * k_max + 1,)
    assert w.weights.tolist() == w.weights[::-1].tolist()


def test_discrete_gaussian_weight_ratios_match_exponential():
    # entry k_max + k holds the weight of offset k
    sigma, k_max = 1.7, 12
    weights = discrete_gaussian(sigma, k_max).weights
    for k in range(0, 8):
        expected = math.exp(-(2 * k + 1) / (2.0 * sigma * sigma))
        assert weights[k_max + k + 1] / weights[k_max + k] == pytest.approx(expected, rel=1e-12)


def test_discrete_gaussian_weight_includes_both_window_edges():
    weights = discrete_gaussian(1.0, 3).weights
    assert weights.shape == (7,)
    assert weights[0] == weights[-1] > 0.0


def test_discrete_gaussian_rejects_aggressive_truncation():
    with pytest.raises(ValueError, match="truncation too aggressive"):
        discrete_gaussian(4.0, 11)  # k_max < 3 sigma


def test_discrete_gaussian_rejects_a_negative_width():
    with pytest.raises(ValueError, match=r"^sigma must be >= 0, got -0\.5$"):
        discrete_gaussian(-0.5, 5)


def test_discrete_gaussian_point_mass():
    # widths below the degeneracy threshold put all mass on offset 0
    for sigma in (0.0, 1e-12):
        weights = discrete_gaussian(sigma, 5).weights
        assert weights.tolist() == [0.0] * 5 + [1.0] + [0.0] * 5


def test_discrete_gaussian_validates_k_max():
    with pytest.raises(ValueError):
        discrete_gaussian(1.0, 0)
    # a float half-width gave half-integer offsets, and True counted as 1
    for k_max in (3.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match="^k_max must be an integer >= 1"):
            discrete_gaussian(1.0, k_max)
    # an unbounded k_max sized two numpy arrays of 2 k_max + 1 entries
    for k_max in (kernels.K_MAX + 1, 10**400):
        with pytest.raises(ValueError, match="^k_max must be <= K_MAX"):
            discrete_gaussian(1.0, k_max)
    assert discrete_gaussian(1.0, kernels.K_MAX).weights.shape == (2 * kernels.K_MAX + 1,)
    weights = discrete_gaussian(1.0, np.int64(4)).weights
    assert weights.tolist() == discrete_gaussian(1.0, 4).weights.tolist()
    assert weights.shape == (9,)


def test_discrete_gaussian_weights_are_read_only():
    w = discrete_gaussian(1.0, 6)
    with pytest.raises(ValueError):
        w.weights[0] = 2.0


# ---------------------------------------------------------------------------
# the CHSH form floor + p cos 2(theta_a - theta_b) + q cos 2(theta_a + theta_b)

FORM_ANGLES = [(0.0, 0.0), (0.3, 2.9), (-1.7, 5.2), (1e6, -3.0)]


def test_cosine_difference_evaluates_its_expression_bit_for_bit():
    for amp in (0.0, 0.37, 1.0):
        form = CosineForm(0.0, amp, 0.0)
        for a, b in FORM_ANGLES:
            assert form(a, b) == amp * math.cos(2.0 * (a - b))
    with pytest.raises(AttributeError, match="frozen"):
        form.p = 0.5


@pytest.mark.parametrize("amp", [-1.0, -5e-324, math.nan, math.inf])
def test_cosine_difference_rejects_a_negative_or_non_finite_amplitude(amp):
    with pytest.raises(ValueError, match=r"^need finite fields, p >= 0 >= q, p or q 0"):
        CosineForm(0.0, amp, 0.0)


def test_cosine_form_evaluates_its_expression_bit_for_bit():
    for floor, p, q in [(0.0, 0.0, 0.0), (0.25, 0.75, -0.0), (0.0, 0.0, -0.37),
                        (-0.25, -0.0, -0.75), (1.0, 0.0, -5e-324)]:
        form = CosineForm(floor, p, q)
        for a, b in FORM_ANGLES:
            if q == 0.0:
                want = floor + p * math.cos(2.0 * (a - b))
            else:
                want = floor + q * math.cos(2.0 * (a + b))
            assert form(a, b).hex() == form.closure(a, b).hex() == want.hex()
    with pytest.raises(AttributeError, match="frozen"):
        form.closure = None


@pytest.mark.parametrize(
    "floor,p,q",
    [(0.0, 0.0, 5e-324), (0.0, 0.0, math.nan), (0.0, 0.0, -math.inf), (math.nan, 1.0, 0.0),
     (-math.inf, 0.0, -1.0), (0.0, 0.5, -0.5), (0.0, 5e-324, -5e-324), (10**400, 0.0, 0.0),
     (0.25, 1.0, 0.0), (-0.25, 0.0, -1.0), (0.0, 1.0000000000000002, 0.0)],
    ids=["q=5e-324", "q=nan", "q=-inf", "floor=nan", "floor=-inf", "p-and-q", "p-and-q-subnormal",
         "floor=10**400", "sum=1.25", "negative-floor-sum=1.25", "p=1+ulp"],
)
def test_cosine_form_rejects_a_field_out_of_range(floor, p, q):
    with pytest.raises(ValueError, match=r"^need finite fields, p >= 0 >= q, p or q 0"):
        CosineForm(floor, p, q)


# each CHSH factory, with a draw of its params from a seeded generator
CHSH_FACTORIES = [
    (ecs.ecs_efficiency_correlator,
     lambda rng: EcsParams(rng.uniform(0.1, 3.0), eta=rng.uniform(0.05, 1.0))),
    (ecs.ecs_reference_correlator,
     lambda rng: EcsParams(rng.uniform(0.1, 3.0), Delta=rng.uniform(0.0, 1.5))),
    (ecs.ecs_homodyne_correlator,
     lambda rng: EcsParams(rng.uniform(0.1, 3.0), Delta=rng.uniform(0.0, 1.5))),
    (generic.fuzzy_detector_correlator,
     lambda rng: GenericParams(rng.randint(1, 6), delta=rng.uniform(0.0, 3.0))),
    (generic.coarse_reference_correlator,
     lambda rng: GenericParams(rng.randint(1, 6), Delta=rng.uniform(0.0, 1.5))),
    (photon.photon_correlator,
     lambda rng: PhotonParams(rng.randint(1, 6), rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.5))),
]


@pytest.mark.parametrize("factory,draw", CHSH_FACTORIES, ids=[row[0].__name__ for row in CHSH_FACTORIES])
def test_every_chsh_factory_form_keeps_the_bits_of_its_old_expression(factory, draw):
    """The ECS forms are amp cos 2(a - b), the others floor - scale cos 2(a + b), bit for bit."""
    rng = random.Random(f"forms:{factory.__name__}")
    for _ in range(20):
        form = factory(draw(rng))
        assert type(form) is CosineForm
        angles = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(20)]
        if factory.__module__ == "coarsebell.ecs":
            amp = form.p
            assert (form.floor, form.q) == (0.0, 0.0) and amp > 0.0
            old = [amp * math.cos(2.0 * (a - b)) for a, b in angles]
        else:
            floor, scale = form.floor, -form.q
            assert form.p == 0.0 and scale > 0.0
            old = [floor - scale * math.cos(2.0 * (a + b)) for a, b in angles]
        assert [form(a, b).hex() for a, b in angles] == [v.hex() for v in old]


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
     (1.0, 0.0, "omega"), (1.0, -2.0, "omega"), (1.0, math.inf, "omega"),
     pytest.param(10**400, 1.0, "amp", id="amp=10**400"),
     pytest.param(1.0, 10**400, "omega", id="omega=10**400")],
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
# the damping of a smeared reference

# every spin sector m of lg-spin up to J_MAX = 256, integer and half-integer
SECTORS = np.arange(-256.0, 256.5, 0.5)
# the odd harmonics n = 2k + 1 of the homodyne series, k up to its largest cut
HARMONICS = range(1, 2 * 244, 2)


@settings(max_examples=200, deadline=None)
@given(
    Delta=st.one_of(
        st.floats(0.0, 3.0),
        st.floats(1e-170, 1e160),
        st.sampled_from([0.0, 5e-324, 1e-160, 1.3e154, 1e300]),
        st.integers(0, 40),
        st.just(10**300),
    )
)
@example(Delta=0.0)
@example(Delta=5e-324)  # the smallest subnormal: every square underflows to 0
@example(Delta=1e-160)  # squares in the subnormal range
@example(Delta=1.3e154)  # Delta^2 is finite, (2 Delta)^2 overflows
@example(Delta=1e300)
@example(Delta=3)  # an int width rounds to a float first
@example(Delta=0)  # the built-in float 1.0
def test_smear_damping_has_the_bits_of_each_models_own_damping(Delta):
    # generic-ref, photon and ecs-ref: one analyser angle at each party of cos 2(a +- b)
    width = 2.0 * Delta
    got = smear_damping(width, width)
    assert type(got) is float and got.hex() == math.exp(-4.0 * Delta * Delta).hex()
    # lg-nonclassical: the rotation between two times of the two-level probe
    got = smear_damping(Delta)
    assert type(got) is float and got.hex() == math.exp(-0.5 * Delta * Delta).hex()
    # lg-spin: sector m is a harmonic of order 2m in that rotation
    with np.errstate(over="ignore"):
        want = np.exp(-2.0 * (SECTORS * Delta) ** 2)
    got = smear_damping(2.0 * SECTORS * Delta)
    assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
    # ecs-homodyne: odd harmonic n of the homodyne phase
    for n in (n * Delta for n in HARMONICS):
        got = smear_damping(n)
        assert type(got) is float and got.hex() == math.exp(-0.5 * n * n).hex(), n


# ---------------------------------------------------------------------------
# the three-argument wrappers' cache

ANGLES = ((0.0, 0.0), (0.3, 1.1), (-2.0, 0.785))
GAPS = ((0.0,), (0.9,), (-3.7,))

# module, wrapper, factory, params, the width set to +-0.0, the arguments;
# ``corr_spin_parity`` is not among them: it builds its series per call from
# sector terms that ``leggett_garg._spin_terms`` binds through ``bound``
WRAPPERS = [
    (generic, "corr_fuzzy_detector", "fuzzy_detector_correlator",
     GenericParams(n=2, delta=1.3), "delta", ANGLES),
    (generic, "corr_coarse_reference", "coarse_reference_correlator",
     GenericParams(n=2, Delta=0.4), "Delta", ANGLES),
    (ecs, "corr_ecs_efficiency", "ecs_efficiency_correlator",
     EcsParams(alpha=1.2, eta=0.7), "eta", ANGLES),
    (ecs, "corr_ecs_reference", "ecs_reference_correlator",
     EcsParams(alpha=1.2, Delta=0.3), "Delta", ANGLES),
    (ecs, "corr_ecs_homodyne_angle", "ecs_homodyne_correlator",
     EcsParams(alpha=1.2, Delta=0.3), "Delta", ANGLES),
    (leggett_garg, "corr_nonclassical", "nonclassical_correlator",
     SpinParams(j=2.5, omega=0.7, Delta=0.4), "Delta", GAPS),
]


@pytest.mark.parametrize(
    "module,wrapper,factory,params,width,args_list", WRAPPERS, ids=[row[1] for row in WRAPPERS]
)
def test_a_wrapper_is_its_factory_bound_once_per_configuration(
    module, wrapper, factory, params, width, args_list, monkeypatch
):
    kernels.bound.cache_clear()
    corr_fn, build = getattr(module, wrapper), getattr(module, factory)
    # +0.0 first, so that -0.0 reads the entry +0.0 made
    for p in (params, params._replace(**{width: 0.0}), params._replace(**{width: -0.0})):
        for args in args_list:
            assert corr_fn(*args, p).hex() == build(p)(*args).hex(), (p, args)

    builds = []

    def counting(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(module, factory, counting)
    for _ in range(100):
        corr_fn(*args_list[1], params._replace())
    assert len(builds) == 1


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
