"""Tests for the deterministic multistart maximiser and the CHSH helpers."""

import math

import numpy as np
import pytest

from coarsebell.generic import GenericParams, corr_fuzzy_detector
from coarsebell.leggett_garg import SpinParams, corr_spin_parity
from coarsebell.optimize import (
    ChshSettings,
    Correlator,
    OptimizationResult,
    chsh_value,
    maximize,
    maximize_chsh,
    maximize_lg,
)


def sharp_correlator(n: int = 1) -> Correlator:
    params = GenericParams(n=n)
    return Correlator(fn=lambda a, b: corr_fuzzy_detector(a, b, params), period=math.pi)


def lg_correlator(j: float, V: float) -> Correlator:
    params = SpinParams(j=j, Delta=math.sqrt(V))
    return Correlator(
        fn=lambda tau: corr_spin_parity(tau, params),
        period=2.0 * math.pi,
        kind="lg",
    )


# ---------------------------------------------------------------------------


def test_settings_reduce_modulo_period():
    s = ChshSettings(3.5 * math.pi, -0.25 * math.pi, math.pi, 0.3)
    a, ap, b, bp = s.as_tuple()
    assert a == pytest.approx(0.5 * math.pi)
    assert ap == pytest.approx(0.75 * math.pi)
    assert b == pytest.approx(0.0, abs=1e-15)
    assert bp == 0.3
    for v in s.as_tuple():
        assert 0.0 <= v < math.pi


def test_chsh_value_is_the_three_plus_one_combination():
    corr = sharp_correlator()
    s = ChshSettings(0.1, 0.7, 0.4, 1.2)
    want = corr(0.1, 0.4) + corr(0.7, 0.4) + corr(0.1, 1.2) - corr(0.7, 1.2)
    assert chsh_value(corr, s) == pytest.approx(want, abs=1e-15)


def test_repeat_runs_are_bit_identical():
    corr = sharp_correlator()
    r1 = maximize_chsh(corr, starts=16)
    r2 = maximize_chsh(corr, starts=16)
    assert r1.value == r2.value
    assert r1.argmax == r2.argmax
    assert r1.evaluations == r2.evaluations
    assert r1.starts_used == 16


def test_start_count_invariance_on_smooth_objectives():
    corr = sharp_correlator()
    small = maximize_chsh(corr, starts=16)
    large = maximize_chsh(corr, starts=81)
    assert abs(small.value - large.value) <= 1e-8
    lg16 = maximize_lg(lg_correlator(0.5, 0.0), starts=8)
    lg27 = maximize_lg(lg_correlator(0.5, 0.0), starts=27)
    assert abs(lg16.value - lg27.value) <= 1e-8


def test_result_value_is_the_objective_at_argmax():
    corr = sharp_correlator(n=2)
    res = maximize_chsh(corr, starts=16)
    a, ap, b, bp = res.argmax
    recomputed = corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp)
    assert res.value == recomputed
    assert all(0.0 <= v < math.pi for v in res.argmax)
    assert isinstance(res, OptimizationResult)
    assert res.converged
    assert res.evaluations > 0


def test_known_two_dimensional_maximum_is_found():
    def f(x):
        return math.sin(2.0 * x[0]) + math.cos(2.0 * (x[1] - 0.3))

    res = maximize(f, d=2, period=math.pi, starts=9)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.argmax[0] == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert res.argmax[1] == pytest.approx(0.3, abs=1e-6)


def test_beats_a_fine_grid_search():
    def f(x):
        return math.sin(2.0 * x[0]) + math.cos(2.0 * (x[1] - 0.3))

    h = math.pi / 64.0
    grid_best = max(
        f((i * h, k * h)) for i in range(64) for k in range(64)
    )
    res = maximize(f, d=2, period=math.pi, starts=9)
    assert res.value >= grid_best - 1e-8
    # a smooth maximum can exceed the grid by at most ~ |f''| h^2 per axis
    assert res.value <= grid_best + 2 * 2 * (2.0 * h) ** 2


def test_one_dimensional_and_single_start():
    res = maximize(lambda x: math.sin(2.0 * x[0]), d=1, period=math.pi, starts=1)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.argmax[0] == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert res.starts_used == 1


def test_degenerate_maxima_resolve_deterministically():
    # cos(4x) peaks at both 0 and pi/2 inside one period
    runs = [maximize(lambda x: math.cos(4.0 * x[0]), d=1, period=math.pi, starts=4) for _ in range(3)]
    assert len({r.argmax for r in runs}) == 1
    assert runs[0].value == pytest.approx(1.0, abs=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        maximize(lambda x: 0.0, d=0)
    with pytest.raises(ValueError):
        maximize(lambda x: 0.0, d=1, period=0.0)
    with pytest.raises(ValueError):
        maximize(lambda x: 0.0, d=1, starts=0)


def test_lg_maximum_for_the_two_level_case():
    res = maximize_lg(lg_correlator(0.5, 0.0), starts=27)
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
    # equal-gap optimum; both mirror-image optima sit at cos(g) = 1/sqrt(2)
    g1, g2, g3 = res.argmax
    assert g1 == pytest.approx(g2, abs=1e-5)
    assert g2 == pytest.approx(g3, abs=1e-5)
    assert math.cos(g1) == pytest.approx(math.sqrt(0.5), abs=1e-5)


def test_correlator_dataclass_metadata_defaults():
    c = Correlator(fn=lambda a, b: 0.0)
    assert c.period == math.pi
    assert c.kind == "chsh"
    assert c(0.1, 0.2) == 0.0


def test_optimizer_tracks_evaluation_count():
    calls = []

    def f(x):
        calls.append(x)
        return -((x[0] - 1.0) ** 2)

    res = maximize(f, d=1, period=4.0, starts=2)
    assert res.evaluations == len(calls)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.argmax[0] == pytest.approx(1.0, abs=1e-5)
