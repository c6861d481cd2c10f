"""Tests for the deterministic multistart maximiser and the CHSH helpers."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coarsebell.generic import GenericParams, corr_fuzzy_detector
from coarsebell import optimize
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


# ---------------------------------------------------------------------------
# Leggett-Garg: global maximum from the max-plus grid


def spin_parity_samples(j: float, V: float, n: int) -> np.ndarray:
    """C(tau) = 1/(2j+1) sum_m exp(-2 m^2 V) cos(2 m tau) on n points of [0, 2 pi)."""
    m = np.arange(-j, j + 0.5)
    tau = np.arange(n) * (2.0 * math.pi / n)
    return np.cos(2.0 * np.multiply.outer(tau, m)) @ np.exp(-2.0 * m * m * V) / (2.0 * j + 1.0)


def grid_lower_bound(c: np.ndarray, rows: int = 256) -> float:
    """max over grid gaps of C[i] + C[k] + C[l] - C[i + k + l], a value K attains.

    For a total s of the first two gaps, the best third gap l gives
    D[s] = max_l C[l] - C[s + l]; the maximum is then max C[i] + C[k] + D[i + k].
    """
    n = len(c)
    c2 = np.concatenate((c, c))
    d = np.empty(n)
    for s0 in range(0, n, rows):
        shifted = np.lib.stride_tricks.sliding_window_view(c2, n)[s0:s0 + rows]
        d[s0:s0 + rows] = np.max(c[None, :] - shifted, axis=1)
    d2 = np.concatenate((d, d))
    best = -math.inf
    for i0 in range(0, n, rows):
        d_shifted = np.lib.stride_tricks.sliding_window_view(d2, n)[i0:i0 + rows]
        best = max(best, float(np.max(c[i0:i0 + rows, None] + c[None, :] + d_shifted)))
    return best


@pytest.mark.parametrize("block_rows", [1, 5, 64])
def test_maxplus_convolution_matches_the_plain_loop(monkeypatch, block_rows):
    n = 37
    monkeypatch.setattr(optimize, "_LG_BLOCK_BYTES", 8 * n * block_rows)
    rng = np.random.default_rng(7)
    # one decimal place makes ties between k common; the smallest k wins
    x, y = np.round(rng.normal(size=(2, n)), 1)
    out, arg = optimize._maxplus(x, y)
    for s in range(n):
        sums = [x[k] + y[(s - k) % n] for k in range(n)]
        assert out[s] == max(sums)
        assert arg[s] == sums.index(max(sums))


@pytest.mark.parametrize("V", [0.0, 0.01, 0.05])
@pytest.mark.parametrize("j", [2.5, 7.5, 35.0, 50.0])
def test_lg_maximum_reaches_the_grid_maximum(j, V):
    grid = grid_lower_bound(spin_parity_samples(j, V, 2048))
    res = maximize_lg(lg_correlator(j, V))
    assert res.value >= grid - 1e-12
    assert res.value <= 2.0 * math.sqrt(2.0) + 1e-12
    assert res.converged


@pytest.mark.parametrize("V", [0.0, 0.05, 0.3, math.log(2.0), 1.5])
def test_lg_maximum_of_spin_half_is_the_closed_form(V):
    res = maximize_lg(lg_correlator(0.5, V))
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-V / 2.0), abs=1e-12)
    assert res.converged


def test_lg_evaluations_count_every_correlator_call():
    params = SpinParams(j=2.5, Delta=math.sqrt(0.05))
    calls = 0

    def counted(tau):
        nonlocal calls
        calls += 1
        return corr_spin_parity(tau, params)

    res = maximize_lg(Correlator(fn=counted, period=2.0 * math.pi, kind="lg"))
    assert res.evaluations == calls
    assert 1 <= res.starts_used <= 3


def test_lg_reruns_are_bit_identical_and_ignore_starts():
    corr = lg_correlator(7.5, 0.01)
    runs = [maximize_lg(corr, starts=s) for s in (None, None, 1, 64)]
    assert len({(r.value, r.argmax, r.evaluations, r.converged) for r in runs}) == 1
    g1, g2, g3 = runs[0].argmax
    assert all(0.0 <= g < 2.0 * math.pi for g in runs[0].argmax)
    assert runs[0].value == corr(g1) + corr(g2) + corr(g3) - corr(g1 + g2 + g3)


@pytest.mark.parametrize("starts", [0, -2])
def test_lg_rejects_fewer_than_one_start(starts):
    with pytest.raises(ValueError, match="starts must be >= 1"):
        maximize_lg(lg_correlator(0.5, 0.0), starts=starts)


def test_lg_correlator_without_finite_bandwidth_stops_at_the_grid_cap():
    # |cos| has harmonics of every even order, so no grid resolves it
    res = maximize_lg(Correlator(fn=lambda tau: abs(math.cos(tau)), period=2.0 * math.pi, kind="lg"))
    assert not res.converged
    assert res.evaluations >= 8192
    # the kink of |cos 3g| at g = pi/6 is the maximum: K = 3 cos(pi/6)
    assert res.value == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: maximize_chsh(Correlator(fn=lambda a, b: math.nan), starts=1),
        lambda: maximize(lambda x: math.inf if x[0] > 1.0 else 0.0, d=1, starts=2),
        lambda: maximize_lg(Correlator(fn=lambda tau: math.nan, kind="lg")),
        lambda: maximize_lg(
            Correlator(fn=lambda tau: -math.inf if tau > 3.0 else math.cos(tau), kind="lg")
        ),
    ],
    ids=["chsh-nan", "maximize-inf", "lg-nan", "lg-minus-inf"],
)
def test_non_finite_objective_values_raise_a_value_error(call):
    with pytest.raises(ValueError, match=r"not finite: (nan|inf|-inf)"):
        call()


# ---------------------------------------------------------------------------
# The in-house simplex against scipy's Nelder-Mead, the oracle


def scipy_nelder_mead(f, x0, maxiter, maxfev, monkeypatch):
    """Points scipy's Nelder-Mead evaluates, its x and its success flag.

    ``numpy.argsort`` is made stable for the run: scipy's default sort is
    unstable, and its order of tied values depends on the numpy build.
    """
    from scipy.optimize import minimize

    argsort = np.argsort
    calls = []

    def recorded(x):
        point = tuple(x.tolist())
        calls.append(point)
        return f(point)

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
        res = minimize(
            recorded,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options=dict(xatol=optimize._XATOL, fatol=optimize._FATOL, maxiter=maxiter, maxfev=maxfev),
        )
    return calls, tuple(res.x.tolist()), bool(res.success)


def own_nelder_mead(f, x0, maxiter, maxfev):
    calls = []

    def recorded(point):
        assert type(point) is tuple and all(type(v) is float for v in point)
        calls.append(point)
        return f(point)

    x, ok = optimize._nelder_mead(recorded, x0, maxiter=maxiter, maxfev=maxfev)
    return calls, x, ok


def bits(points):
    """Exact, sign-of-zero aware form of a list of points."""
    return [tuple(v.hex() for v in p) for p in points]


def assert_same_run(f, x0, monkeypatch, maxiter, maxfev):
    want_calls, want_x, want_ok = scipy_nelder_mead(f, x0, maxiter, maxfev, monkeypatch)
    got_calls, got_x, got_ok = own_nelder_mead(f, x0, maxiter, maxfev)
    assert bits(got_calls) == bits(want_calls)
    assert bits([got_x]) == bits([want_x])
    assert got_ok == want_ok


def negated_chsh(system: str, params: dict):
    from coarsebell import sweep

    sysdef = sweep.SYSTEMS[system]
    merged = sweep._validate_params(system, {k: v for k, v in params.items() if k != sysdef.variable})
    corr = sweep._correlator(sysdef, merged, params.get(sysdef.variable, sysdef.variable_default))

    def f(x):
        a, ap, b, bp = x
        return -(corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp))

    return f


CHSH_CASES = {
    "generic-ref": {"n": 2, "V": 0.3},
    "generic-delta": {"n": 2, "V": 0.7},
    "ecs-eta": {"alpha": 3.0, "eta": 0.8},
    "photon": {"n": 2, "eta": 0.9, "V": 0.2},
}


@pytest.mark.parametrize("system", sorted(CHSH_CASES))
def test_simplex_replays_scipy_from_every_chsh_lattice_start(system, monkeypatch):
    f = negated_chsh(system, CHSH_CASES[system])
    axis = [(i + 0.5) * math.pi / 3 for i in range(3)]
    for x0 in itertools.product(axis, repeat=4):
        assert_same_run(f, x0, monkeypatch, maxiter=4000 * 4, maxfev=8000 * 4)


@pytest.mark.parametrize("x0", [(0.3,), (0.0,), (-2.0,)])
def test_simplex_replays_scipy_in_one_dimension(x0, monkeypatch):
    assert_same_run(lambda x: -math.sin(2.0 * x[0]), x0, monkeypatch, maxiter=4000, maxfev=8000)


@pytest.mark.parametrize("maxfev", [3, 5, 6, 7, 11, 16, 19])
def test_simplex_stops_where_scipy_does_on_the_evaluation_cap(maxfev, monkeypatch):
    # from these starts the next call after the cap is: a vertex of the
    # initial simplex (3), a reflection (5 on), an expansion after its
    # reflection (6 on), an inside contraction (16), an outside one (19)
    f = negated_chsh("generic-delta", CHSH_CASES["generic-delta"])
    axis = [(i + 0.5) * math.pi / 3 for i in range(3)]
    for x0 in itertools.islice(itertools.product(axis, repeat=4), 0, 81, 8):
        assert_same_run(f, x0, monkeypatch, maxiter=16000, maxfev=maxfev)
    assert not own_nelder_mead(f, (0.5, 0.5, 0.5, 0.5), 16000, maxfev)[2]


def test_simplex_stops_where_scipy_does_inside_a_shrink(monkeypatch):
    # from the first lattice start, the 18th ecs-eta call is the first
    # vertex of a shrink, so a cap of 18 stops the shrink after one vertex
    f = negated_chsh("ecs-eta", CHSH_CASES["ecs-eta"])
    assert_same_run(f, (math.pi / 6,) * 4, monkeypatch, maxiter=16000, maxfev=18)


@pytest.mark.parametrize("maxiter", [1, 2, 9])
def test_simplex_stops_where_scipy_does_on_the_iteration_cap(maxiter, monkeypatch):
    f = negated_chsh("generic-ref", CHSH_CASES["generic-ref"])
    assert_same_run(f, (0.5, 1.5, 2.5, 0.5), monkeypatch, maxiter=maxiter, maxfev=32000)
    assert not own_nelder_mead(f, (0.5, 1.5, 2.5, 0.5), maxiter, 32000)[2]


def test_simplex_ties_keep_the_earlier_vertex():
    # a constant objective ties every vertex: the stable order keeps x0 best,
    # and the run converges once shrinks bring every vertex within xatol
    x, ok = optimize._nelder_mead(lambda p: 1.0, (0.4, 0.7), maxiter=8000, maxfev=16000)
    assert x == (0.4, 0.7)
    assert ok


def test_importing_the_command_line_does_not_import_scipy():
    import coarsebell

    code = (
        "import sys, coarsebell.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coarsebell.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
