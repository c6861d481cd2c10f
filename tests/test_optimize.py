"""Tests for the deterministic multistart maximiser and the CHSH helpers."""

import ast
import itertools
import math
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsebell.generic import GenericParams, corr_fuzzy_detector
from coarsebell import ecs, generic, leggett_garg, optimize, photon, sweep
from coarsebell.kernels import CosineForm, CosineSeries, Harmonic
from coarsebell.leggett_garg import SpinParams, corr_spin_parity
from coarsebell.optimize import (
    ChshSettings,
    Correlator,
    MAX_STARTS,
    NonFiniteObjectiveError,
    OptimizationResult,
    chsh_value,
    maximize_chsh,
    maximize_lg,
)
from coarsebell.sweep import optimized_point


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
    a, ap, b, bp = s
    assert a == pytest.approx(0.5 * math.pi)
    assert ap == pytest.approx(0.75 * math.pi)
    assert b == pytest.approx(0.0, abs=1e-15)
    assert bp == 0.3
    for v in s:
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


def sin_plus_cos(a, b):
    """E(a, b) whose CHSH sum is sin 2a + cos 2(b - 0.3), at most 2: a' and b' drop out."""
    return 0.5 * math.sin(2.0 * a) + 0.5 * math.cos(2.0 * (b - 0.3))


def test_known_two_dimensional_maximum_is_found():
    res = maximize_chsh(sin_plus_cos, starts=16)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.argmax[0] == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert res.argmax[2] == pytest.approx(0.3, abs=1e-6)


def test_beats_a_fine_grid_search():
    def f(a, b):
        return math.sin(2.0 * a) + math.cos(2.0 * (b - 0.3))

    h = math.pi / 64.0
    grid_best = max(
        f(i * h, k * h) for i in range(64) for k in range(64)
    )
    res = maximize_chsh(sin_plus_cos, starts=16)
    assert res.value >= grid_best - 1e-8
    # a smooth maximum can exceed the grid by at most ~ |f''| h^2 per axis
    assert res.value <= grid_best + 2 * 2 * (2.0 * h) ** 2


def test_one_dimensional_and_single_start():
    # the CHSH sum of E = sin(2a) / 2 is sin 2a, a function of one angle
    res = maximize_chsh(lambda a, b: 0.5 * math.sin(2.0 * a), starts=1)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.argmax[0] == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert res.starts_used == 1


def test_degenerate_maxima_resolve_deterministically():
    # the CHSH sum cos 4a peaks at both a = 0 and a = pi/2 inside one period
    runs = [maximize_chsh(lambda a, b: 0.5 * math.cos(4.0 * a), starts=16) for _ in range(3)]
    assert len({r.argmax for r in runs}) == 1
    assert runs[0].value == pytest.approx(1.0, abs=1e-10)


def stub_flagged_simplex(monkeypatch, run):
    """Replace the simplex by ``run(k, x0)`` -> (point, ok) for the k-th run; a run costs one evaluation."""
    starts = []

    def stub(f, x0, maxiter, maxfev, chsh):
        starts.append(x0)
        point, ok = run(len(starts) - 1, x0)
        return point, ok, 1

    monkeypatch.setattr(optimize, "_nelder_mead", stub)
    return starts


def stub_simplex(monkeypatch, run):
    """Replace the simplex by ``run(x0)``, each run meeting its tolerances, recording each start."""
    return stub_flagged_simplex(monkeypatch, lambda k, x0: (run(x0), True))


@pytest.mark.parametrize(
    "starts,per_axis",
    [(1, 1), (2, 1), (15, 2), (16, 2), (39, 2), (40, 3), (None, 3), pytest.param(np.int64(16), 2, id="int64-2")],
)
def test_the_lattice_starts_at_the_cell_midpoints_of_its_period_box(starts, per_axis, monkeypatch):
    # the count per angle is the fourth root of ``starts``, rounded
    runs = stub_simplex(monkeypatch, lambda x0: x0)
    period = 2.0
    res = maximize_chsh(Correlator(fn=lambda a, b: math.cos(2.0 * a - b), period=period), starts)
    axis = [(i + 0.5) * period / per_axis for i in range(per_axis)]
    assert runs[:-1] == list(itertools.product(axis, repeat=4))
    assert runs[-1] == res.argmax  # one more run, from the winner
    assert res.starts_used == per_axis ** 4
    # each run's one evaluation, and the re-evaluation at its point
    assert res.evaluations == 2 * len(runs)


def test_equal_values_go_to_the_lexicographically_smallest_argmax(monkeypatch):
    # every run of a constant correlator ties; each ends at the mirror image
    # of its start, so the later starts end at the smaller points
    runs = stub_simplex(monkeypatch, lambda x0: tuple(-v for v in x0))
    res = maximize_chsh(lambda a, b: 0.25, starts=16)
    first = tuple(-v % math.pi for v in runs[0])
    assert res.value == 0.5
    assert res.argmax == min(tuple(-v % math.pi for v in x0) for x0 in runs) == (math.pi / 4,) * 4
    assert res.argmax < first


@pytest.mark.parametrize("j,V", [(1.0, 0.45), (2.5, 0.2), (7.5, 0.2)])
def test_the_lg_polish_starts_from_a_grid_triple_at_the_grid_maximum_of_k(j, V, monkeypatch):
    series = leggett_garg.spin_parity_correlator(SpinParams(j=j, Delta=math.sqrt(V)))
    runs = stub_simplex(monkeypatch, lambda x0: x0)
    res = maximize_lg(series)
    n, period = optimize._LG_GRID_MIN, series.period  # these series resolve on the first grid
    assert res.evaluations == n + 8 * len(runs)  # each stub run and re-evaluation is 4 calls of C
    c = np.array([series(g * period / n) for g in range(n)])
    # the grid maximum of K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3), written out
    g = np.arange(n)
    pairs = np.max(c[:, None] + c[(g[None, :] - g[:, None]) % n], axis=0)  # pairs[k], g1 + g2 = k
    k_max = np.max(pairs[:, None] + c[None, :] - c[(g[:, None] + g[None, :]) % n])
    steps = [gap * n / period for gap in runs[0]]
    assert steps == [round(step) for step in steps]
    i1, i2, i3 = map(round, steps)
    assert c[i1] + c[i2] + c[i3] - c[(i1 + i2 + i3) % n] == pytest.approx(k_max, abs=1e-12)


def test_each_simplex_run_is_capped_at_4000_iterations_and_8000_evaluations_a_dimension(monkeypatch):
    caps = []

    def stub(f, x0, maxiter, maxfev, chsh):
        caps.append((maxiter, maxfev))
        return x0, True, 1

    monkeypatch.setattr(optimize, "_nelder_mead", stub)
    maximize_chsh(generic.fuzzy_detector_correlator(GenericParams(2, 0.5)))
    assert caps == [(16_000, 32_000)] * 82  # the 81 lattice starts and the polish
    caps.clear()
    maximize_lg(leggett_garg.spin_parity_correlator(SpinParams(j=2.5, Delta=0.3)))
    assert caps == [(12_000, 24_000)] * optimize._LG_POLISHED


@pytest.mark.parametrize("polish_wins", [False, True])
@pytest.mark.parametrize("polish_ok", [False, True])
@pytest.mark.parametrize("winner_ok", [False, True])
def test_lattice_converged_is_the_winning_run_and_a_winning_polish_meeting_their_tolerances(
    winner_ok, polish_ok, polish_wins, monkeypatch
):
    # every point of a constant correlator ties, so the smallest point wins: run 0's
    # (0.1,) * 4 among the lattice runs, whose other 15 carry the opposite flag, then
    # the polish from it wins only when it ends at the smaller (0.05,) * 4
    def run(k, x0):
        if k == 16:
            return ((0.05,) * 4 if polish_wins else x0), polish_ok
        return ((0.1,) * 4, winner_ok) if k == 0 else (x0, not winner_ok)

    starts = stub_flagged_simplex(monkeypatch, run)
    res = maximize_chsh(lambda a, b: 0.25, starts=16)
    assert len(starts) == 17 and starts[-1] == (0.1,) * 4
    assert res.argmax == ((0.05,) * 4 if polish_wins else (0.1,) * 4)
    assert res.converged is (winner_ok and (polish_ok or not polish_wins))


@pytest.mark.parametrize("winner_ok", [False, True])
def test_lg_grid_converged_is_the_winning_polish_meeting_its_tolerances(winner_ok, monkeypatch):
    # every polish ends where run 0 started, so the later runs only tie it and run 0
    # wins; they carry the opposite flag
    series = leggett_garg.spin_parity_correlator(SpinParams(j=2.5, Delta=0.3))
    starts = stub_flagged_simplex(monkeypatch, lambda k, x0: (starts[0], winner_ok is (k == 0)))
    res = maximize_lg(series)
    assert len(starts) >= 2 and res.argmax == tuple(g % series.period for g in starts[0])
    assert res.converged is winner_ok


def test_validation_errors():
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^period must be finite and > 0, got "):
            maximize_chsh(Correlator(fn=lambda a, b: 0.0, period=period))
        with pytest.raises(ValueError, match="^period must be finite and > 0, got "):
            maximize_lg(Correlator(fn=lambda tau: 0.0, period=period, kind="lg"))
    with pytest.raises(ValueError, match="^starts must be >= 1, got 0$"):
        maximize_chsh(lambda a, b: 0.0, starts=0)


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
    # one evaluation is one CHSH sum, four correlator calls; here the sum is -(a - 1)^2
    calls = []

    def corr(a, b):
        calls.append((a, b))
        return -0.5 * (a - 1.0) ** 2

    res = maximize_chsh(Correlator(fn=corr, period=4.0), starts=2)
    assert 4 * res.evaluations == len(calls)
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


def test_a_bare_lg_callable_is_searched_over_the_period_two_pi():
    # a plain function carries no period, so the gaps span [0, 2 pi)
    res = maximize_lg(lambda tau: math.cos(tau))
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert all(0.0 <= g < 2.0 * math.pi for g in res.argmax)
    assert all(math.cos(g) == pytest.approx(math.sqrt(0.5), abs=1e-6) for g in res.argmax)


def test_an_lg_correlator_without_a_period_is_searched_over_two_pi():
    # the default period follows kind; sampled over pi, cos is not periodic and no grid resolves it
    assert Correlator(fn=math.cos).period == math.pi
    assert Correlator(fn=math.cos, kind="lg").period == 2.0 * math.pi
    res = maximize_lg(Correlator(fn=math.cos, kind="lg"))
    assert res == maximize_lg(math.cos)
    assert (res.converged, res.evaluations) == (True, 2064)


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
    runs = [maximize_lg(corr, starts=s) for s in (None, None, 1, 64, MAX_STARTS)]
    assert len({(r.value, r.argmax, r.evaluations, r.converged) for r in runs}) == 1
    g1, g2, g3 = runs[0].argmax
    assert all(0.0 <= g < 2.0 * math.pi for g in runs[0].argmax)
    assert runs[0].value == corr(g1) + corr(g2) + corr(g3) - corr(g1 + g2 + g3)


@pytest.mark.parametrize("starts", [MAX_STARTS + 1, 10**400])
@pytest.mark.parametrize(
    "call",
    [
        lambda starts: maximize_chsh(lambda a, b: 0.0, starts=starts),
        lambda starts: maximize_chsh(sharp_correlator(), starts=starts),
        lambda starts: maximize_lg(lg_correlator(0.5, 0.0), starts=starts),
    ],
    ids=["chsh-function", "chsh", "lg"],
)
def test_start_counts_above_the_limit_are_rejected(call, starts):
    # rejected before any start runs
    with pytest.raises(ValueError, match=f"starts must be <= MAX_STARTS = {MAX_STARTS}"):
        call(starts)


@pytest.mark.parametrize(
    "starts",
    [2.5, 16.0, math.nan, True, False, "16", pytest.param(np.float64(16.0), id="numpy-float64")],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda starts: maximize_chsh(lambda a, b: 0.0, starts=starts),
        lambda starts: maximize_chsh(sharp_correlator(), starts=starts),
        lambda starts: maximize_lg(lg_correlator(0.5, 0.0), starts=starts),
    ],
    ids=["chsh-function", "chsh", "lg"],
)
def test_start_counts_that_are_not_integers_are_rejected(call, starts):
    with pytest.raises(ValueError, match="starts must be an integer, got "):
        call(starts)


@pytest.mark.parametrize("starts", [0, -2])
def test_lg_rejects_fewer_than_one_start(starts):
    with pytest.raises(ValueError, match="starts must be >= 1"):
        maximize_lg(lg_correlator(0.5, 0.0), starts=starts)


def test_lg_correlator_without_finite_bandwidth_stops_at_the_grid_cap():
    # |cos| has harmonics of every even order, so no grid resolves it
    res = maximize_lg(Correlator(fn=lambda tau: abs(math.cos(tau)), period=2.0 * math.pi, kind="lg"))
    assert not res.converged
    assert res.evaluations >= 8192
    c, resolved = optimize._lg_samples(lambda tau: abs(math.cos(tau)), 2.0 * math.pi)
    assert (len(c), resolved) == (optimize._LG_GRID_MAX, False)
    # the kink of |cos 3g| at g = pi/6 is the maximum: K = 3 cos(pi/6)
    assert res.value == pytest.approx(1.5 * math.sqrt(3.0), abs=1e-9)


# At V = 0 spin j's top harmonic has order 2j, so 16 points per period of it
# take 32j points; J_MAX = 256 is the largest spin whose grid fits in 8192.
@pytest.mark.parametrize(
    "j, size", [(16.0, 512), (16.5, 1024), (128.0, 4096), (128.5, 8192), (256.0, 8192)]
)
def test_lg_grid_holds_sixteen_points_per_period_of_the_top_harmonic(j, size):
    series = leggett_garg.spin_parity_correlator(SpinParams(j))
    c, resolved = optimize._lg_samples(series, series.period)
    assert (len(c), resolved) == (size, True)


def test_lg_grid_ignores_a_harmonic_below_its_floor_relative_to_max_abs_c():
    # the floor is 1e-14 * max(1, max|C|) ~ 1e-12, above the 5e-14 coefficient of the
    # cos 200t term, so the first grid resolves C; an absolute 1e-14 floor would not
    def fn(tau):
        return 100.0 * math.cos(tau) + 1e-13 * math.cos(200.0 * tau)

    c, resolved = optimize._lg_samples(fn, 2.0 * math.pi)
    assert (len(c), resolved) == (optimize._LG_GRID_MIN, True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: maximize_chsh(Correlator(fn=lambda a, b: math.nan), starts=1),
        lambda: maximize_chsh(lambda a, b: math.inf if a > 1.0 else 0.0, starts=16),
        lambda: maximize_lg(Correlator(fn=lambda tau: math.nan, kind="lg")),
        lambda: maximize_lg(
            Correlator(fn=lambda tau: -math.inf if tau > 3.0 else math.cos(tau), kind="lg")
        ),
    ],
    ids=["chsh-nan", "chsh-function-inf", "lg-nan", "lg-minus-inf"],
)
def test_non_finite_objective_values_raise_a_value_error(call):
    with pytest.raises(ValueError, match=r"not finite: (nan|inf|-inf)"):
        call()


def test_a_run_whose_reduced_point_is_not_finite_raises():
    # the run climbs to a = 4.1, where E is finite; reduced into [0, pi) its point
    # sits at a = 4.1 - pi, inside the NaN band, so the re-evaluation raises
    def corr(a, b):
        return math.nan if 0.9583 < a < 0.9585 else -0.01 * (a - 4.1) ** 2

    with pytest.raises(NonFiniteObjectiveError, match=r"^objective value is not finite: nan at ") as excinfo:
        maximize_chsh(corr, starts=1)
    point = ast.literal_eval(str(excinfo.value).rpartition(" at ")[2])
    assert point[0] == pytest.approx(4.1 - math.pi, abs=1e-4)
    assert all(0.0 <= x < math.pi for x in point)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_an_objective_that_turns_non_finite_mid_run_is_named_unnegated(bad):
    # the LG polish runs the simplex on the objective itself: after the 512
    # grid samples of C, the first 40 values of K are finite; the simplex
    # minimises the negation, but the error names K's own value at the point
    calls = []

    def turning(tau):
        calls.append(tau)
        return bad if len(calls) == optimize._LG_GRID_MIN + 4 * 40 + 1 else math.cos(tau)

    with pytest.raises(NonFiniteObjectiveError) as excinfo:
        maximize_lg(Correlator(fn=turning, period=2.0 * math.pi, kind="lg"))
    assert len(calls) == optimize._LG_GRID_MIN + 4 * 41
    g1, g2, g3, total = calls[-4:]
    assert total == g1 + g2 + g3
    assert str(excinfo.value) == f"objective value is not finite: {bad!r} at {(g1, g2, g3)!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_correlator_that_turns_non_finite_mid_run_is_named_unnegated(bad):
    # the same in the CHSH form: call 161 is E(a, b) of the 41st point
    corr = sharp_correlator().fn
    calls = []

    def turning(a, b):
        calls.append((a, b))
        return bad if len(calls) == 161 else corr(a, b)

    with pytest.raises(NonFiniteObjectiveError) as excinfo:
        maximize_chsh(turning)
    assert len(calls) == 164
    (a, b), (ap, _), (_, bp), _ = calls[160:]
    assert str(excinfo.value) == f"objective value is not finite: {bad!r} at {(a, ap, b, bp)!r}"


# ---------------------------------------------------------------------------
# The CHSH objective of every sweep row


def spy_on_objectives(monkeypatch):
    """Record each (bare correlator, objective) pair that ``maximize_chsh`` builds."""
    seen = []
    real = optimize._chsh_objective

    def spy(corr):
        objective = real(corr)
        seen.append((corr, objective))
        return objective

    monkeypatch.setattr(optimize, "_chsh_objective", spy)
    return seen


def test_every_chsh_row_gets_the_four_call_objective(monkeypatch):
    seen = spy_on_objectives(monkeypatch)
    rows = [name for name, sysdef in sweep.SYSTEMS.items() if sysdef.kind == "chsh"]
    for system in rows:
        optimized_point(system, {sweep.SYSTEMS[system].variable: 0.7}, starts=1)
    assert len(seen) == len(rows)
    for corr, objective in seen:
        for a, ap, b, bp in [(0.3, 1.1, 2.0, 2.9), (-1.7, 0.0, 0.4, 5.2)]:
            four = corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp)
            assert objective((a, ap, b, bp)) == four


ECS_ROWS = [name for name, sysdef in sweep.SYSTEMS.items() if sysdef.model is ecs.EcsParams]


class LookAlike(CosineForm):
    """The form's shape and call under another type."""


def plain_closure(floor: float, scale: float):
    """``(a, b) -> floor - scale * cos 2(a + b)``, a plain function, constants bound once."""
    cos = math.cos

    def corr(a: float, b: float) -> float:
        return floor - scale * cos(2.0 * (a + b))

    return corr


@pytest.mark.parametrize(
    "corr",
    [
        lambda a, b: 0.8 * math.cos(2.0 * (a - b)),
        plain_closure(0.1, 0.8),
        LookAlike(0.0, 0.8, 0.0),
    ],
    ids=["lambda", "cosine-correlator", "subclass"],
)
def test_the_closed_path_goes_by_type_and_other_callables_run_the_lattice(corr):
    res = maximize_chsh(corr)
    assert res.starts_used == 81
    assert res.evaluations > 1000


@settings(max_examples=3, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([1e-300, 1e300]), st.floats(0.05, 20.0)),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    Delta=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
@example(alpha=1e-300, eta=0.0, Delta=0.0)
@example(alpha=1e300, eta=0.0, Delta=0.0)
@example(alpha=4.655787503742636, eta=1.8018382886e-314, Delta=0.0)  # subnormal amp
@example(alpha=1e-300, eta=0.0, Delta=5e-324)  # subnormal homodyne width
def test_every_ecs_row_takes_the_closed_chsh_maximum(alpha, eta, Delta):
    assert len(ECS_ROWS) == 3
    params = ecs.EcsParams(alpha=alpha, eta=eta, Delta=Delta)
    for system in ECS_ROWS:
        sysdef = sweep.SYSTEMS[system]
        corr = sysdef.correlator(params)
        assert type(corr) is CosineForm and (corr.floor, corr.q) == (0.0, 0.0)
        res = maximize_chsh(Correlator(fn=corr))
        assert (res.evaluations, res.converged, res.starts_used) == (1, True, 0)
        lattice = maximize_chsh(corr.closure)
        assert res.value == pytest.approx(lattice.value, abs=1e-12)
        # below the normal floats rounding is absolute, up to a few subnormal steps
        tsirelson = 2.0 * math.sqrt(2.0) * corr.p
        assert res.value <= tsirelson * (1.0 + 1e-15) + 4.0 * math.ulp(0.0)
        if corr.p == 0.0:
            assert sweep._fmt(res.value) == "0"
        assert repr(maximize_chsh(sysdef.correlator(params))) == repr(res)


# the a+b forms, floor - scale cos 2(a + b): generic-delta, generic-ref, photon
SUM_FORMS = {
    "generic-delta": generic.fuzzy_detector_correlator(GenericParams(n=2, delta=0.8)),
    "generic-ref": generic.coarse_reference_correlator(GenericParams(n=1, Delta=0.3)),
    "photon": photon.photon_correlator(photon.PhotonParams(n=2, eta=0.9, Delta=0.4)),
}


@pytest.mark.parametrize("system", sorted(SUM_FORMS))
def test_an_a_plus_b_form_runs_the_lattice_of_its_plain_closure(system, monkeypatch):
    form = SUM_FORMS[system]
    assert form.p == 0.0 and form.q < 0.0
    want = maximize_chsh(plain_closure(form.floor, -form.q))
    assert want.starts_used == 81

    def refuse(self, theta_a, theta_b):
        raise AssertionError("the lattice called the form, not its closure")

    monkeypatch.setattr(CosineForm, "__call__", refuse)
    res = maximize_chsh(form)
    assert res == want and repr(res) == repr(want)


# a random configuration of each a+b system, as its sweep rows build it
SUM_PARAMS = {
    "generic-delta": st.builds(GenericParams, n=st.integers(1, 10), delta=st.floats(0.0, 3.0)),
    "generic-ref": st.builds(GenericParams, n=st.integers(1, 10), Delta=st.floats(0.0, 2.0)),
    "photon": st.builds(
        photon.PhotonParams, n=st.integers(1, 10), eta=st.floats(0.0, 1.0), Delta=st.floats(0.0, 2.0)
    ),
}


@pytest.mark.parametrize("system", sorted(SUM_PARAMS))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_every_a_plus_b_row_reaches_its_closed_maximum(system, data):
    # floor + q cos 2(a + b), q <= 0, has the CHSH maximum 2 floor - 2 sqrt(2) q
    # (Horodecki's criterion; floor = 0, q = -1 gives Tsirelson's 2 sqrt(2))
    form = sweep.SYSTEMS[system].correlator(data.draw(SUM_PARAMS[system], label="params"))
    assert type(form) is CosineForm and form.p == 0.0
    res = maximize_chsh(form)
    assert res.value == pytest.approx(2.0 * form.floor - 2.0 * math.sqrt(2.0) * form.q, abs=1e-12)
    assert res.converged


@pytest.mark.parametrize(
    "form",
    [
        photon.photon_correlator(photon.PhotonParams(n=3, eta=0.0, Delta=0.2)),  # every photon lost
        generic.coarse_reference_correlator(GenericParams(n=1, Delta=20.0)),  # damping underflows
    ],
    ids=["photon-eta-0", "generic-ref-underflow"],
)
def test_a_constant_form_takes_the_closed_path_with_the_lattice_value(form):
    assert form.p == 0.0 and form.q == 0.0
    res = maximize_chsh(form)
    argmax = (0.0, math.pi / 4, math.pi / 8, 7 * math.pi / 8)
    assert (res.argmax, res.evaluations, res.converged, res.starts_used) == (argmax, 1, True, 0)
    lattice = maximize_chsh(plain_closure(form.floor, -form.q))
    assert res.value.hex() == lattice.value.hex() == (2.0 * form.floor).hex()


def nonclassical_form(omega: float, Delta: float):
    return leggett_garg.nonclassical_correlator(SpinParams(j=0.5, omega=omega, Delta=Delta))


def lg_point(fn, omega: float) -> Correlator:
    """``fn`` in a ``Correlator`` with the period 2 pi / omega."""
    return Correlator(fn=fn, period=2.0 * math.pi / omega, kind="lg")


@settings(max_examples=3, deadline=None)
@given(
    Delta=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    omega=st.floats(leggett_garg.OMEGA_MIN, leggett_garg.OMEGA_MAX),
)
@example(Delta=0.0, omega=1.0)
@example(Delta=40.0, omega=leggett_garg.OMEGA_MIN)  # amp underflows to 0
@example(Delta=38.0, omega=leggett_garg.OMEGA_MAX)  # subnormal amp, exp(-722)
def test_every_nonclassical_point_takes_the_closed_lg_maximum(Delta, omega):
    form = nonclassical_form(omega, Delta)
    assert type(form) is Harmonic
    res = maximize_lg(lg_point(form, omega))
    assert (res.evaluations, res.converged, res.starts_used) == (4, True, 0)
    grid = maximize_lg(lg_point(lambda tau: form(tau), omega))
    assert grid.starts_used >= 1
    assert res.value == pytest.approx(grid.value, abs=1e-12)
    # below the normal floats rounding is absolute, up to a few subnormal steps
    bound = 2.0 * math.sqrt(2.0) * form.amp
    assert res.value <= bound * (1.0 + 1e-15) + 4.0 * math.ulp(0.0)
    if form.amp == 0.0:
        assert sweep._fmt(res.value) == "0"
    assert repr(maximize_lg(lg_point(nonclassical_form(omega, Delta), omega))) == repr(res)


class HarmonicLookAlike(Harmonic):
    """The one-harmonic form's shape and call under another type."""


@pytest.mark.parametrize(
    "corr", [lambda tau: 0.8 * math.cos(tau), HarmonicLookAlike(0.8, 1.0)], ids=["lambda", "subclass"]
)
def test_the_closed_lg_path_goes_by_type_and_other_callables_run_the_grid(corr):
    res = maximize_lg(lg_point(corr, 1.0))
    assert res.starts_used >= 1
    assert res.evaluations > optimize._LG_GRID_MIN
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0) * 0.8, abs=1e-12)


# every j class of the lg-sweep benchmark and of lg_spin.job, j = 1/2 included
@pytest.mark.parametrize("j,V", [(0.5, 0.0), (0.5, 0.3), (1.0, 0.45), (2.5, 0.0), (7.5, 0.2),
                                 (13.5, 0.6), (35.5, 0.25), (50.0, 0.0), (50.0, 0.7)])
def test_a_spin_series_and_a_function_of_its_calls_give_the_same_lg_result(j, V):
    params = SpinParams(j=j, omega=1.0, Delta=math.sqrt(V))
    series = leggett_garg.spin_parity_correlator(params)
    assert type(series) is CosineSeries
    res = maximize_lg(lg_point(series, 1.0))
    calls = maximize_lg(lg_point(lambda tau: series(tau), 1.0))
    assert (res.value, res.argmax, res.evaluations, res.converged) == (
        calls.value, calls.argmax, calls.evaluations, calls.converged
    )


@pytest.mark.parametrize("omega", [1e-4, 0.1, 0.3, 1.0, 3.0, 100.0])
@pytest.mark.parametrize(
    "factory",
    [leggett_garg.nonclassical_correlator, leggett_garg.spin_parity_correlator],
    ids=["harmonic", "series"],
)
def test_a_bare_lg_form_maximises_over_its_own_period(factory, omega):
    # the form carries 2 pi / omega, so no Correlator is needed to give it one
    for j, V in [(0.5, 0.0), (1.0, 0.45), (2.5, 0.2)]:
        form = factory(SpinParams(j=j, omega=omega, Delta=math.sqrt(V)))
        assert form.period == 2.0 * math.pi / omega
        bare = maximize_lg(form)
        wrapped = maximize_lg(lg_point(form, omega))
        assert (bare.value, bare.argmax, bare.evaluations, bare.converged) == (
            wrapped.value, wrapped.argmax, wrapped.evaluations, wrapped.converged
        )
    sharp = maximize_lg(factory(SpinParams(j=0.5, omega=omega)))
    assert sharp.converged
    assert sharp.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# The in-house simplex against scipy's Nelder-Mead, the oracle


def chsh_sum(corr):
    """The CHSH objective of a two-angle correlator, written out here."""

    def objective(x):
        a, ap, b, bp = x
        return corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp)

    return objective


def scipy_nelder_mead(objective, x0, maxiter, maxfev, monkeypatch):
    """Points scipy's Nelder-Mead evaluates minimising -objective, its x and its success flag.

    ``numpy.argsort`` is made stable for the run: scipy's default sort is
    unstable, and its order of tied values depends on the numpy build.
    """
    from scipy.optimize import minimize

    argsort = np.argsort
    calls = []

    def recorded(x):
        point = tuple(x.tolist())
        calls.append(point)
        return -objective(point)

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
        res = minimize(
            recorded,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options=dict(xatol=optimize._XATOL, fatol=optimize._FATOL, maxiter=maxiter, maxfev=maxfev),
        )
    return calls, tuple(res.x.tolist()), bool(res.success)


def own_nelder_mead(f, x0, maxiter, maxfev, chsh=False):
    """Points the in-house run evaluates, its x and its success flag.

    ``f`` is the objective, or with ``chsh`` the correlator of the CHSH
    form, whose four calls per point give the point back.  The run's
    evaluation count must match the points recorded.
    """
    calls = []

    def recorded(*args):
        calls.append(args)
        return f(*args)

    x, ok, evaluations = optimize._nelder_mead(recorded, x0, maxiter, maxfev, chsh)
    if chsh:  # the calls are E(a, b), E(a', b), E(a, b'), E(a', b')
        points = [(a, ap, b, bp) for (a, b), (ap, _), (_, bp), _ in zip(*[iter(calls)] * 4)]
        assert calls == [pair for a, ap, b, bp in points for pair in ((a, b), (ap, b), (a, bp), (ap, bp))]
    else:
        points = [point for point, in calls]
    assert all(type(p) is tuple and all(type(v) is float for v in p) for p in points)
    assert evaluations == len(points)
    return points, x, ok


def bits(points):
    """Exact, sign-of-zero aware form of a list of points."""
    return [tuple(v.hex() for v in p) for p in points]


def assert_same_run(f, x0, monkeypatch, maxiter, maxfev, chsh=False):
    objective = chsh_sum(f) if chsh else f
    want_calls, want_x, want_ok = scipy_nelder_mead(objective, x0, maxiter, maxfev, monkeypatch)
    got_calls, got_x, got_ok = own_nelder_mead(f, x0, maxiter, maxfev, chsh)
    assert bits(got_calls) == bits(want_calls)
    assert bits([got_x]) == bits([want_x])
    assert got_ok == want_ok


def chsh_correlator(system: str, params: dict):
    """The bare correlator of a CHSH sweep point."""
    sysdef = sweep.SYSTEMS[system]
    merged = sweep._validate_params(system, {k: v for k, v in params.items() if k != sysdef.variable})
    value = params.get(sysdef.variable, sysdef.variable_default)
    return sysdef.correlator(sysdef.model_params(merged, value))


CHSH_CASES = {
    "generic-ref": {"n": 2, "V": 0.3},
    "generic-delta": {"n": 2, "V": 0.7},
    "ecs-eta": {"alpha": 3.0, "eta": 0.8},
    "ecs-ref": {"alpha": 5.0, "V": 0.2},
    "ecs-homodyne": {"alpha": 5.0, "V": 0.3},
    "photon": {"n": 2, "eta": 0.9, "V": 0.2},
}
LATTICE = list(itertools.product([(i + 0.5) * math.pi / 3 for i in range(3)], repeat=4))
CHSH_ROWS = sorted(name for name, sysdef in sweep.SYSTEMS.items() if sysdef.kind == "chsh")


@pytest.mark.parametrize("system", CHSH_ROWS)
def test_simplex_replays_scipy_from_every_chsh_lattice_start(system, monkeypatch):
    corr = chsh_correlator(system, CHSH_CASES[system])
    for x0 in LATTICE:
        assert_same_run(corr, x0, monkeypatch, maxiter=4000 * 4, maxfev=8000 * 4, chsh=True)


@pytest.mark.parametrize("x0", [(0.3,), (0.0,), (-2.0,)])
def test_simplex_replays_scipy_in_one_dimension(x0, monkeypatch):
    assert_same_run(lambda x: math.sin(2.0 * x[0]), x0, monkeypatch, maxiter=4000, maxfev=8000)


# The cap tests run both forms: f gets the point's tuple, or the CHSH form
# calls the correlator.


@pytest.mark.parametrize("maxfev", [3, 5, 6, 7, 11, 16, 19, 23])
def test_simplex_stops_where_scipy_does_on_the_evaluation_cap(maxfev, monkeypatch):
    # from these starts the next call after the cap is: a vertex of the
    # initial simplex (3), a reflection (5 on), an expansion after its
    # reflection (6 on), an inside contraction (16, 23), a reflection after
    # one (19, 23), an outside contraction (23)
    corr = chsh_correlator("generic-delta", CHSH_CASES["generic-delta"])
    for f, chsh in [(chsh_sum(corr), False), (corr, True)]:
        for x0 in LATTICE[::8]:
            assert_same_run(f, x0, monkeypatch, maxiter=16000, maxfev=maxfev, chsh=chsh)
        assert not own_nelder_mead(f, (0.5, 0.5, 0.5, 0.5), 16000, maxfev, chsh)[2]


def test_simplex_stops_where_scipy_does_inside_a_shrink(monkeypatch):
    # from the first lattice start, the 18th ecs-eta call is the first
    # vertex of a shrink, so a cap of 18 stops the shrink after one vertex
    corr = chsh_correlator("ecs-eta", CHSH_CASES["ecs-eta"])
    for f, chsh in [(chsh_sum(corr), False), (corr, True)]:
        assert_same_run(f, LATTICE[0], monkeypatch, maxiter=16000, maxfev=18, chsh=chsh)


@pytest.mark.parametrize("maxiter", [1, 2, 9])
def test_simplex_stops_where_scipy_does_on_the_iteration_cap(maxiter, monkeypatch):
    corr = chsh_correlator("generic-ref", CHSH_CASES["generic-ref"])
    for f, chsh in [(chsh_sum(corr), False), (corr, True)]:
        assert_same_run(f, (0.5, 1.5, 2.5, 0.5), monkeypatch, maxiter=maxiter, maxfev=32000, chsh=chsh)
        assert not own_nelder_mead(f, (0.5, 1.5, 2.5, 0.5), maxiter, 32000, chsh)[2]


def lg_polish_starts(system: str, params: dict):
    """The four-time objective of a sweep point and ``maximize_lg``'s grid triples."""
    sysdef = sweep.SYSTEMS[system]
    merged = sweep._validate_params(system, {k: v for k, v in params.items() if k != sysdef.variable})
    corr = sysdef.correlator(sysdef.model_params(merged, params[sysdef.variable]))
    starts = []
    run = optimize._nelder_mead

    def recorded(f, x0, *caps_and_form):
        starts.append(x0)
        return run(f, x0, *caps_and_form)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_nelder_mead", recorded)
        maximize_lg(corr)

    def f(x):
        g1, g2, g3 = x
        return float(corr(g1) + corr(g2) + corr(g3) - corr(g1 + g2 + g3))

    return f, starts


@pytest.mark.parametrize("params", [{"j": 2.5, "V": 0.0}, {"j": 7.5, "V": 0.3}])
@pytest.mark.parametrize("maxfev", [8000 * 3, 9, 30])
def test_simplex_replays_scipy_from_the_lg_polish_starts(params, maxfev, monkeypatch):
    f, starts = lg_polish_starts("lg-spin", params)
    assert len(starts) == 3 and all(len(x0) == 3 for x0 in starts)
    for x0 in starts:
        assert_same_run(f, x0, monkeypatch, maxiter=4000 * 3, maxfev=maxfev)


@pytest.mark.parametrize("x0", [(0.3, 1.2), (0.0, 2.0), (-1.0, 0.0)])
def test_simplex_replays_scipy_in_two_dimensions(x0, monkeypatch):
    def f(x):
        return math.sin(x[0]) * math.cos(2.0 * x[1]) - 0.3 * math.cos(x[0] - x[1])

    assert_same_run(f, x0, monkeypatch, maxiter=4000 * 2, maxfev=8000 * 2)


def periodic_objective(harmonics, coupling: float, step: float):
    """coupling cos(v0 - v_last) + sum of a sin(m v + p), rounded to ``step`` unless it is 0."""

    def f(x):
        value = coupling * math.cos(x[0] - x[-1])
        for (a, m, p), v in zip(harmonics, x):
            value += a * math.sin(m * v + p)
        return step * round(value / step) if step else value

    return f


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 5),
    maxiter=st.integers(1, 200),
    maxfev=st.integers(1, 200),
)
def test_simplex_replays_scipy_on_random_periodic_objectives(data, d, maxiter, maxfev):
    coordinate = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
    x0 = tuple(data.draw(st.lists(coordinate, min_size=d, max_size=d), label="x0"))
    weight = st.floats(0.1, 2.0)
    terms = st.tuples(weight, st.integers(1, 8), st.floats(0.0, 6.0))  # a sin(m v + p)
    harmonics = data.draw(st.lists(terms, min_size=d, max_size=d), label="harmonics")
    coupling = data.draw(weight, label="coupling")
    # a rounded objective has plateaus, whose ties and failed contractions
    # drive the stable order and the shrink step, both rare on smooth ones
    step = data.draw(st.sampled_from([0.0, 0.25]), label="rounding step")
    f = periodic_objective(harmonics, coupling, step)
    assert_same_run(f, x0, pytest.MonkeyPatch(), maxiter=maxiter, maxfev=maxfev)


def test_simplex_replays_scipy_where_every_kept_vertex_holds_a_negative_zero(monkeypatch):
    # a draw of the test above: scipy's centroid sums the kept vertices from
    # +0.0, so where they all hold -0.0 it is +0.0, and so is the third
    # coordinate of the 58th call
    f = periodic_objective([(1.0, 1, 0.0)] * 3, coupling=1.0, step=0.0)
    assert_same_run(f, (0.0, 0.0, -5e-324), monkeypatch, maxiter=29, maxfev=58)


def test_one_compiled_run_serves_each_dimension():
    frames = []

    def f(x):
        frames.append(sys._getframe(1).f_code)
        return math.cos(x[0]) + math.sin(x[-1])

    for x0 in [(0.5, 1.0, 1.5), (2.0, 0.1, 0.0), (0.5, 1.0)]:
        optimize._nelder_mead(f, x0, maxiter=50, maxfev=100)
    codes = list(dict.fromkeys(frames))
    assert [code.co_filename for code in codes] == ["<nelder-mead d=3>", "<nelder-mead d=2>"]
    assert codes[0] is optimize._compiled_nelder_mead(3, False).__code__


def test_an_objective_error_names_the_compiled_frame():
    def f(x):
        raise ZeroDivisionError("from the objective")

    with pytest.raises(ZeroDivisionError) as excinfo:
        optimize._nelder_mead(f, (0.5, 1.0), maxiter=50, maxfev=100)
    text = "".join(traceback.format_exception(excinfo.value))
    assert 'File "<nelder-mead d=2>", line ' in text
    assert "fsim[j] = fp = -float(f((p0, p1,)))" in text  # the source line, from linecache


def test_simplex_ties_keep_the_earlier_vertex():
    # a constant objective ties every vertex: the stable order keeps x0 best,
    # and the run converges once shrinks bring every vertex within xatol
    x, ok, _ = optimize._nelder_mead(lambda p: 1.0, (0.4, 0.7), maxiter=8000, maxfev=16000)
    assert x == (0.4, 0.7)
    assert ok


def test_importing_the_command_line_compiles_no_simplex():
    import coarsebell

    env = dict(os.environ, PYTHONPATH=str(Path(coarsebell.__file__).resolve().parents[1]))
    code = "import coarsebell.cli, coarsebell.optimize as o; print(o._compiled_nelder_mead.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_importing_the_command_line_does_not_import_scipy():
    import coarsebell

    env = dict(os.environ, PYTHONPATH=str(Path(coarsebell.__file__).resolve().parents[1]))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = f"import sys, coarsebell.cli; print({loaded})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    # nor does a whole ecs-homodyne point, whose Bessel series is computed in-house
    code = (
        "import runpy, sys\n"
        "sys.argv = ['coarsebell', 'point', 'ecs-homodyne', '--param', 'V=0.3']\n"
        "try:\n    runpy.run_module('coarsebell', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        f"print({loaded})\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.startswith("value = ")
    assert out.stdout.strip().splitlines()[-1] == "[]"
