"""Tests of the benchmark itself: its checks, its arithmetic, its inputs and a short run.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

# one BLAS thread before numpy loads, as in the benchmark's own processes
# (run.CHILD_ENV), so that the dense yardstick kernel times as it does there
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import yardstick  # noqa: E402

PERTURBATION = 1e-6

# (system, params including the swept variable) covering every reference path
POINTS = [
    ("generic-delta", {"n": 3, "V": 2.0}),
    ("generic-delta", {"n": 1, "V": 5.5}),
    ("generic-ref", {"n": 2, "V": 0.37}),
    ("ecs-eta", {"alpha": 5.0, "eta": 0.3}),
    ("ecs-ref", {"alpha": 10.0, "V": 0.5}),
    ("ecs-homodyne", {"alpha": 5.0, "V": 0.3}),
    ("photon", {"n": 3, "eta": 0.93, "V": 0.4}),
    ("lg-nonclassical", {"j": 0.5, "V": 0.7}),
    ("lg-spin", {"j": 0.5, "V": 0.7}),
    ("lg-spin", {"j": 7.5, "V": 0.4}),
]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks


@pytest.mark.parametrize("system,params", POINTS)
def test_check_accepts_reference_and_rejects_perturbation(system, params):
    ref = checks.reference(system, params)
    assert checks.check_point(ref, ref) == []
    for delta in (PERTURBATION, -PERTURBATION):
        assert checks.check_point(ref + delta, ref), delta


def test_ceiling_rejects_values_above_tsirelson():
    over = checks.TSIRELSON + PERTURBATION
    assert checks.check_point(over, over)
    assert checks.check_point(math.nan, 0.0)


def test_monotone_rejects_perturbed_orderings():
    flat = [(2, 1.0, 2.0), (2, 2.0, 2.0), (3, 1.0, 2.0)]
    assert checks.check_monotone(flat) == []
    rises_with_v = [(2, 1.0, 2.0), (2, 2.0, 2.0 + PERTURBATION)]
    assert [k for k, _ in checks.check_monotone(rises_with_v)] == [1]
    falls_with_n = [(2, 1.0, 2.0), (3, 1.0, 2.0 - PERTURBATION)]
    assert [k for k, _ in checks.check_monotone(falls_with_n)] == [1]


def test_brute_force_matches_closed_forms():
    for V in (0.0, 0.3, 1.1):
        def corr(a, b, V=V):
            return -math.exp(-4.0 * V) * np.cos(2.0 * (a + b))

        assert checks.brute_force_chsh(corr) == pytest.approx(checks.chsh_generic_ref(V), abs=1e-12)
        two_level = checks.spin_parity_correlator(0.5, V)
        assert checks.brute_force_lg(two_level, 2.0 * math.pi) == pytest.approx(
            checks.lg_two_level(V), abs=1e-12
        )
    assert checks.chsh_generic_delta(2, 0.0) == pytest.approx(checks.TSIRELSON, abs=1e-12)


def test_homodyne_reference_limits():
    from scipy.special import erf

    assert checks.homodyne_average(5.0, 1e-8) == pytest.approx(float(erf(math.sqrt(2.0) * 5.0)), abs=1e-12)
    # a very wide angle spread washes the sign response out completely
    assert abs(checks.homodyne_average(5.0, 400.0)) < 1e-12


def test_photon_reference_reduces_to_generic():
    assert checks.chsh_photon(2, 1.0, 0.3) == pytest.approx(checks.chsh_generic_ref(0.3), abs=1e-15)


# ---------------------------------------------------------------------------
# arithmetic


def test_rescale_arithmetic():
    nominal = yardstick.NOMINAL_S
    assert yardstick.factor([0.8 * nominal["interp"], 1.2 * nominal["interp"]]) == pytest.approx(1.0)
    assert yardstick.factor([2 * nominal["dense"]] * 2, "dense") == pytest.approx(0.5)
    # a stretch with enough samples of its own is rescaled by them ...
    unit = {"raw": 2.0, "interp": [0.002] * yardstick.MIN_SAMPLES, "dense": []}
    window = [unit, {"raw": 1.0, "interp": [0.008] * 10, "dense": [0.004] * 4}]
    assert run.rescaled([unit], window) == [pytest.approx(2.0 * nominal["interp"] / 0.002)]
    # ... a shorter one by every sample of its window
    short = {"raw": 0.001, "interp": [0.002], "dense": []}
    mean = (0.002 + 10 * 0.008) / 11
    assert run.rescaled([short], [short, window[1]]) == [pytest.approx(0.001 * nominal["interp"] / mean)]
    assert run.rescaled([unit], window, "dense") == [pytest.approx(2.0 * nominal["dense"] / 0.004)]


def test_point_build_and_optimise_take_their_own_kernels():
    nominal = yardstick.NOMINAL_S
    slow = {"interp": [2 * nominal["interp"]] * 3, "dense": [1.5 * nominal["dense"]] * 3}
    point = {"raw": 1.0, "build": dict(slow, raw=0.6), "optimize": dict(slow, raw=0.4)}
    assert run.point_seconds(point, []) == pytest.approx(0.6 / 1.5 + 0.4 / 2)
    job = {"sweep": dict(slow, raw=1.1), "points": [point]}
    # the 0.1 s of the sweep outside the point is interp work
    assert run.sweep_unit_seconds(job, []) == pytest.approx(0.6 / 1.5 + 0.4 / 2 + 0.1 / 2)


def test_sampler_subtracts_its_own_time():
    def spin(cpu_seconds):
        end = time.process_time() + cpu_seconds
        while time.process_time() < end:
            pass

    clock = yardstick.Sampler()
    _, sample = clock.time(spin, 0.3)
    # the spin ends after 0.3 CPU seconds however often the handler ran, so
    # the sample keeps only the spin's own share; the timer stops afterwards
    assert len(sample["interp"]) + len(sample["dense"]) >= 0.3 / yardstick.SAMPLE_INTERVAL_S - 3
    assert abs(len(sample["interp"]) - len(sample["dense"])) <= 1
    assert clock.spent > 0.0
    assert sample["raw"] == pytest.approx(0.3 - clock.spent, abs=0.003)
    assert sample["wall"] >= sample["raw"] - 0.003
    count = clock.mark()
    spin(0.1)
    assert clock.mark()[2:] == count[2:]


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(40)]
    assert run.tail(values) == 29.0
    assert sum(v > run.tail(values) for v in values) == 10
    assert run.tail(list(reversed(values)) + [100.0]) == 30.0
    with pytest.raises(ValueError):
        run.tail(values[:39])


def test_marks_split_a_timed_call_into_stretches():
    def spin(cpu_seconds):
        end = time.process_time() + cpu_seconds
        while time.process_time() < end:
            pass

    clock = yardstick.Sampler()
    marks = []

    def two_stretches():
        marks.append(clock.mark())
        spin(0.2)
        marks.append(clock.mark())
        spin(0.2)
        marks.append(clock.mark())

    _, whole = clock.time(two_stretches)
    first, second = clock.between(marks[0], marks[1]), clock.between(marks[1], marks[2])
    assert first["raw"] + second["raw"] == pytest.approx(whole["raw"], abs=1e-3)
    for kind in yardstick.KINDS:
        assert first[kind] + second[kind] == whole[kind]
        assert len(first[kind]) >= yardstick.MIN_SAMPLES


def test_end_to_end_metrics_from_a_synthetic_report():
    # kernel passes at twice nominal speed: every time doubles
    def stretch(raw):
        return {"raw": raw, **{k: [0.5 * yardstick.NOMINAL_S[k]] * yardstick.MIN_SAMPLES for k in yardstick.KINDS}}

    def point(raw):
        return {"raw": raw, "build": stretch(0.25 * raw), "optimize": stretch(0.75 * raw), "system": "generic-ref"}

    points = [point(0.1 * (k + 1)) for k in range(40)]
    job = {"parse": stretch(0.01), "sweep": stretch(0.1 * 820 + 0.02), "emit": stretch(0.03), "points": points}
    report = {"rounds": [[job], [job]], "peak_rss_mb": 80.0}
    metrics = run.end_to_end([{"raw": 0.5}, {"raw": 0.7}, {"raw": 0.6}], report)
    assert metrics["setup_s"][0] == pytest.approx(2 * 0.6)
    assert metrics["sweep_s"][0] == pytest.approx(2 * (0.06 + 0.1 * 820))
    assert metrics["point_s.p50"][0] == pytest.approx(2 * 0.1 * 20.5)
    # 80 points, each time twice: the 11th-slowest is the second 3.5 s point
    assert metrics["point_s.tail"][0] == pytest.approx(2 * 3.5)
    assert metrics["peak_rss_mb"][0] == 80.0
    raw = run.end_to_end([{"raw": 0.5}, {"raw": 0.7}, {"raw": 0.6}], report, rescale=False)
    assert raw["sweep_s"][0] == pytest.approx(0.06 + 0.1 * 820)


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    rounds = inputs.rounds_for(workload)
    first = [inputs.make_round(workload, 7, r, rounds) for r in range(rounds)]
    again = [inputs.make_round(workload, 7, r, rounds) for r in range(rounds)]
    other = [inputs.make_round(workload, 8, r, rounds) for r in range(rounds)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_runs_have_enough_points_for_a_tail(workload):
    rounds = inputs.rounds_for(workload)
    assert rounds * inputs.POINTS_PER_ROUND[workload] >= inputs.MIN_POINTS
    assert inputs.rounds_for(workload, short=True) == 1


def _job_points(job: inputs.Job) -> list[tuple[dict, float]]:
    """(series params, V) of every point of a generated job, in sweep order."""
    from coarsebell import parse_job

    spec = parse_job(job.text)
    return [(dict(s.params), float(v)) for s in spec.series for v in spec.grid()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_photon_runs_have_a_cold_n3_fit_beyond_the_tail(seed):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = "photon-fock"
    rounds = inputs.rounds_for(workload)
    points = [
        point
        for r in range(rounds)
        for job in inputs.make_round(workload, seed, r, rounds)
        for point in _job_points(job)
    ]
    assert len(points) == rounds * inputs.POINTS_PER_ROUND[workload]
    # the correlator is fitted once per (n, eta): count the first point of each
    fits = {(p["n"], p["eta"]) for p, _ in points}
    cold_n3 = sum(1 for n, _ in fits if n == 3)
    assert cold_n3 == rounds * inputs.COLD_N3_PER_ROUND > run.TAIL_BEYOND
    # and the median stays among points that are not cold n = 3 fits
    assert cold_n3 < len(points) / 2


def test_stratified_draws_cover_every_stratum():
    rounds = 6
    values = [inputs._Draws("w", 3, r, rounds).stratified("x", 2.0, 5.0) for r in range(rounds)]
    strata = sorted(int((v - 2.0) / 3.0 * rounds) for v in values)
    assert strata == list(range(rounds))


# ---------------------------------------------------------------------------
# whole runs


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_short_run_of_every_workload(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "20", "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == inputs.POINTS_PER_ROUND[workload]
    # the known optimiser fault of lg-spin at j = 5/2, V = 0 fails once per round
    assert result["failed"] == (1 if workload == "lg-sweep" else 0)
    names = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == names - {"point_s.tail"}  # a short run has no tail
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_short_traced_run_reports_every_layer():
    proc = _run("--workload", "photon-fock", "--seed", "3", "--seconds", "20", "--trace", "1", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "lg-sweep", "--seed", "1", "--seconds", "20", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
