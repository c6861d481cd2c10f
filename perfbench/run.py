"""coarsebell benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chsh-sweep --seed 1 --seconds 20 --trace 0

The run measures set-up in fresh interpreters, starts one workload process
(``workload.py``), checks every point it computed against independent
references (``checks.py``) and the emitted CSV/SVG files against the values
returned, and prints, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  All times are CPU seconds
rescaled to the yardstick's nominal speed (``yardstick.py``); the raw CPU
and wall-clock figures and the share of the run the host spent at its fast
level are printed on the lines before.  ``--trace 1`` runs the workload
twice, untraced and traced, on the same inputs and reports the per-layer
metrics instead.  ``--seconds`` is accepted and does not change the run: a
run is four rounds of its workload (``inputs.rounds_for``).  See README.md
for the metric definitions and reference figures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import yardstick  # noqa: E402

SETUP_PROBES = 3
TAIL_BEYOND = 10  # points beyond the tail percentile
CHILD_TIMEOUT_S = 150

# Environment of every child interpreter, so that numpy loads with it: one
# BLAS/OpenMP thread, because with the OpenBLAS default busy-waiting helper
# threads compete with the interpreter for two shared vCPUs and the dense
# Fock fits slow down and spread; and a fixed hash seed, so that set-up
# probes and workload processes start alike.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# A set-up probe imports the package as every CLI call does and reports the
# CPU seconds of the import itself.
_PROBE = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, {src!r})
import coarsebell.cli
print(time.process_time() - t0, coarsebell.__file__)
"""


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing program, child failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND values beyond it."""
    if len(values) < 4 * TAIL_BEYOND:
        raise ValueError(f"a tail needs at least {4 * TAIL_BEYOND} values, got {len(values)}")
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


# ---------------------------------------------------------------------------
# running


def measure_setup(probes: int) -> tuple[list[dict], list[float]]:
    """CPU and wall-clock seconds of fresh interpreters importing coarsebell, and
    the CPU seconds of the import alone as each probe measured it."""
    code = _PROBE.format(src=SRC)
    expected = os.path.join(SRC, "coarsebell", "__init__.py")
    samples, import_s = [], []
    for _ in range(probes):
        c0, w0 = yardstick.cpu_seconds(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        cpu, wall = yardstick.cpu_seconds() - c0, time.perf_counter() - w0
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if os.path.realpath(path) != os.path.realpath(expected):
            raise BenchmarkError(f"set-up probe imported {path}, not {expected}")
        samples.append({"raw": cpu, "wall": wall})
        import_s.append(float(seconds))
    return samples, import_s


def run_workload(args, traced: bool) -> dict:
    out = os.path.join(OUT, args.workload, "traced" if traced else "plain")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--out", out,
    ]
    if args.short:
        cmd.append("--short")
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    line = proc.stdout.strip().splitlines()[-1]
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(line + "\n")
    return json.loads(line)


# ---------------------------------------------------------------------------
# checking


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def check_emitted(job: dict) -> list[str]:
    """The emitted CSV holds exactly the returned rows; the SVG has one curve per series."""
    problems = []
    expected = sorted(
        (p["series"], p["sweep_value"], p["value"], p["converged"]) for p in _timed(job["points"])
    )
    expected = [[s, _fmt(v), _fmt(b), "true" if c else "false"] for s, v, b, c in expected]
    with open(job["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["series", "sweep_value", "value", "converged"]] or rows[1:] != expected:
        problems.append(f"{job['csv']}: rows differ from the optimised values")
    with open(job["svg"]) as fh:
        svg = fh.read()
    if not svg.startswith("<?xml") or not svg.endswith("</svg>\n"):
        problems.append(f"{job['svg']}: not a complete SVG document")
    if svg.count("<polyline") != job["series"]:
        problems.append(f"{job['svg']}: {svg.count('<polyline')} curves for {job['series']} series")
    return problems


def check_points(points: list[dict]) -> tuple[int, list[str]]:
    """Failed operations among ``points`` and why; mismatches count as failures."""
    failed, problems = set(), []
    for i, p in enumerate(points):
        if "error" in p:
            failed.add(i)
            problems.append(f"{p['system']} {p['params']}: raised {p['error']}")
            continue
        ref = checks.reference(p["system"], p["params"])
        for msg in checks.check_point(p["value"], ref):
            failed.add(i)
            problems.append(f"{p['system']} {p['params']}: {msg}")
    delta = [(i, p) for i, p in enumerate(points) if p["system"] == "generic-delta" and "error" not in p]
    triples = [(int(p["params"]["n"]), p["params"]["V"], p["value"]) for _, p in delta]
    for k, msg in checks.check_monotone(triples):
        failed.add(delta[k][0])
        problems.append(f"generic-delta: {msg}")
    return len(failed), problems


# ---------------------------------------------------------------------------
# metrics
#
# Every time is rescaled by the yardstick passes sampled while it ran (see
# yardstick.py): the build stretch of a point (from its start to the
# optimiser's entry, or to the end of the first evaluation in a traced run)
# by the dense kernel, everything else by the interp kernel.  A stretch too
# short to hold MIN_SAMPLES passes of its kernel, such as a job's parse, is
# rescaled by all the passes of its window: its round, or the
# microbenchmarks.  Set-up probes are rescaled by every interp pass of the
# workload process that follows them: an import does not follow the kernel's
# sub-second swings (passes taken inside a probe spread its rescaled time
# three times wider than the raw one), only the host's slower drift.

# An interp pass shorter than this was taken in the host's fast state (its
# two levels are about 0.27 and 0.50 ms); used only for the "host" line.
FAST_PASS_S = 1.4 * yardstick.NOMINAL_S["interp"]

# Microbenchmarks of the Fock pipeline, rescaled by the dense kernel.
DENSE_MICRO = ("photon.fit", "photon.rotate", "photon.loss", "photon.state_check")


def _points(report: dict) -> list[dict]:
    return [p for rnd in report["rounds"] for job in rnd for p in job["points"]]


def _timed(points: list[dict]) -> list[dict]:
    return [p for p in points if "error" not in p]


def _units(rnd: list[dict]) -> list[dict]:
    """A round's timed units in the order they ran: each job's parse, sweep and emit.

    The points are stretches of their job's sweep unit, so they are not units
    of their own here."""
    return [job[k] for job in rnd for k in ("parse", "sweep", "emit") if k in job]


def stretch_factor(stretch: dict, window: list[dict], kind: str = "interp") -> float:
    if len(stretch[kind]) >= yardstick.MIN_SAMPLES:
        return yardstick.factor(stretch[kind], kind)
    return yardstick.factor([y for u in window for y in u[kind]], kind)


def rescaled(stretches: list[dict], window: list[dict], kind: str = "interp") -> list[float]:
    return [s["raw"] * stretch_factor(s, window, kind) for s in stretches]


def point_seconds(point: dict, window: list[dict]) -> float:
    """A point's time: its build stretch at dense speed plus its optimise stretch at interp speed."""
    return (
        rescaled([point["build"]], window, "dense")[0]
        + rescaled([point["optimize"]], window, "interp")[0]
    )


def sweep_unit_seconds(job: dict, window: list[dict]) -> float:
    """A job's ``run_sweep`` call: its points, plus what ran between them at interp speed."""
    points = _timed(job["points"])
    between = job["sweep"]["raw"] - sum(p["raw"] for p in points)
    return sum(point_seconds(p, window) for p in points) + between * stretch_factor(job["sweep"], window)


def round_seconds(rnd: list[dict], rescale: bool = True, key: str = "raw") -> float:
    """One round: every job's parse, sweep and emit."""
    if not rescale:
        return sum(u[key] for u in _units(rnd))
    window = _units(rnd)
    total = 0.0
    for job in rnd:
        others = [job[k] for k in ("parse", "emit") if k in job]
        total += sum(rescaled(others, window)) + sweep_unit_seconds(job, window)
    return total


def sweep_seconds(report: dict, rescale: bool = True, key: str = "raw") -> float:
    """Mean time of one round."""
    return statistics.fmean(round_seconds(rnd, rescale, key) for rnd in report["rounds"])


def run_factor(report: dict) -> float:
    return yardstick.factor([y for rnd in report["rounds"] for u in _units(rnd) for y in u["interp"]])


def fast_share(report: dict) -> float:
    """Share of the run's interp passes taken while the host ran at its fast level."""
    passes = [y for rnd in report["rounds"] for u in _units(rnd) for y in u["interp"]]
    return sum(y < FAST_PASS_S for y in passes) / len(passes)


def end_to_end(setup: list[dict], report: dict, rescale: bool = True, key: str = "raw") -> dict:
    """End-to-end metrics; unrescaled ``key`` seconds ("raw" CPU or "wall") unless ``rescale``."""
    point_s = []
    for rnd in report["rounds"]:
        points = [p for job in rnd for p in _timed(job["points"])]
        point_s += [point_seconds(p, _units(rnd)) if rescale else p[key] for p in points]
    setup_s = statistics.median(s[key] for s in setup) * (run_factor(report) if rescale else 1.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep_seconds(report, rescale, key), "s"),
        "point_s.p50": (statistics.median(point_s), "s"),
    }
    if len(point_s) >= 4 * TAIL_BEYOND:
        metrics["point_s.tail"] = (tail(point_s), "s")
    metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    return metrics


def _micro(report: dict, name: str, scale: float) -> float:
    window = [u for samples in report["micro"].values() for u in samples]
    kind = "dense" if name in DENSE_MICRO else "interp"
    return statistics.median(rescaled(report["micro"][name], window, kind)) * scale


def per_layer(plain: dict, traced: dict, import_s: list[float]) -> dict:
    optimize, build, parse, emit = [], [], [], []
    evals = 0
    for rnd in traced["rounds"]:
        window = _units(rnd)
        points = [p for job in rnd for p in _timed(job["points"])]
        evals += sum(p["evaluations"] for p in points)
        optimize += rescaled([p["optimize"] for p in points], window, "interp")
        build += rescaled([p["build"] for p in points], window, "dense")
        parse.append(sum(rescaled([job["parse"] for job in rnd], window)))
        emit.append(sum(rescaled([job["emit"] for job in rnd if "emit" in job], window)))
    rounds = len(traced["rounds"])
    return {
        "optimize.evals_per_point": (evals / len(optimize), "count"),
        "optimize_s.p50": (statistics.median(optimize), "s"),
        "optimize.us_per_eval": (sum(optimize) / evals * 1e6, "us"),
        "generic.call_us": (_micro(traced, "generic.call", 1e6), "us"),
        "ecs.call_us": (_micro(traced, "ecs.call", 1e6), "us"),
        "ecs.homodyne_ms": (_micro(traced, "ecs.homodyne", 1e3), "ms"),
        "leggett_garg.call_us": (_micro(traced, "leggett_garg.call", 1e6), "us"),
        "photon.fit_s.p50": (_micro(traced, "photon.fit", 1.0), "s"),
        "photon.rotate_ms": (_micro(traced, "photon.rotate", 1e3), "ms"),
        "photon.loss_ms": (_micro(traced, "photon.loss", 1e3), "ms"),
        "photon.state_check_ms": (_micro(traced, "photon.state_check", 1e3), "ms"),
        "photon.call_us": (_micro(traced, "photon.call", 1e6), "us"),
        "model.build_s.p50": (statistics.median(build), "s"),
        "model.build_s.total": (sum(build) / rounds, "s"),
        "sweep.parse_s": (statistics.fmean(parse), "s"),
        "sweep.emit_s": (statistics.fmean(emit), "s"),
        "cli.import_s": (statistics.median(import_s) * run_factor(plain), "s"),
        "trace.overhead_s": (sweep_seconds(traced) - sweep_seconds(plain), "s"),
    }


# ---------------------------------------------------------------------------
# main


def evaluate(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "coarsebell", "__init__.py")):
        raise BenchmarkError(f"no coarsebell package under {SRC}; run from a full checkout")
    setup, import_s = measure_setup(1 if args.short else SETUP_PROBES)
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    with open(os.path.join(OUT, args.workload, "setup.json"), "w") as fh:
        json.dump({"samples": setup, "import_s": import_s}, fh)
    reports = [run_workload(args, traced=False)]
    if args.trace:
        reports.append(run_workload(args, traced=True))

    attempted = failed = 0
    problems = []
    for report in reports:
        points = _points(report)
        n_failed, why = check_points(points)
        attempted += len(points)
        failed += n_failed
        problems += why
    correct = True
    for report in reports:
        for rnd in report["rounds"]:
            for job in rnd:
                emitted = check_emitted(job) if "csv" in job else []
                correct = correct and not emitted
                problems += emitted
    if args.trace:
        plain, traced = (_points(r) for r in reports)
        same = [(p.get("value"), p.get("evaluations")) for p in plain] == [
            (p.get("value"), p.get("evaluations")) for p in traced
        ]
        if not same:
            correct = False
            problems.append("traced and untraced runs disagree on values or evaluation counts")
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(reports[0], reports[1], import_s)
    else:
        metrics = end_to_end(setup, reports[0])
        for key in ("raw", "wall"):
            raw = end_to_end(setup, reports[0], rescale=False, key=key)
            print(f"{key} " + json.dumps({k: round(v, 6) for k, (v, _) in raw.items()}))
        print("host " + json.dumps({"fast_share": round(fast_share(reports[0]), 4)}))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="accepted; a run's length is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="one round and one set-up probe")
    args = parser.parse_args(argv)
    try:
        result = evaluate(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
