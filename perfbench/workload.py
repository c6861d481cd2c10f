"""Workload process: runs one workload's rounds and prints raw timings as JSON.

Usage (from the checkout root; run.py starts it and does the checking)::

    python3 perfbench/workload.py --workload chsh-sweep --seed 1 --trace 0 \
        --out perfbench/out/chsh-sweep/plain

Each job of each round is handled as ``coarsebell sweep`` handles a job
file, through the public API: ``parse_job`` on the job text, ``run_sweep``
on the spec, then ``emit_csv`` and ``emit_svg`` on its result.  A hook on
the optimiser entry points (``hooks.PointHook``) cuts the sweep into one
span per point, splits each into build and optimise stretches, and records
each point's result.  The yardstick's sampler runs while each unit runs, so
every unit and stretch comes with the kernel pass times sampled during it.
With ``--trace 1`` the build stretch also holds a first evaluation of the
correlator, and the per-layer microbenchmarks run after the rounds.
The last line of standard output is one JSON object with every raw figure.
run.py starts this process with one BLAS/OpenMP thread and a fixed hash seed
in its environment (``run.CHILD_ENV``).
"""

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import hooks  # noqa: E402
import inputs  # noqa: E402
import yardstick  # noqa: E402
from coarsebell import emit_csv, emit_svg, parse_job, run_sweep  # noqa: E402


def run_job(clock: yardstick.Sampler, hook: hooks.PointHook, job: inputs.Job, out_stem: str) -> dict:
    spec, parse_t = clock.time(parse_job, job.text)
    expected = [
        (series.label, float(v), {**series.params, spec.variable: float(v)})
        for series in spec.series
        for v in spec.grid()
    ]

    def sweep():
        hook.start()
        try:
            return run_sweep(spec, starts=job.starts), None
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            # a sweep that raises fails its remaining points, not the run
            return None, repr(exc)

    (result, error), sweep_t = clock.time(sweep)
    if error is None and len(hook.points) != len(expected):
        raise RuntimeError(
            f"saw {len(hook.points)} optimiser calls for {len(expected)} points: "
            "coarsebell.sweep no longer calls maximize_chsh/maximize_lg by name"
        )
    points = []
    for k, (label, v, params) in enumerate(expected):
        point = hook.points[k] if k < len(hook.points) else {"error": error}
        point.update(system=spec.system, series=label, sweep_value=v, params=params)
        points.append(point)
    report = {"parse": parse_t, "sweep": sweep_t, "points": points, "series": len(spec.series)}
    if result is None:
        return report

    def emit():
        emit_csv(result, out_stem + ".csv")
        emit_svg(result, out_stem + ".svg", title=spec.system)

    _, report["emit"] = clock.time(emit)
    report.update(csv=out_stem + ".csv", svg=out_stem + ".svg")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--out", required=True, help="directory for the emitted CSV/SVG files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    clock = yardstick.Sampler()
    hook = hooks.PointHook(clock, traced=bool(args.trace))
    hook.install()

    rounds = inputs.rounds_for(args.workload, args.short)
    report = {"rounds": []}
    for r in range(rounds):
        jobs = []
        for k, job in enumerate(inputs.make_round(args.workload, args.seed, r, rounds)):
            stem = os.path.join(args.out, f"r{r}-j{k}")
            jobs.append(run_job(clock, hook, job, stem))
        report["rounds"].append(jobs)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        report["micro"] = hooks.microbenchmarks(clock, args.seed, args.short)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
