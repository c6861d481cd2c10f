"""A/B harness: alternate a parent revision and this checkout on the end-to-end numbers.

Extracts ``PARENT_REV`` with ``git archive`` into a temporary directory (no
worktree is registered, and the directory is removed at the end) and
byte-compiles both trees, so that neither pays for compiling at each import
when ``PYTHONDONTWRITEBYTECODE`` is set.  Then it runs ``--pairs``
alternating pairs; pair k runs the parent first when k is even
and this checkout first when k is odd.  Within a pair each of three
measurements runs on both trees back to back, in this order:

- ``jobs``: the tree's ``tools/check_jobs.py``, its wall-clock and CPU totals;
- ``tier1``: the tree's Tier-1 suite with CI's flags and one BLAS thread,
  its wall-clock and CPU seconds and its passed count;
- ``perfbench``: ``perfbench/run.py --trace 0`` of each workload at seed
  3001 + k, its end-to-end metrics and failed-point count.

It prints, for every number, each side's median and quartiles and in how many
complete pairs this checkout read lower than the parent.  It judges nothing,
and a run that exits non-zero is reported and left out of its pair.

    python tools/ab.py HEAD~1              # 5 pairs (~10 min on a 2-vCPU Xeon)
    python tools/ab.py HEAD~1 --pairs 10
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("chsh-sweep", "lg-sweep", "photon-fock")
SEED = 3001
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between order statistics."""
    if len(values) == 1:  # which statistics.quantiles refuses before Python 3.13
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent: list[float | None], change: list[float | None]) -> dict:
    """The two sides' quartiles over the pairs in which both ran, and how often change was lower."""
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    if not pairs:
        return {"pairs": 0}
    return {
        "pairs": len(pairs),
        "parent": quartiles([a for a, _ in pairs]),
        "change": quartiles([b for _, b in pairs]),
        "lower": sum(b < a for a, b in pairs),
    }


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run(tree: Path, args: list[str], env: dict | None = None) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run ``python ARGS`` in ``tree``; the process, its wall-clock and its CPU seconds."""
    start, start_cpu = time.perf_counter(), _children_cpu_seconds()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=dict(os.environ, **(env or {})),
                          capture_output=True, text=True)
    return proc, time.perf_counter() - start, _children_cpu_seconds() - start_cpu


def _jobs(tree: Path, seed: int) -> dict:
    proc, _, _ = _run(tree, ["tools/check_jobs.py"])
    total = re.search(r"all \d+ jobs: ([\d.]+) s, ([\d.]+) s CPU", proc.stderr)
    if proc.returncode != 0 or total is None:
        raise RuntimeError(f"check_jobs exit {proc.returncode}: {(proc.stdout + proc.stderr)[-300:]}")
    return {"jobs.wall_s": float(total[1]), "jobs.cpu_s": float(total[2])}


def _tier1(tree: Path, seed: int) -> dict:
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    proc, wall, cpu = _run(tree, TIER1, dict(ONE_THREAD, PYTHONPATH=path))
    passed = re.search(r"(\d+) passed\b", proc.stdout)
    if proc.returncode != 0 or passed is None:
        raise RuntimeError(f"pytest exit {proc.returncode}: {proc.stdout[-300:]}")
    return {"tier1.wall_s": wall, "tier1.cpu_s": cpu, "tier1.passed": float(passed[1])}


def _perfbench(tree: Path, seed: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        proc, _, _ = _run(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", "20", "--trace", "0"])
        if proc.returncode != 0:
            print(f"  {tree} {workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}",
                  file=sys.stderr)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out[f"{workload}.failed"] = float(result["failed"])
        for name, metric in result["metrics"].items():
            out[f"{workload}.{name}"] = metric["value"]
    return out


def _extract(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter where this Python has it (3.10.12+), which newer versions default to
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def _report(readings: dict[str, list[dict]]) -> list[str]:
    names = list(dict.fromkeys(k for side in readings.values() for run in side for k in run))
    lines = [f"{'number':28} {'pairs':>5}  {'parent median [q1, q3]':32}  {'change median [q1, q3]':32}  lower"]
    for name in names:
        s = summarize(*([run.get(name) for run in readings[side]] for side in ("parent", "change")))
        if not s["pairs"]:
            lines.append(f"{name:28} {0:>5}")
            continue
        lines.append(f"{name:28} {s['pairs']:>5}  {_cell(s['parent']):32}  {_cell(s['change']):32}  "
                     f"{s['lower']} of {s['pairs']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision to compare this checkout with")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs (default 5)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    readings: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        _extract(args.parent, trees["parent"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: {} for side in order}
            for measure in (_jobs, _tier1, _perfbench):
                for side in order:
                    try:
                        runs[side].update(measure(trees[side], SEED + k))
                    except RuntimeError as exc:
                        print(f"  {side} {measure.__name__[1:]} pair {k}: {exc}", file=sys.stderr)
            for side in order:
                readings[side].append(runs[side])
            print(f"pair {k + 1} of {args.pairs} done ({order[0]} first)", file=sys.stderr)
    print(f"{args.parent} (parent) against this checkout, {args.pairs} alternating pairs; "
          "'lower' counts the pairs in which this checkout read lower")
    print("\n".join(_report(readings)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
