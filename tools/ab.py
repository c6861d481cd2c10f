"""A/B harness: alternate a parent revision and this checkout on the end-to-end numbers.

Extracts two commits the same way, each with ``git archive`` into a
temporary directory (no worktree is registered, and the directory is removed
at the end): ``PARENT_REV`` and this checkout's ``HEAD``.  So neither side
carries the checkout's caches, and both ids that it reports name commits.
It also reports each side's ``src`` tree id (``git rev-parse REV:src``): a
record written before its change is committed names a commit that the
repository may never keep, but when only documents change after the run, the
committed change holds the same ``src`` tree, and that id resolves.
It refuses to run, naming them, while there are untracked files that are not
ignored or tracked files that differ from ``HEAD``, staged or not, which the
change tree would silently leave out; commit them first.  It byte-compiles both
trees, so that neither pays for compiling at each import when
``PYTHONDONTWRITEBYTECODE`` is set.  Then it runs ``--pairs``
alternating pairs; pair k runs the parent first when k is even
and this checkout first when k is odd.  Within a pair each of three
measurements runs on both trees back to back, in this order:

- ``jobs``: the tree's ``tools/check_jobs.py``, its wall-clock and CPU totals;
- ``tier1``: the tree's Tier-1 suite under its own warning and thread policy
  (``pyproject.toml`` and ``tests/conftest.py``), its wall-clock and CPU
  seconds and its passed count.  A parent older than that policy runs with
  whatever the caller's environment sets;
- ``perfbench``: ``perfbench/run.py --trace 0`` of each workload at seed
  3001 + k, its end-to-end metrics, failed-point count and ``fast_share``
  (the share of its sampler passes taken at the host's fast level, from its
  ``host`` line), and, read from the run's ``report.json`` even when the
  run exited non-zero, its ``min_round_passes`` (see ``min_round_passes``).

It prints, for every number, each side's median and quartiles and in how many
complete pairs this checkout read lower than the parent.  It judges nothing,
and a run that exits non-zero is reported and left out of its pair.  With
``--json PATH`` it also writes the same summary as one JSON record (see
``record``); ``BENCH_trajectory.json`` keeps a list of such records.

    python tools/ab.py HEAD~1              # 10 pairs (~20 min on a 2-vCPU Xeon)
    python tools/ab.py HEAD~1 --pairs 20
    python tools/ab.py HEAD~1 --json ab.json
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
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("chsh-sweep", "lg-sweep", "photon-fock")
SEED = 3001
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


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
    proc, wall, cpu = _run(tree, TIER1, {"PYTHONPATH": path})
    passed = re.search(r"(\d+) passed\b", proc.stdout)
    if proc.returncode != 0 or passed is None:
        raise RuntimeError(f"pytest exit {proc.returncode}: {proc.stdout[-300:]}")
    return {"tier1.wall_s": wall, "tier1.cpu_s": cpu, "tier1.passed": float(passed[1])}


def min_round_passes(report: dict) -> int:
    """The fewest sampler passes of either kind that any round's parse, sweep and emit units collected.

    A round rescales a unit too short to hold passes of its own by all the
    passes of its round, so 0 is a run whose rescaling fails on an empty list
    (``statistics.StatisticsError``).
    """
    return min(
        sum(len(job[unit][kind]) for job in rnd for unit in ("parse", "sweep", "emit") if unit in job)
        for rnd in report["rounds"]
        for kind in ("interp", "dense")
    )


def _perfbench(tree: Path, seed: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        report = tree / "perfbench" / "out" / workload / "plain" / "report.json"
        report.unlink(missing_ok=True)  # so that a run which writes none is not read as the last one
        proc, _, _ = _run(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", "20", "--trace", "0"])
        if report.is_file():
            out[f"{workload}.min_round_passes"] = float(min_round_passes(json.loads(report.read_text())))
        if proc.returncode != 0:
            print(f"  {tree} {workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}",
                  file=sys.stderr)
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        out[f"{workload}.failed"] = float(result["failed"])
        for line in lines:
            if line.startswith("host "):
                out[f"{workload}.fast_share"] = json.loads(line[5:])["fast_share"]
        for name, metric in result["metrics"].items():
            out[f"{workload}.{name}"] = metric["value"]
    return out


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout


def change_rev(root: Path) -> str:
    """``HEAD``, once ``root`` holds nothing that it leaves out.

    Raises ``RuntimeError`` naming the untracked files that are not ignored,
    else the tracked files that differ from ``HEAD``, staged or not.
    """
    untracked = _git(root, "ls-files", "--others", "--exclude-standard").splitlines()
    if untracked:
        raise RuntimeError("untracked files would be left out of the change tree: " + ", ".join(untracked))
    modified = _git(root, "diff", "--name-only", "HEAD").splitlines()
    if modified:
        raise RuntimeError("uncommitted changes would be left out of the change tree: " + ", ".join(modified))
    return "HEAD"


def _object_id(root: Path, name: str, missing: str) -> str:
    """The full id of the git object ``name`` in ``root``; ``RuntimeError(missing)`` if there is none."""
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--verify", "--quiet", name],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(missing)
    return proc.stdout.strip()


def commit_of(root: Path, rev: str) -> str:
    """The full commit id that ``rev`` names in ``root``; ``RuntimeError`` if it names none."""
    return _object_id(root, f"{rev}^{{commit}}", f"not a commit: {rev}")


def src_tree(root: Path, rev: str) -> str:
    """The id of the ``src`` tree of ``rev`` in ``root``; ``RuntimeError`` if it has none."""
    return _object_id(root, f"{rev}:src", f"no src tree in {rev}")


def _extract(root: Path, rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter where this Python has it (3.10.12+), which newer versions default to
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def summaries(readings: dict[str, list[dict]]) -> dict[str, dict]:
    """``summarize`` of every number that either side read, in the order first read."""
    names = dict.fromkeys(k for side in readings.values() for run in side for k in run)
    return {name: summarize(*([run.get(name) for run in readings[side]] for side in ("parent", "change")))
            for name in names}


def record(revs: dict[str, str], trees: dict[str, str], readings: dict[str, list[dict]],
           date: datetime) -> dict:
    """The run as one JSON-ready record.

    ``revs`` maps "parent" and "change" to the commit ids compared, ``trees``
    maps them to those commits' ``src`` tree ids (see ``src_tree``), ``date`` is
    the run's start as ISO 8601, ``pairs`` the pairs run, and ``numbers``
    maps each number to its ``summarize`` result: ``pairs``, and when that
    is not 0, the ``parent`` and ``change`` quartiles (q1, median, q3) and
    the ``lower`` count.
    """
    return {
        "revs": dict(revs),
        "trees": dict(trees),
        "date": date.isoformat(timespec="seconds"),
        "pairs": len(readings["parent"]),
        "numbers": summaries(readings),
    }


def _report(readings: dict[str, list[dict]]) -> list[str]:
    lines = [f"{'number':28} {'pairs':>5}  {'parent median [q1, q3]':32}  {'change median [q1, q3]':32}  lower"]
    for name, s in summaries(readings).items():
        if not s["pairs"]:
            lines.append(f"{name:28} {0:>5}")
            continue
        lines.append(f"{name:28} {s['pairs']:>5}  {_cell(s['parent']):32}  {_cell(s['change']):32}  "
                     f"{s['lower']} of {s['pairs']}")
    return lines


def measure(revs: dict[str, str], pairs: int) -> dict[str, list[dict]]:
    """Each side's readings, one dict of numbers per pair, from trees of ``revs`` extracted here."""
    readings: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            _extract(ROOT, revs[side], tree)
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True)
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: {} for side in order}
            for reading in (_jobs, _tier1, _perfbench):
                for side in order:
                    try:
                        runs[side].update(reading(trees[side], SEED + k))
                    except RuntimeError as exc:
                        print(f"  {side} {reading.__name__[1:]} pair {k}: {exc}", file=sys.stderr)
            for side in order:
                readings[side].append(runs[side])
            print(f"pair {k + 1} of {pairs} done ({order[0]} first)", file=sys.stderr)
    return readings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the revision to compare this checkout with")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    parser.add_argument("--json", metavar="PATH", type=Path, help="also write the summary as a JSON record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.json is not None and not args.json.resolve().parent.is_dir():
        parser.error(f"--json: no directory {args.json.resolve().parent}")

    try:
        revs = {"parent": commit_of(ROOT, args.parent), "change": commit_of(ROOT, change_rev(ROOT))}
        trees = {side: src_tree(ROOT, rev) for side, rev in revs.items()}
    except RuntimeError as exc:
        parser.error(str(exc))

    started = datetime.now(timezone.utc)
    readings = measure(revs, args.pairs)
    print(f"{args.parent} (parent) against this checkout, {args.pairs} alternating pairs; "
          "'lower' counts the pairs in which this checkout read lower")
    print("\n".join(_report(readings)))
    if args.json is not None:
        args.json.write_text(json.dumps(record(revs, trees, readings, started), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
