"""Byte-identity check of the shipped jobs against committed digests.

Byte-compiles this checkout's ``src/`` first (``python -m compileall -q``),
so that no job pays for compiling at its import when
``PYTHONDONTWRITEBYTECODE`` is set.  Then runs every ``jobs/*.job`` through
``python -m coarsebell sweep JOB --csv NAME.csv --svg NAME.svg`` into a
temporary directory, with this checkout's ``src/`` first on ``PYTHONPATH``,
and compares the sha256 digest of each output file with
``jobs/expected.sha256`` (``sha256sum`` format: digest, two spaces, file
name).  Exits 0 when every job exits 0 and every file matches, and 1
otherwise, naming each job that exited nonzero and each file whose digest
differs or that is missing.  ``--write`` writes no digest when a job exits
nonzero, and exits 1 naming it.  Each job's wall-clock and CPU
seconds, and both totals, go to stderr: the wall-clock total is the first
end-to-end number of ROADMAP.md (the ten jobs).  CPU seconds (user plus
system, of the job's process) are the steadier reading on a host whose
clock speed changes between runs.

    python tools/check_jobs.py            # all ten jobs (~6-12 s on a 2-vCPU Xeon, by its clock level)
    python tools/check_jobs.py --write    # regenerate the digest file
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = ROOT / "jobs"
EXPECTED = JOBS / "expected.sha256"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_expected() -> dict[str, str]:
    expected = {}
    for line in EXPECTED.read_text().splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            expected[name.strip()] = digest
    return expected


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_jobs(names: list[str], out: Path) -> tuple[dict[str, str], dict[str, int]]:
    """Digest of every CSV and SVG file the jobs write, by file name, and the
    exit code of every job that exited nonzero, by job name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digests, failed = {}, {}
    total = total_cpu = 0.0
    for name in names:
        csv, svg = out / f"{name}.csv", out / f"{name}.svg"
        cmd = [sys.executable, "-m", "coarsebell", "sweep", str(JOBS / f"{name}.job"),
               "--csv", str(csv), "--svg", str(svg)]
        start, start_cpu = time.perf_counter(), _children_cpu_seconds()
        code = subprocess.run(cmd, env=env).returncode
        seconds, cpu = time.perf_counter() - start, _children_cpu_seconds() - start_cpu
        total += seconds
        total_cpu += cpu
        print(f"{name}: exit {code}, {seconds:.2f} s, {cpu:.2f} s CPU", file=sys.stderr)
        if code != 0:
            failed[name] = code
        for path in (csv, svg):
            if path.exists():
                digests[path.name] = _digest(path)
    print(f"all {len(names)} jobs: {total:.2f} s, {total_cpu:.2f} s CPU", file=sys.stderr)
    return digests, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {EXPECTED.name} instead of comparing")
    args = parser.parse_args(argv)
    names = sorted(p.stem for p in JOBS.glob("*.job"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    with tempfile.TemporaryDirectory() as tmp:
        digests, failed = _run_jobs(names, Path(tmp))
    for name, code in failed.items():
        print(f"failed: {name}.job exited {code}")

    if args.write:
        if failed:
            print(f"did not write {EXPECTED.name}: {len(failed)} of {len(names)} jobs failed")
            return 1
        EXPECTED.write_text("".join(f"{d}  {n}\n" for n, d in sorted(digests.items())))
        print(f"wrote {len(digests)} digests to {EXPECTED.relative_to(ROOT)}")
        return 0

    expected = _read_expected()
    wanted = [f"{name}{ext}" for name in names for ext in (".csv", ".svg")]
    bad = [f for f in wanted if digests.get(f) is None or digests[f] != expected.get(f)]
    for f in bad:
        print(f"differs: {f}" if f in digests else f"missing: {f}")
    print(f"{len(wanted) - len(bad)} of {len(wanted)} files identical")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
