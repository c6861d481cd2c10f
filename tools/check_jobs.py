"""Byte-identity check of the shipped jobs against committed digests.

Runs every ``jobs/*.job`` through
``python -m coarsebell sweep JOB --csv NAME.csv --svg NAME.svg`` into a
temporary directory, with this checkout's ``src/`` first on ``PYTHONPATH``,
and compares the sha256 digest of each output file with
``jobs/expected.sha256`` (``sha256sum`` format: digest, two spaces, file
name).  Exits 0 when every file matches and 1 otherwise, naming each file
whose digest differs or that is missing.

    python tools/check_jobs.py            # all ten jobs (~1.5 minutes)
    python tools/check_jobs.py --write    # regenerate the digest file
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
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


def _run_jobs(names: list[str], out: Path) -> dict[str, str]:
    """Digest of every CSV and SVG file the jobs write, by file name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digests = {}
    for name in names:
        csv, svg = out / f"{name}.csv", out / f"{name}.svg"
        cmd = [sys.executable, "-m", "coarsebell", "sweep", str(JOBS / f"{name}.job"),
               "--csv", str(csv), "--svg", str(svg)]
        code = subprocess.run(cmd, env=env).returncode
        print(f"{name}: exit {code}", file=sys.stderr)
        for path in (csv, svg):
            if path.exists():
                digests[path.name] = _digest(path)
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {EXPECTED.name} instead of comparing")
    args = parser.parse_args(argv)
    names = sorted(p.stem for p in JOBS.glob("*.job"))
    with tempfile.TemporaryDirectory() as tmp:
        digests = _run_jobs(names, Path(tmp))

    if args.write:
        EXPECTED.write_text("".join(f"{d}  {n}\n" for n, d in sorted(digests.items())))
        print(f"wrote {len(digests)} digests to {EXPECTED.relative_to(ROOT)}")
        return 0

    expected = _read_expected()
    wanted = [f"{name}{ext}" for name in names for ext in (".csv", ".svg")]
    bad = [f for f in wanted if digests.get(f) is None or digests[f] != expected.get(f)]
    for f in bad:
        print(f"differs: {f}" if f in digests else f"missing: {f}")
    print(f"{len(wanted) - len(bad)} of {len(wanted)} files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
