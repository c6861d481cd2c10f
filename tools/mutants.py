"""Mutation check: every mutant in the committed table must fail its named tests.

Each entry of ``tools/mutants.json`` gives a file under ``src/`` or
``tests/`` (where the unit tests' reference oracles live), an exact old text
that must occur once in it, the new text that replaces it, and the
test node IDs that must fail.  The tool first checks every entry's old
text and runs all the named tests on an unchanged copy of the tree, where
they must pass.  Then, for each entry, it copies the tree to a temporary
directory, applies the edit and runs the named tests there with
``pytest -x``, with the copy's ``src/`` first on ``PYTHONPATH``.  Each run
carries the suite's own warning and thread policy, the copy's
``pyproject.toml`` and ``tests/conftest.py``, as CI's Tier-1 step does.
A mutant is killed when pytest reports a failed test (exit 1).  The tool
exits 1 when an old text is not found exactly once, when the named tests
fail without any mutant, or when a mutant survives or its run errors;
otherwise 0.  Hypothesis runs with a fixed seed, so each verdict repeats.

    python tools/mutants.py    # the whole table (~95 s on a 2-vCPU Xeon)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tools" / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.egg-info")


def _problems(entry: dict) -> list[str]:
    """What is wrong with an entry, read against this checkout; empty if nothing."""
    name, path = entry["name"], ROOT / entry["file"]
    if not entry["file"].startswith(("src/", "tests/")) or not path.is_file():
        return [f"{name}: {entry['file']} is not a file under src/ or tests/"]
    count = path.read_text().count(entry["old"])
    if count != 1:
        return [f"{name}: old text occurs {count} times in {entry['file']}, not once"]
    return [] if entry["tests"] else [f"{name}: names no test"]


def _pytest(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def _first_failure(output: str) -> str:
    """pytest's first FAILED or ERROR line, else its last line."""
    lines = output.strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (failed or lines[-1:])[0][:160]


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    table = json.loads(TABLE.read_text())
    problems = [p for entry in table for p in _problems(entry)]
    for problem in problems:
        print(problem)
    if problems:
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = shutil.copytree(ROOT, Path(tmp) / "clean", ignore=IGNORE)
        named = list(dict.fromkeys(t for entry in table for t in entry["tests"]))
        proc = _pytest(clean, named)
        if proc.returncode != 0:
            print(f"the named tests fail without a mutant (pytest exit {proc.returncode}):")
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            return 1
        print(f"unchanged tree: {len(named)} named tests pass ({time.perf_counter() - start:.1f} s)")

        bad = 0
        for k, entry in enumerate(table):
            tree = shutil.copytree(ROOT, Path(tmp) / f"mutant{k}", ignore=IGNORE)
            path = tree / entry["file"]
            path.write_text(path.read_text().replace(entry["old"], entry["new"]))
            began = time.perf_counter()
            proc = _pytest(tree, entry["tests"])
            seconds = time.perf_counter() - began
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})")
            bad += proc.returncode != 1
            print(f"{entry['name']}: {verdict} in {seconds:.1f} s  {_first_failure(proc.stdout + proc.stderr)}")
            shutil.rmtree(tree)
    print(f"{len(table) - bad} of {len(table)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
