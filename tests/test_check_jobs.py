"""``tools/check_jobs.py``: a job that exits nonzero fails the check, whatever its digests.

The tool's job directory and digest file are pointed at a temporary
directory that holds one job with an unknown system, which the CLI refuses
with exit 2.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "check_jobs.py"
spec = importlib.util.spec_from_file_location("check_jobs", PATH)
check_jobs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_jobs)


@pytest.mark.parametrize("argv", [[], ["--write"]], ids=["compare", "write"])
def test_a_job_that_exits_nonzero_fails_the_check_and_is_named(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "bad.job").write_text("system = warp\nsweep.min = 0\nsweep.max = 1\nsweep.steps = 2\n")
    expected = tmp_path / "expected.sha256"
    expected.write_text("")
    monkeypatch.setattr(check_jobs, "JOBS", tmp_path)
    monkeypatch.setattr(check_jobs, "EXPECTED", expected)
    assert check_jobs.main(argv) == 1
    assert "failed: bad.job exited 2\n" in capsys.readouterr().out
    assert expected.read_text() == ""
