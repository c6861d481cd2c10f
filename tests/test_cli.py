"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import math
from pathlib import Path

import pytest

import coarsebell.sweep
from coarsebell.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_VALIDATION, main
from coarsebell.optimize import OptimizationResult
from coarsebell.sweep import SYSTEMS

JOBS = Path(__file__).resolve().parents[1] / "jobs"

GOOD_JOB = """\
system = generic-ref
sweep.variable = V
sweep.min = 0.0
sweep.max = 0.5
sweep.steps = 2
series[0].label = n=1
series[0].params.n = 1
"""


def write_job(tmp_path, text=GOOD_JOB):
    path = tmp_path / "job.txt"
    path.write_text(text)
    return str(path)


def test_sweep_writes_csv_and_svg(tmp_path):
    job = write_job(tmp_path)
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(
        ["sweep", job, "--csv", str(csv_path), "--svg", str(svg_path), "--starts", "16"]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "series,sweep_value,value,converged"
    assert len(lines) == 3
    assert svg_path.read_text().startswith("<?xml")


def test_sweep_without_svg_flag(tmp_path):
    job = write_job(tmp_path)
    csv_path = tmp_path / "only.csv"
    assert main(["sweep", job, "--csv", str(csv_path), "--starts", "16"]) == EXIT_OK
    assert csv_path.exists()


def test_sweep_validation_failures(tmp_path, capsys):
    bad_system = write_job(tmp_path, GOOD_JOB.replace("generic-ref", "warp-core"))
    assert main(["sweep", bad_system, "--csv", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
    assert "unknown system" in capsys.readouterr().err

    garbled = write_job(tmp_path, "system generic-ref\n")
    assert main(["sweep", garbled, "--csv", str(tmp_path / "y.csv")]) == EXIT_VALIDATION
    assert "expected 'key = value'" in capsys.readouterr().err


def test_sweep_missing_jobfile(tmp_path, capsys):
    code = main(["sweep", str(tmp_path / "nope.job"), "--csv", str(tmp_path / "x.csv")])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_job_file_that_is_not_utf8_exits_two_with_a_one_line_error(tmp_path, capsys):
    job = tmp_path / "bad.job"
    job.write_bytes(b"system = generic-ref\n\xff\xfe = 1\n")
    csv_path = tmp_path / "o.csv"
    assert main(["sweep", str(job), "--csv", str(csv_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err
    assert not csv_path.exists()


def test_a_job_file_with_a_byte_order_mark_writes_the_bytes_of_the_plain_job(tmp_path):
    plain = (JOBS / "lg_nonclassical.job").read_bytes()
    job = tmp_path / "bom.job"
    job.write_bytes(b"\xef\xbb\xbf" + plain)
    outputs = []
    for path in (JOBS / "lg_nonclassical.job", job):
        csv_path = tmp_path / f"{path.stem}.csv"
        assert main(["sweep", str(path), "--csv", str(csv_path)]) == EXIT_OK
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "labels,needle",
    [
        (["3", "4"], "must be a string XML can carry, got 3"),
        (["same", "same"], "'same' is given to two series"),
        (["a\x01b", "c"], "XML can carry, got 'a\\x01b'"),
    ],
    ids=["not-a-str", "repeated", "not-an-xml-char"],
)
def test_a_label_that_would_break_the_output_exits_two(tmp_path, monkeypatch, capsys, labels, needle):
    if labels[0] == "3":  # a job file's labels are strings; a library caller can pass another type
        class IntLabelSpec(coarsebell.sweep.SeriesSpec):  # still a SeriesSpec, as SweepSpec asks
            __slots__ = ()

            def __new__(cls, label, params):
                return super().__new__(cls, int(label), params)

        monkeypatch.setattr(coarsebell.sweep, "SeriesSpec", IntLabelSpec)
    text = GOOD_JOB.replace("series[0].label = n=1", f"series[0].label = {labels[0]}")
    text += f"series[1].label = {labels[1]}\nseries[1].params.n = 2\n"
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    code = main(["sweep", write_job(tmp_path, text), "--csv", str(csv_path), "--svg", str(svg_path)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert not csv_path.exists() and not svg_path.exists()


def test_sweep_reports_non_convergence(tmp_path, monkeypatch, capsys):
    def stuck(correlator, starts=None):
        return OptimizationResult(
            value=1.0, argmax=(0.0, 0.0, 0.0, 0.0), evaluations=1, converged=False, starts_used=1
        )

    monkeypatch.setattr(coarsebell.sweep, "maximize_chsh", stuck)
    job = write_job(tmp_path)
    csv_path = tmp_path / "out.csv"
    code = main(["sweep", job, "--csv", str(csv_path), "--starts", "16"])
    assert code == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "error: 2 sweep point(s) did not converge\n"
    # the rows are still written, flagged as unconverged
    assert csv_path.read_text().count("false") == 2


def test_point_prints_value_and_argmax(capsys):
    code = main(["point", "generic-ref", "--param", "V=0.25", "--starts", "16"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    value_line, argmax_line = out.strip().splitlines()
    assert value_line.startswith("value = ")
    got = float(value_line.removeprefix("value = "))
    assert got == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), abs=1e-6)
    assert argmax_line.startswith("argmax = (")
    assert len(argmax_line.split(",")) == 4


def test_point_validation_failures(capsys):
    assert main(["point", "warp-core"]) == EXIT_VALIDATION
    assert "unknown system" in capsys.readouterr().err
    assert main(["point", "photon", "--param", "bogus=1"]) == EXIT_VALIDATION
    assert "unknown parameter" in capsys.readouterr().err
    assert main(["point", "photon", "--param", "n"]) == EXIT_VALIDATION
    assert "NAME=VALUE" in capsys.readouterr().err
    assert main(["point", "photon", "--param", "n=two"]) == EXIT_VALIDATION
    assert "not a number" in capsys.readouterr().err


def test_point_non_convergence_exit_code(monkeypatch, capsys):
    def stuck(correlator, starts=None):
        return OptimizationResult(
            value=1.0, argmax=(0.0,) * 4, evaluations=1, converged=False, starts_used=1
        )

    monkeypatch.setattr(coarsebell.sweep, "maximize_chsh", stuck)
    assert main(["point", "generic-ref"]) == EXIT_NO_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err


def nan_system(monkeypatch, name):
    """Make the correlator factory of system ``name`` return a closure that gives NaN."""
    sysdef = coarsebell.sweep.SYSTEMS[name]
    nan = (lambda a, b: math.nan) if sysdef.kind == "chsh" else (lambda tau: math.nan)
    monkeypatch.setitem(
        coarsebell.sweep.SYSTEMS, name, sysdef._replace(correlator=lambda mp: nan)
    )


@pytest.mark.parametrize("system,needle", [("generic-ref", "objective"), ("lg-spin", "correlator")])
def test_point_with_a_non_finite_objective_exits_three(system, needle, monkeypatch, capsys):
    nan_system(monkeypatch, system)
    assert main(["point", system, "--starts", "1"]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needle} value is not finite: nan") and err.count("\n") == 1


def test_sweep_with_a_non_finite_objective_exits_three(tmp_path, monkeypatch, capsys):
    nan_system(monkeypatch, "generic-ref")
    csv_path = tmp_path / "out.csv"
    assert main(["sweep", write_job(tmp_path), "--csv", str(csv_path)]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: objective value is not finite: nan") and err.count("\n") == 1
    assert not csv_path.exists()


def test_a_photon_sweep_reaches_its_closed_values(tmp_path):
    job = write_job(
        tmp_path,
        "system = photon\nsweep.min = 0.0\nsweep.max = 0.25\nsweep.steps = 2\n"
        "series[0].label = pair\nseries[0].params.n = 1\n",
    )
    csv_path = tmp_path / "p.csv"
    code = main(["sweep", job, "--csv", str(csv_path), "--starts", "16"])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    sharp = float(lines[1].split(",")[2])
    damped = float(lines[2].split(",")[2])
    assert sharp == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert damped == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), abs=1e-4)

def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a bad option value this way
        return exc.code


@pytest.mark.parametrize(
    "argv,job_text,needle",
    [
        (["point", "photon", "--param", "n=inf"], None, "must be finite"),
        (["point", "generic-ref", "--param", "n=nan"], None, "must be finite"),
        (["point", "lg-spin", "--param", "V=nan"], None, "must be finite"),
        (["point", "ecs-ref", "--param", "alpha=nan"], None, "must be finite"),
        (["point", "generic-ref", "--param", "V=-inf"], None, "must be finite"),
        (["point", "generic-ref", "--starts", "0"], None, "must be >= 1"),
        (["point", "generic-ref", "--starts", "-3"], None, "must be >= 1"),
        (["point", "generic-ref", "--starts", "two"], None, "invalid int value"),
        (["sweep", "{job}", "--csv", "{csv}", "--starts", "0"], GOOD_JOB, "must be >= 1"),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.steps = 2", "sweep.steps = nan"),
            "must be finite",
        ),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.steps = 2", "sweep.steps = inf"),
            "must be finite",
        ),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.max = 0.5", "sweep.max = inf"),
            "must be finite",
        ),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("params.n = 1", "params.n = nan"),
            "must be finite",
        ),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.min = 0.0", "sweep.min = -1e308").replace(
                "sweep.max = 0.5", "sweep.max = 1e308"
            ),
            "overflows a float",
        ),
        (["point", "generic-ref", "--starts", "1" + "0" * 400], None, "MAX_STARTS = 10000"),
        (["point", "generic-ref", "--starts", "1000000000000"], None, "MAX_STARTS = 10000"),
        (
            ["point", "generic-ref", "--param", "V=0.1", "--param", "V=0.3"],
            None,
            "--param V given more than once",
        ),
    ],
)
def test_bad_numbers_exit_two_with_a_one_line_error(tmp_path, capsys, argv, job_text, needle):
    job = write_job(tmp_path, job_text) if job_text is not None else ""
    csv_path = tmp_path / "out.csv"
    argv = [a.replace("{job}", job).replace("{csv}", str(csv_path)) for a in argv]
    assert _exit_code(argv) == EXIT_VALIDATION
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error:" in last and needle in last
    assert not csv_path.exists()


def test_a_bad_start_count_prints_the_optimisers_rule_alone(capsys):
    # no argparse usage line: the count is checked where the optimiser's rule lives
    assert _exit_code(["point", "generic-ref", "--starts", "0"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: starts must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv,job_text,code,needle",
    [
        (["point", "lg-spin", "--param", "omega=1e-300"], None, EXIT_VALIDATION, "[0.0001, 100]"),
        (["point", "lg-spin", "--param", "omega=100.5"], None, EXIT_VALIDATION, "[0.0001, 100]"),
        (["point", "lg-spin", "--param", "omega=100"], None, EXIT_OK, None),
        (["point", "lg-spin", "--param", "omega=1e-4"], None, EXIT_OK, None),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.steps = 2", "sweep.steps = 1e9"),
            EXIT_VALIDATION,
            "sweep.steps must be <= 10000",
        ),
        (
            ["sweep", "{job}", "--csv", "{csv}"],
            GOOD_JOB.replace("sweep.steps = 2", "sweep.steps = 10001"),
            EXIT_VALIDATION,
            "sweep.steps must be <= 10000",
        ),
        (["point", "generic-delta", "--param", "V=1e300"], None, EXIT_VALIDATION, "DELTA_MAX = 10000"),
        (["point", "generic-delta", "--param", "V=1.000001e8"], None, EXIT_VALIDATION, "DELTA_MAX = 10000"),
        (["point", "generic-delta", "--param", "V=1e8", "--starts", "1"], None, EXIT_OK, None),
        (["point", "lg-spin", "--param", "j=1e6"], None, EXIT_VALIDATION, "J_MAX = 256"),
        (["point", "lg-spin", "--param", "j=256.5"], None, EXIT_VALIDATION, "J_MAX = 256"),
        (["point", "lg-spin", "--param", "j=256"], None, EXIT_OK, None),
        (["point", "generic-delta", "--param", "n=100001", "--starts", "1"], None, EXIT_OK, None),
        (["point", "generic-delta", "--param", "n=1e8", "--starts", "1"], None, EXIT_OK, None),
        (["point", "generic-delta", "--param", "n=100000", "--param", "V=1", "--starts", "1"], None, EXIT_OK, None),
        # exp(-2 m^2 V) underflows to 0 through an overflowing square, silently
        (["point", "lg-spin", "--param", "j=3", "--param", "V=1e308"], None, EXIT_OK, None),
        # the smearing window spans 8 delta alone, whatever the size n
        (["point", "generic-delta", "--param", "n=1e12", "--param", "V=1e8", "--starts", "1"], None, EXIT_OK, None),
        # 2j overflows to infinity, which has no integer to round to
        (["point", "lg-spin", "--param", "j=1.7e308"], None, EXIT_VALIDATION, "j must be a positive integer"),
        (["point", "lg-nonclassical", "--param", "j=-1e308"], None, EXIT_VALIDATION, "j must be a positive integer"),
    ],
)
def test_documented_limits_exit_two_and_name_the_limit(tmp_path, capsys, argv, job_text, code, needle):
    job = write_job(tmp_path, job_text) if job_text is not None else ""
    csv_path = tmp_path / "out.csv"
    argv = [a.replace("{job}", job).replace("{csv}", str(csv_path)) for a in argv]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err.strip()
    if needle is None:
        assert err == ""
    else:
        assert "error:" in err and needle in err.splitlines()[-1]
        assert not csv_path.exists()


@pytest.mark.parametrize(
    "system,good,bad,needle",
    [
        ("generic-ref", "n = 2", "n = 0", "n must be an integer >= 1, got 0"),
        ("ecs-ref", "alpha = 1", "alpha = -1", "alpha must be > 0, got -1.0"),
        ("photon", "eta = 0.5", "eta = 2", "eta must lie in [0, 1], got 2.0"),
        ("lg-spin", "omega = 1", "omega = 1e3", "omega must lie in [0.0001, 100], got 1000.0"),
    ],
    ids=["generic-ref-n", "ecs-ref-alpha", "photon-eta", "lg-spin-omega"],
)
def test_a_bad_fixed_parameter_exits_two_before_the_first_point(
    tmp_path, capsys, monkeypatch, system, good, bad, needle
):
    calls = []
    for name in ("maximize_chsh", "maximize_lg"):
        def counted(*args, maximize=getattr(coarsebell.sweep, name), **kwargs):
            calls.append(args)
            return maximize(*args, **kwargs)

        monkeypatch.setattr(coarsebell.sweep, name, counted)
    job = write_job(tmp_path, f"system = {system}\nsweep.min = 0\nsweep.max = 0.5\nsweep.steps = 3\n"
                              f"series[0].label = good\nseries[0].params.{good}\n"
                              f"series[1].label = bad\nseries[1].params.{bad}\n")
    csv_path = tmp_path / "out.csv"
    assert main(["sweep", job, "--csv", str(csv_path), "--starts", "1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.strip() == f"error: series 'bad': {needle}"
    assert calls == []
    assert not csv_path.exists()


def _expected_digests():
    lines = (JOBS / "expected.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines if line.strip())}


# every job fast enough for Tier-1: the two LG jobs and the three closed-form ECS jobs
@pytest.mark.parametrize(
    "name", ["lg_spin", "lg_nonclassical", "ecs_efficiency", "ecs_reference", "ecs_homodyne_angle"]
)
def test_shipped_lg_and_ecs_jobs_write_their_committed_bytes(tmp_path, name):
    csv_path, svg_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    argv = ["sweep", str(JOBS / f"{name}.job"), "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(argv) == EXIT_OK
    expected = _expected_digests()
    for path in (csv_path, svg_path):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[path.name], path.name


EXTREMES = [0, -0.0, 5e-324, 1e-310, 1e-300, 1e-8, 0.5, 1, 2.5, 1e4, 1e8, 1e18, 1e300, 1.7e308, -1, -1e308]


@pytest.mark.parametrize(
    "system,name",
    [(system, name) for system, row in SYSTEMS.items() for name in (row.variable, *row.params)],
)
def test_every_parameter_at_every_extreme_ends_in_a_documented_code(capsys, system, name):
    for value in EXTREMES:
        code = main(["point", system, "--starts", "1", "--param", f"{name}={value}"])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NO_CONVERGENCE), (value, err)
        if code != EXIT_OK:
            assert [line.startswith("error:") for line in err.splitlines()] == [True], (value, err)
