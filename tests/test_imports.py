"""The import contract: neither the CLI nor a wildcard import loads numpy or the oracles,
and scipy is optional.

Each check runs in a fresh interpreter, because this test process has
imported numpy, scipy and the oracles already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarsebell
from coarsebell import ecs, generic, kernels, leggett_garg, optimize, oracles, photon, sweep

# the program modules, whose __all__ lists the package exports
PROGRAM = (kernels, generic, photon, ecs, leggett_garg, optimize, sweep)
# every module whose public names the package resolves, the lazily loaded oracles included
MODULES = (*PROGRAM, oracles)

SRC = Path(coarsebell.__file__).resolve().parents[1]
JOBS = SRC.parent / "jobs"

# runs the CLI on argv, then prints its exit code and the heavy modules it loaded
RUN_CLI = """\
import sys
{prelude}
from coarsebell.cli import main
code = main(sys.argv[1:])
print(code, *sorted({{"numpy", "scipy", "coarsebell.oracles"}} & set(sys.modules)))
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def run_sweep_job(tmp_path: Path, job: str, prelude: str = "") -> list[str]:
    # one start per point: what a sweep imports does not depend on the start count
    argv = ["sweep", str(JOBS / job), "--csv", str(tmp_path / "out.csv"), "--starts", "1"]
    proc = run_python(RUN_CLI.format(prelude=prelude), *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_cli_loads_neither_numpy_nor_scipy_nor_the_oracles():
    proc = run_python(
        "import sys, coarsebell.cli\n"
        "print(*sorted({'numpy', 'scipy', 'coarsebell.oracles', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_wildcard_import_loads_neither_numpy_nor_the_oracles():
    proc = run_python(
        "import sys\n"
        "from coarsebell import *\n"
        "print(run_sweep.__module__, *sorted({'numpy', 'coarsebell.oracles'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["coarsebell.sweep"]


# only lg-spin loads numpy, for its spin sectors; generic-delta builds its kernel in floats
@pytest.mark.parametrize(
    "job",
    [
        "ecs_reference.job",
        "generic_reference.job",
        "generic_final_resolution.job",
        "photon_n1.job",
        "lg_nonclassical.job",
    ],
)
def test_sweeps_outside_lg_spin_never_load_numpy(tmp_path, job):
    assert run_sweep_job(tmp_path, job) == ["0"]


def test_a_smeared_generic_delta_point_never_loads_numpy():
    proc = run_python(RUN_CLI.format(prelude=""), "point", "generic-delta", "--param", "V=0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"


def test_a_closed_form_lg_point_never_loads_numpy():
    argv = ["point", "lg-nonclassical", "--param", "V=0.3", "--param", "omega=2.5"]
    proc = run_python(RUN_CLI.format(prelude=""), *argv)
    assert proc.returncode == 0, proc.stderr
    # the fixed argmax pi / (4 omega), then the exit code and no heavy module
    gap = "0.314159265359"
    assert proc.stdout.splitlines()[1:] == [f"argmax = ({gap}, {gap}, {gap})", "0"]


@pytest.mark.parametrize("job", ["photon_n2.job", "lg_spin.job"])
def test_sweeps_run_without_scipy(tmp_path, job):
    blocked = 'sys.modules["scipy"] = None  # any import of scipy now raises ImportError'
    assert run_sweep_job(tmp_path, job, prelude=blocked)[0] == "0"


def test_a_missing_scipy_is_one_import_error_naming_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
    with pytest.raises(ImportError, match=r"coarsebell\[oracles\]") as info:
        oracles._hermite_rule.__wrapped__(3)  # bypasses the cache of built rules
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_the_oracle_names_load_the_oracles_on_first_use():
    proc = run_python(
        "import sys\n"
        "import coarsebell\n"
        "before = 'coarsebell.oracles' in sys.modules\n"
        "from coarsebell import FockDensityMatrix, build_psi_n, loss_channel, rotate_polarization\n"
        "from coarsebell import oracles\n"
        "print(before, FockDensityMatrix is oracles.FockDensityMatrix,\n"
        "      rotate_polarization(build_psi_n(1), 'a', 0.3, 1).n_max)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "1"]


def test_every_exported_name_resolves_and_is_listed():
    assert all(getattr(coarsebell, name) is not None for name in coarsebell.__all__)
    assert set(coarsebell.__all__) | set(oracles.__all__) <= set(dir(coarsebell))
    assert coarsebell.corr_photon is oracles.corr_photon
    with pytest.raises(AttributeError, match="no attribute 'corr_nothing'"):
        coarsebell.corr_nothing  # noqa: B018


# the oracles that only unit tests call, which tests/reference_oracles.py holds
TEST_ONLY_ORACLES = (
    "f_delta", "g_delta", "corr_coarse_reference_quad", "corr_combined",
    "oracle_ecs_quadrature", "parity_operator",
)


def test_the_package_ships_only_the_oracles_that_criteria_and_benchmark_reach():
    assert coarsebell._ORACLE_NAMES == (
        "QuadratureRule", "gauss_hermite", "angle_average", "FockDensityMatrix",
        "mode_observable", "build_psi_n", "rotate_polarization", "loss_channel",
        "dichotomic_expectation", "corr_photon", "corr_spin_parity_quad",
    )
    for name in TEST_ONLY_ORACLES:
        with pytest.raises(AttributeError):
            getattr(coarsebell, name)
        assert name not in dir(coarsebell) and name not in oracles.__all__
        assert not hasattr(oracles, name)


def test_the_package_exports_exactly_the_modules_lists_with_no_name_twice():
    # a repeat would mean that one module's wildcard import shadows another's name
    assert len(set(coarsebell.__all__)) == len(coarsebell.__all__)
    listed = ["__version__", *(name for module in PROGRAM for name in module.__all__)]
    assert sorted(coarsebell.__all__) == sorted(listed)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_exported_name_is_the_object_its_module_holds(module):
    for name in module.__all__:
        assert getattr(coarsebell, name) is getattr(module, name), name
