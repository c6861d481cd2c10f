"""Bell-CHSH and Leggett-Garg inequality violations under coarsened measurement.

The package models three physical platforms — photon-number-entangled Fock
states, entangled coherent states, and a precessing spin-j — together with a
platform-agnostic two-outcome model, and quantifies how measurement
coarsening (finite detector resolution, smeared reference frames, photon
loss) degrades the optimized violation of the CHSH and Leggett-Garg
inequalities.
"""

__all__ = [
    "DiscreteGaussianWeights",
    "QuadratureRule",
    "discrete_gaussian",
    "gauss_hermite",
    "GenericParams",
    "corr_fuzzy_detector",
    "corr_coarse_reference",
    "corr_combined",
    "discrimination_error",
    "PhotonParams",
    "FockDensityMatrix",
    "build_psi_n",
    "rotate_polarization",
    "loss_channel",
    "dichotomic_expectation",
    "corr_photon",
    "photon_correlator",
    "EcsParams",
    "ConvergenceError",
    "corr_ecs_efficiency",
    "corr_ecs_reference",
    "corr_ecs_homodyne_angle",
    "homodyne_angle_average",
    "SpinParams",
    "LgTimes",
    "parity_operator",
    "corr_spin_parity",
    "corr_spin_parity_quad",
    "corr_nonclassical",
    "lg_function",
    "Correlator",
    "ChshSettings",
    "NonFiniteObjectiveError",
    "OptimizationResult",
    "chsh_value",
    "maximize",
    "maximize_chsh",
    "maximize_lg",
    "SweepSpec",
    "SeriesSpec",
    "SweepRow",
    "SweepResult",
    "JobError",
    "parse_job",
    "run_sweep",
    "optimized_point",
    "emit_csv",
    "emit_svg",
    "__version__",
]

__version__ = "0.1.0"

from .kernels import DiscreteGaussianWeights, discrete_gaussian  # noqa: E402
from .generic import (  # noqa: E402
    GenericParams,
    corr_coarse_reference,
    corr_fuzzy_detector,
    discrimination_error,
)
from .photon import PhotonParams, photon_correlator  # noqa: E402
from .ecs import (  # noqa: E402
    ConvergenceError,
    EcsParams,
    corr_ecs_efficiency,
    corr_ecs_homodyne_angle,
    corr_ecs_reference,
    homodyne_angle_average,
)
from .leggett_garg import SpinParams, corr_nonclassical, corr_spin_parity  # noqa: E402
from .optimize import (  # noqa: E402
    ChshSettings,
    Correlator,
    LgTimes,
    NonFiniteObjectiveError,
    OptimizationResult,
    chsh_value,
    lg_function,
    maximize,
    maximize_chsh,
    maximize_lg,
)
from .sweep import (  # noqa: E402
    JobError,
    SeriesSpec,
    SweepResult,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_svg,
    optimized_point,
    parse_job,
    run_sweep,
)
# The oracles (and the numpy they need) load on first use of one of these
# names, so that importing the package or its CLI stays light.
_ORACLE_NAMES = frozenset({
    "FockDensityMatrix",
    "QuadratureRule",
    "build_psi_n",
    "corr_combined",
    "corr_photon",
    "corr_spin_parity_quad",
    "dichotomic_expectation",
    "gauss_hermite",
    "loss_channel",
    "parity_operator",
    "rotate_polarization",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
