"""Bell-CHSH and Leggett-Garg inequality violations under coarsened measurement.

The package models three physical platforms — photon-number-entangled Fock
states, entangled coherent states, and a precessing spin-j — together with a
platform-agnostic two-outcome model, and quantifies how measurement
coarsening (finite detector resolution, smeared reference frames, photon
loss) degrades the optimized violation of the CHSH and Leggett-Garg
inequalities.

A public name is written once, in its module's ``__all__``.  The package
exports the union of those lists: the seven modules below are re-exported as
they load, and the names of ``oracles`` load that module (and the numpy it
needs) on first use, so that importing the package or its CLI stays light.
"""

from . import kernels, generic, photon, ecs, leggett_garg, optimize, sweep
from .kernels import *  # noqa: F403
from .generic import *  # noqa: F403
from .photon import *  # noqa: F403
from .ecs import *  # noqa: F403
from .leggett_garg import *  # noqa: F403
from .optimize import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

# oracles.__all__, copied, since reading it would load the module; a test holds them equal
_ORACLE_NAMES = (
    "QuadratureRule", "gauss_hermite", "angle_average", "f_delta", "g_delta",
    "corr_coarse_reference_quad", "corr_combined", "FockDensityMatrix", "mode_observable",
    "build_psi_n", "rotate_polarization", "loss_channel", "dichotomic_expectation",
    "corr_photon", "oracle_ecs_quadrature", "parity_operator", "corr_spin_parity_quad",
)

__all__ = ["__version__", *_ORACLE_NAMES]
__all__ += kernels.__all__
__all__ += generic.__all__
__all__ += photon.__all__
__all__ += ecs.__all__
__all__ += leggett_garg.__all__
__all__ += optimize.__all__
__all__ += sweep.__all__


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
