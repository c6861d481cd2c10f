"""Temporal correlations of a precessing spin read out by a coarse parity probe.

A spin-j system starts maximally mixed, precesses under a transverse
rotation at angular frequency ``omega``, and is measured at four times by
the dichotomic parity observable

    Q = sum_m (-1)^(j - m) |m><m|,      Q^2 = 1.

With the rotation reference between consecutive measurements smeared by a
Gaussian of width ``Delta``, the two-time correlation depends only on the
gap tau and reduces to the closed sum

    C(tau) = 1/(2j+1) * sum_{m=-j}^{j} exp(-2 m^2 Delta^2) cos(2 m omega tau).

Larger spins dephase faster under the same smearing because the high-m
terms pick up the exp(-2 m^2 Delta^2) suppression.  An invasion-free
two-level probe with the same smearing instead gives the j-independent

    C(tau) = exp(-Delta^2 / 2) cos(omega tau),

whose optimised four-time combination crosses the macrorealist bound K = 2
exactly at Delta^2 = ln 2.

The four-time figure of merit is

    K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3)

over three non-negative time gaps g1, g2, g3 (``optimize.lg_function``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .kernels import require_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpinParams",
    "spin_parity_correlator",
    "nonclassical_correlator",
    "corr_spin_parity",
    "corr_nonclassical",
]

# The LG optimiser polishes time gaps to an absolute tolerance of 1e-8.  Over
# this range of omega the period 2 pi / omega lies between 0.063 and 63,000,
# so that tolerance stays below 1.6e-7 of a period, and the float spacing of
# a gap (below 1e-11) stays far below the tolerance.
OMEGA_MIN = 1e-4
OMEGA_MAX = 1e2

# Largest spin.  At Delta = 0 the correlator of spin j has harmonics up to
# order 2j of omega, and the LG grid resolves a harmonic only with 16 points
# per period on at most 8192 points, so 16 * 2j <= 8192: j <= 256.
J_MAX = 256


def _check_spin(j: float) -> float:
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-9 or round(two_j) < 1:
        raise ValueError(f"j must be a positive integer or half-integer, got {j!r}")
    return round(two_j) / 2.0


@dataclass(frozen=True)
class SpinParams:
    """Spin size ``j`` (half-integer), precession rate ``omega``, smearing ``Delta``."""

    j: float
    omega: float = 1.0
    Delta: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        object.__setattr__(self, "j", _check_spin(self.j))
        if self.j > J_MAX:
            raise ValueError(f"j must be <= J_MAX = {J_MAX}, got {self.j}")
        if not OMEGA_MIN <= self.omega <= OMEGA_MAX:
            raise ValueError(
                f"omega must lie in [{OMEGA_MIN:g}, {OMEGA_MAX:g}], got {self.omega}"
            )
        if self.Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {self.Delta}")

    def magnetic_numbers(self) -> np.ndarray:
        """The 2j+1 projection values m = -j .. j."""
        import numpy as np

        return np.arange(-self.j, self.j + 0.5)


@lru_cache(maxsize=64)
def _spin_terms(params: SpinParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-sector damping exp(-2 m^2 Delta^2) and angular factor 2 m omega."""
    import numpy as np

    m = params.magnetic_numbers()
    damping, freq = np.exp(-2.0 * (m * params.Delta) ** 2), 2.0 * m * params.omega
    damping.flags.writeable = False
    freq.flags.writeable = False
    return damping, freq


def spin_parity_correlator(params: SpinParams) -> Callable[[float], float]:
    """Two-time parity correlation of the smeared spin-j measurement.

    Returns ``tau -> C`` with the sector factors of ``params`` looked up
    once.  Closed sum over projection quantum numbers; each m-sector is
    damped by ``exp(-2 m^2 Delta^2)``, so the spin-1/2 case reduces to
    ``exp(-Delta^2/2) cos(omega tau)`` while large spins lose their
    high-frequency content first.
    """
    import numpy as np

    damping, freq = _spin_terms(params)
    norm = 2.0 * params.j + 1.0
    # np.sum's Python wrapper was ~40 % of a call; np.add.reduce is the same ufunc, same bits
    cos, add_up = np.cos, np.add.reduce

    def corr(tau: float) -> float:
        return float(add_up(damping * cos(freq * tau))) / norm

    return corr


def corr_spin_parity(tau: float, params: SpinParams) -> float:
    """:func:`spin_parity_correlator` of ``params`` at one gap."""
    return spin_parity_correlator(params)(tau)


def nonclassical_correlator(params: SpinParams) -> Callable[[float], float]:
    """Invasion-free two-level probe correlation; deliberately ignores ``j``.

    Returns ``tau -> exp(-Delta^2 / 2) cos(omega tau)`` with the damping
    computed once.
    """
    damping = math.exp(-0.5 * params.Delta * params.Delta)
    omega, cos = params.omega, math.cos

    def corr(tau: float) -> float:
        return damping * cos(omega * tau)

    return corr


def corr_nonclassical(tau: float, params: SpinParams) -> float:
    """:func:`nonclassical_correlator` of ``params`` at one gap."""
    return nonclassical_correlator(params)(tau)
