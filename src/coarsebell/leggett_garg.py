"""Temporal correlations of a precessing spin read out by a coarse parity probe.

A spin-j system starts maximally mixed, precesses under a transverse
rotation at angular frequency ``omega``, and is measured at four times by
the dichotomic parity observable

    Q = sum_m (-1)^(j - m) |m><m|,      Q^2 = 1.

With the rotation reference between consecutive measurements smeared by a
Gaussian of width ``Delta``, the two-time correlation depends only on the
gap tau, and sector m, a harmonic of order 2m in that rotation, is damped by
``kernels.smear_damping(2 m Delta)``, the rule of the ``kernels`` docstring.
It reduces to the closed sum

    C(tau) = 1/(2j+1) * sum_{m=-j}^{j} exp(-2 m^2 Delta^2) cos(2 m omega tau).

Larger spins dephase faster under the same smearing because the high-m
terms pick up the exp(-2 m^2 Delta^2) suppression.  An invasion-free
two-level probe with the same smearing, damped by ``smear_damping(Delta)``,
instead gives the j-independent

    C(tau) = exp(-Delta^2 / 2) cos(omega tau),

whose optimised four-time combination crosses the macrorealist bound K = 2
exactly at Delta^2 = ln 2.

The four-time figure of merit is

    K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3)

over three non-negative time gaps g1, g2, g3 (``optimize.lg_function``).

Both factories return a form that carries these coefficients: the spin sum
is a ``kernels.CosineSeries``, which ``optimize.maximize_lg`` samples on its
grid in one numpy product per step, and the two-level probe a
``kernels.Harmonic``, whose maximum 2 sqrt(2) exp(-Delta^2 / 2) the
optimiser takes in closed form, without numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .kernels import CosineSeries, Harmonic, Validated, bound, require_finite, smear_damping

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
    # a non-finite 2j (from |j| near the float maximum) has no integer to round to
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > 1e-9 or round(two_j) < 1:
        raise ValueError(f"j must be a positive integer or half-integer, got {j!r}")
    return round(two_j) / 2.0


class SpinParams(Validated, namedtuple("SpinParams", "j omega Delta", defaults=(1.0, 0.0))):
    """Spin size ``j`` (half-integer), precession rate ``omega``, smearing ``Delta``."""

    __slots__ = ()

    def __new__(cls, j: float, omega: float = 1.0, Delta: float = 0.0):
        require_finite(cls, j, omega, Delta)
        j = _check_spin(j)
        if j > J_MAX:
            raise ValueError(f"j must be <= J_MAX = {J_MAX}, got {j}")
        if not OMEGA_MIN <= omega <= OMEGA_MAX:
            raise ValueError(f"omega must lie in [{OMEGA_MIN:g}, {OMEGA_MAX:g}], got {omega}")
        if Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {Delta}")
        return tuple.__new__(cls, (j, omega, Delta))

    def magnetic_numbers(self) -> np.ndarray:
        """The 2j+1 projection values m = -j .. j."""
        import numpy as np

        return np.arange(-self.j, self.j + 0.5)


# The arrays are read-only: every series of one configuration shares them.
def _spin_terms(params: SpinParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-sector damping exp(-2 m^2 Delta^2) and angular factor 2 m omega."""
    m = params.magnetic_numbers()
    damping = smear_damping(2.0 * m * params.Delta)
    freq = 2.0 * m * params.omega
    damping.flags.writeable = False
    freq.flags.writeable = False
    return damping, freq


def spin_parity_correlator(params: SpinParams) -> CosineSeries:
    """Two-time parity correlation of the smeared spin-j measurement.

    Returns ``tau -> C`` as a ``kernels.CosineSeries`` over the sector
    factors of ``params``, which ``optimize.maximize_lg`` samples in one
    numpy product per grid step.  Closed sum over projection quantum
    numbers; each m-sector is damped by ``exp(-2 m^2 Delta^2)``, so the
    spin-1/2 case reduces to ``exp(-Delta^2/2) cos(omega tau)`` (still a
    two-term series) while large spins lose their high-frequency content
    first.
    """
    damping, freq = bound(_spin_terms, params)
    return CosineSeries(damping, freq, 2.0 * params.j + 1.0, 2.0 * math.pi / params.omega)


def corr_spin_parity(tau: float, params: SpinParams) -> float:
    """:func:`spin_parity_correlator` of ``params`` at one gap."""
    return spin_parity_correlator(params)(tau)


def nonclassical_correlator(params: SpinParams) -> Harmonic:
    """Invasion-free two-level probe correlation; deliberately ignores ``j``.

    Returns ``tau -> exp(-Delta^2 / 2) cos(omega tau)`` as a
    ``kernels.Harmonic``, whose four-time maximum ``optimize.maximize_lg``
    takes in closed form, with the damping computed once.
    """
    return Harmonic(smear_damping(params.Delta), params.omega)


def corr_nonclassical(tau: float, params: SpinParams) -> float:
    """:func:`nonclassical_correlator` of ``params`` at one gap."""
    return bound(nonclassical_correlator, params)(tau)
