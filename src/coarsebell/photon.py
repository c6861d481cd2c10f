"""Polarisation-entangled multiphoton pairs with lossy dichotomic detection.

The state space is a four-mode Fock space with mode order (aH, aV, bH, bV).
The entangled input is

    |psi_n> = ( |n,0>_a |0,n>_b + |0,n>_a |n,0>_b ) / sqrt(2),

where |n,0> means n photons in the H mode and none in V.

Each party applies a polarisation rotation acting on the two-dimensional
span of {|n,0>, |0,n>},

    U(theta) = exp[ i theta ( |n,0><0,n| + |0,n><n,0| ) ],

then suffers photon loss on every mode (a beam splitter of transmissivity
``eta`` in front of the detector), and finally reads the dichotomic
observable that assigns +1 to any purely-H occupation and to the vacuum,
-1 to any purely-V occupation, and 0 to mixed H/V occupation.  Reference
fuzziness ``Delta`` smears both rotation angles with independent Gaussians.

Rotation and loss act locally and the readout is diagonal, so with
m = (1 - eta)^n, the chance that all n photons of one party are lost, and
an angle average that damps each party by exp(-2 Delta^2), the correlation is

    E = m^2 - (1 - m)^2 exp(-4 Delta^2) cos 2(theta_a + theta_b).

``photon_correlator`` binds it for any n and is what sweeps optimise.
``oracles.corr_photon`` runs the truncated-Fock density-matrix pipeline at
every quadrature node and is the independent check, limited to n <= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .kernels import require_finite

__all__ = [
    "PhotonParams",
    "corr_photon_closed",
    "photon_correlator",
]


@dataclass(frozen=True)
class PhotonParams:
    """Pair size ``n``, detector transmissivity ``eta``, reference width ``Delta``."""

    n: int
    eta: float = 1.0
    Delta: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {self.Delta}")


def photon_correlator(params: PhotonParams) -> Callable[[float, float], float]:
    """Closed form of ``oracles.corr_photon`` (see the module docstring), for any ``n``.

    Returns ``(theta_a, theta_b) -> E`` with the loss and damping factors
    of ``params`` computed once.
    """
    miss = (1.0 - params.eta) ** params.n
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    floor, scale = miss * miss, (1.0 - miss) ** 2 * damping
    cos = math.cos

    def corr(theta_a: float, theta_b: float) -> float:
        return floor - scale * cos(2.0 * (theta_a + theta_b))

    return corr


def corr_photon_closed(theta_a: float, theta_b: float, params: PhotonParams) -> float:
    """:func:`photon_correlator` of ``params`` at one pair of angles."""
    return photon_correlator(params)(theta_a, theta_b)
