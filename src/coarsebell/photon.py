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

``photon_correlator`` binds it for any n as a ``kernels.CosineForm``, which
sweeps optimise; ``oracles.corr_photon``, the independent check (n <= 4),
averages the truncated-Fock density-matrix pipeline over quadrature nodes.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .kernels import CosineForm, Validated, check_size, require_finite

__all__ = [
    "PhotonParams",
    "photon_correlator",
]


class PhotonParams(Validated, namedtuple("PhotonParams", "n eta Delta", defaults=(1.0, 0.0))):
    """Pair size ``n``, detector transmissivity ``eta``, reference width ``Delta``."""

    __slots__ = ()

    def __new__(cls, n: int, eta: float = 1.0, Delta: float = 0.0):
        require_finite(cls, n, eta, Delta)
        size = check_size(n)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        if Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {Delta}")
        return tuple.__new__(cls, (size, eta, Delta))


def photon_correlator(params: PhotonParams) -> CosineForm:
    """Closed form of ``oracles.corr_photon`` (see the module docstring), for any ``n``.

    Returns E as the ``kernels.CosineForm(m^2, 0, -(1 - m)^2 exp(-4 Delta^2))``,
    with the loss and damping factors of ``params`` computed once.
    """
    miss = (1.0 - params.eta) ** params.n
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    return CosineForm(miss * miss, 0.0, -((1.0 - miss) ** 2 * damping))
