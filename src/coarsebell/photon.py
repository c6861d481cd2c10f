"""Polarisation-entangled multiphoton pairs with lossy dichotomic detection.

The state space is a four-mode truncated Fock space with mode order
(aH, aV, bH, bV) and a photon-number cutoff equal to the pair size ``n``
(the dynamics implemented here never populate higher occupations, so the
cutoff is exact).  The entangled input is

    |psi_n> = ( |n,0>_a |0,n>_b + |0,n>_a |n,0>_b ) / sqrt(2),

where |n,0> means n photons in the H mode and none in V.

Each party applies a polarisation rotation acting on the two-dimensional
span of {|n,0>, |0,n>},

    U(theta) = exp[ i theta ( |n,0><0,n| + |0,n><n,0| ) ],

then suffers photon loss on every mode (a beam splitter of transmissivity
``eta`` in front of the detector), and finally reads the dichotomic
observable that assigns +1 to any purely-H occupation and to the vacuum,
-1 to any purely-V occupation, and 0 to mixed H/V occupation.

The operator ordering is fixed: rotate first, then lose photons, then
detect.  Reference fuzziness ``Delta`` smears both rotation angles with
independent Gaussians, realised as a tensor-product Gauss-Hermite average.

Rotation and loss act locally and the readout is diagonal, so with
m = (1 - eta)^n, the chance that all n photons of one party are lost, and
an angle average that damps each party by exp(-2 Delta^2), the correlation is

    E = m^2 - (1 - m)^2 exp(-4 Delta^2) cos 2(theta_a + theta_b).

``corr_photon_closed`` evaluates it for any n and is what sweeps optimise.
``corr_photon`` runs the density-matrix pipeline at every quadrature node and
is the independent oracle, limited to n <= 4 (its matrix has (n + 1)^8 entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .kernels import QuadratureRule, gauss_hermite, require_finite

__all__ = [
    "PhotonParams",
    "FockDensityMatrix",
    "MODE_NAMES",
    "mode_observable",
    "build_psi_n",
    "rotate_polarization",
    "loss_channel",
    "dichotomic_expectation",
    "corr_photon",
    "corr_photon_closed",
    "photon_correlator",
]

MODE_NAMES = ("aH", "aV", "bH", "bV")

_SQRT_2 = math.sqrt(2.0)
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Density matrix on four Fock modes truncated at ``n_max`` photons each.

    ``entries`` is indexed by flattened occupation tuples in mode order
    (aH, aV, bH, bV), row-major.  Construction enforces hermiticity and unit
    trace; positivity is spot-checked in the test suite rather than on every
    construction (it would dominate the cost of the pipeline).
    """

    entries: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        d = self.n_max + 1
        dim = d ** 4
        if self.entries.shape != (dim, dim):
            raise ValueError(
                f"entries must be {dim}x{dim} for n_max={self.n_max}, "
                f"got shape {self.entries.shape}"
            )
        if not np.allclose(self.entries, self.entries.conj().T, atol=_HERMITICITY_TOL, rtol=0.0):
            raise ValueError("density matrix is not hermitian")
        tr = float(np.real(np.trace(self.entries)))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        self.entries.flags.writeable = False

    @property
    def mode_dim(self) -> int:
        return self.n_max + 1


def mode_observable(n_max: int) -> np.ndarray:
    """Diagonal of the single-party dichotomic observable on the (H, V) pair.

    Indexed by ``iH * (n_max + 1) + iV``:  +1 for pure-H occupation and for
    the vacuum, -1 for pure-V occupation, 0 when both polarisations are
    occupied.
    """
    d = n_max + 1
    diag = np.zeros(d * d)
    for i_h in range(d):
        for i_v in range(d):
            idx = i_h * d + i_v
            if i_v == 0:
                diag[idx] = 1.0  # includes the vacuum
            elif i_h == 0:
                diag[idx] = -1.0
            else:
                diag[idx] = 0.0
    diag.flags.writeable = False
    return diag


@lru_cache(maxsize=8)
def build_psi_n(n: int) -> FockDensityMatrix:
    """Pure entangled pair state |psi_n> as a density matrix, cutoff ``n``."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    d = n + 1
    party = d * d
    v_h = np.zeros(party)
    v_h[n * d] = 1.0  # |n, 0>
    v_v = np.zeros(party)
    v_v[n] = 1.0  # |0, n>
    psi = (np.kron(v_h, v_v) + np.kron(v_v, v_h)) / _SQRT_2
    return FockDensityMatrix(entries=np.outer(psi, psi).astype(complex), n_max=n)


@lru_cache(maxsize=64)
def _party_rotation(n_max: int, n: int, theta: float) -> np.ndarray:
    d = n_max + 1
    u = np.eye(d * d, dtype=complex)
    i_h = n * d  # |n, 0>
    i_v = n      # |0, n>
    c, s = math.cos(theta), math.sin(theta)
    u[i_h, i_h] = c
    u[i_v, i_v] = c
    u[i_h, i_v] = 1j * s
    u[i_v, i_h] = 1j * s
    u.flags.writeable = False
    return u


def rotate_polarization(rho: FockDensityMatrix, party: str, theta: float, n: int) -> FockDensityMatrix:
    """Rotate one party's polarisation within the span of {|n,0>, |0,n>}.

    Parameters
    ----------
    rho : FockDensityMatrix
        State to rotate.
    party : {"a", "b"}
        Which party's (H, V) mode pair the rotation acts on.
    theta : float
        Rotation angle in radians.
    n : int
        Photon-number block the rotation couples; must not exceed the cutoff.
    """
    if party not in ("a", "b"):
        raise ValueError(f"party must be 'a' or 'b', got {party!r}")
    if not 1 <= n <= rho.n_max:
        raise ValueError(f"rotation block n={n} incompatible with cutoff {rho.n_max}")
    d = rho.mode_dim
    p = d * d
    u = _party_rotation(rho.n_max, n, theta)
    r4 = rho.entries.reshape(p, p, p, p)  # [a_row, b_row, a_col, b_col]
    if party == "a":
        out = np.einsum("ij,jklm,nl->iknm", u, r4, u.conj(), optimize=True)
    else:
        out = np.einsum("ij,kjlm,nm->kiln", u, r4, u.conj(), optimize=True)
    return FockDensityMatrix(entries=out.reshape(p * p, p * p), n_max=rho.n_max)


@lru_cache(maxsize=64)
def _kraus_ops(n_max: int, eta: float) -> tuple[np.ndarray, ...]:
    """Amplitude-damping Kraus operators for one mode at transmissivity eta."""
    d = n_max + 1
    ops = []
    for lost in range(d):
        k = np.zeros((d, d))
        for m in range(lost, d):
            k[m - lost, m] = (
                math.sqrt(comb(m, lost)) * eta ** ((m - lost) / 2.0) * (1.0 - eta) ** (lost / 2.0)
            )
        k.flags.writeable = False
        ops.append(k)
    return tuple(ops)


def loss_channel(rho: FockDensityMatrix, mode: int, eta: float) -> FockDensityMatrix:
    """Photon loss (beam splitter of transmissivity ``eta``) on one mode.

    ``mode`` indexes the order (aH, aV, bH, bV).  The channel is trace
    preserving and maps |m><m| to a binomial mixture over lower occupations.
    """
    if mode not in (0, 1, 2, 3):
        raise ValueError(f"mode must be in 0..3, got {mode!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    d = rho.mode_dim
    r8 = rho.entries.reshape([d] * 8)  # row modes 0..3, column modes 4..7
    out = np.zeros_like(r8)
    for k in _kraus_ops(rho.n_max, eta):
        t = np.tensordot(k, r8, axes=([1], [mode]))
        t = np.moveaxis(t, 0, mode)
        t = np.tensordot(t, k.conj(), axes=([4 + mode], [1]))
        t = np.moveaxis(t, -1, 4 + mode)
        out += t
    dim = d ** 4
    return FockDensityMatrix(entries=out.reshape(dim, dim), n_max=rho.n_max)


def dichotomic_expectation(rho: FockDensityMatrix) -> float:
    """Expectation of the product of the two parties' dichotomic observables."""
    o = mode_observable(rho.n_max)
    joint = np.kron(o, o)
    return float(np.real(np.sum(np.diagonal(rho.entries) * joint)))


def _corr_sharp(phi_a: float, phi_b: float, n: int, eta: float) -> float:
    """Full pipeline at sharp angles: rotate, lose photons, detect."""
    rho = build_psi_n(n)
    rho = rotate_polarization(rho, "a", phi_a, n)
    rho = rotate_polarization(rho, "b", phi_b, n)
    for mode in range(4):
        rho = loss_channel(rho, mode, eta)
    return dichotomic_expectation(rho)


def corr_photon(
    theta_a: float,
    theta_b: float,
    params: PhotonParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Two-party correlation of the lossy photon-pair measurement.

    Reference fuzziness is applied as a tensor-product Gauss-Hermite average
    over independent offsets of both rotation angles (order 20 per axis by
    default); every node evaluates the full density-matrix pipeline.
    """
    if params.n > 4:
        raise ValueError(f"the density-matrix pipeline supports n <= 4, got n={params.n}")
    Delta = params.Delta
    if Delta == 0.0:
        return _corr_sharp(theta_a, theta_b, params.n, params.eta)
    if rule is None:
        rule = gauss_hermite(20)
    scale = _SQRT_2 * Delta
    total = 0.0
    for xa, wa in zip(rule.nodes, rule.weights):
        pa = theta_a + scale * xa
        for xb, wb in zip(rule.nodes, rule.weights):
            pb = theta_b + scale * xb
            total += wa * wb * _corr_sharp(pa, pb, params.n, params.eta)
    return total


def corr_photon_closed(theta_a: float, theta_b: float, params: PhotonParams) -> float:
    """Closed form of :func:`corr_photon` (see the module docstring), for any ``n``."""
    miss = (1.0 - params.eta) ** params.n
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    return miss * miss - (1.0 - miss) ** 2 * damping * math.cos(2.0 * (theta_a + theta_b))


def photon_correlator(params: PhotonParams):
    """Two-argument evaluator ``(theta_a, theta_b) -> E`` of the closed form."""
    return lambda theta_a, theta_b: corr_photon_closed(theta_a, theta_b, params)
