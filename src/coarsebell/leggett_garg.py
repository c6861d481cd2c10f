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

over three non-negative time gaps g1, g2, g3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import QuadratureRule, gauss_hermite, require_finite

__all__ = [
    "SpinParams",
    "LgTimes",
    "parity_operator",
    "corr_spin_parity",
    "corr_spin_parity_quad",
    "corr_nonclassical",
    "lg_function",
]

_SQRT_2 = math.sqrt(2.0)

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
        return np.arange(-self.j, self.j + 0.5)


@dataclass(frozen=True)
class LgTimes:
    """Three non-negative gaps between the four measurement times."""

    gaps: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.gaps) != 3 or any(g < 0.0 for g in self.gaps):
            raise ValueError(f"need three non-negative gaps, got {self.gaps!r}")


def parity_operator(j: float) -> np.ndarray:
    """Dichotomic parity observable in the m = -j..j projection basis."""
    j = _check_spin(j)
    m = np.arange(-j, j + 0.5)
    signs = np.where(np.round(j - m).astype(int) % 2 == 0, 1.0, -1.0)
    return np.diag(signs)


@lru_cache(maxsize=64)
def _spin_terms(params: SpinParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-sector damping exp(-2 m^2 Delta^2) and angular factor 2 m omega."""
    m = params.magnetic_numbers()
    damping, freq = np.exp(-2.0 * (m * params.Delta) ** 2), 2.0 * m * params.omega
    damping.flags.writeable = False
    freq.flags.writeable = False
    return damping, freq


def corr_spin_parity(tau: float, params: SpinParams) -> float:
    """Two-time parity correlation of the smeared spin-j measurement.

    Closed sum over projection quantum numbers; each m-sector is damped by
    ``exp(-2 m^2 Delta^2)``, so the spin-1/2 case reduces to
    ``exp(-Delta^2/2) cos(omega tau)`` while large spins lose their
    high-frequency content first.
    """
    damping, freq = _spin_terms(params)
    total = float(np.sum(damping * np.cos(freq * tau)))
    return total / (2.0 * params.j + 1.0)


def corr_spin_parity_quad(
    tau: float, params: SpinParams, rule: QuadratureRule | None = None
) -> float:
    """Same correlation evaluated through the Gaussian angle average.

    Each m-sector phase ``exp(2 i m theta)`` is averaged over a Gaussian
    rotation angle centred at ``omega tau`` by Gauss-Hermite quadrature;
    kept separate from the closed form so the two routes can be compared.
    """
    if rule is None:
        rule = gauss_hermite(40)
    m = params.magnetic_numbers()
    center = params.omega * tau
    if params.Delta == 0.0:
        total = float(np.sum(np.cos(2.0 * m * center)))
        return total / (2.0 * params.j + 1.0)
    scale = _SQRT_2 * params.Delta
    total = 0.0
    for x, w in zip(rule.nodes, rule.weights):
        angle = center + scale * x
        total += w * float(np.sum(np.cos(2.0 * m * angle)))
    return total / (2.0 * params.j + 1.0)


def corr_nonclassical(tau: float, params: SpinParams) -> float:
    """Invasion-free two-level probe correlation; deliberately ignores ``j``."""
    damping = math.exp(-0.5 * params.Delta * params.Delta)
    return damping * math.cos(params.omega * tau)


def lg_function(correlator, times: LgTimes) -> float:
    """Four-time combination K = C(g1) + C(g2) + C(g3) - C(g1+g2+g3)."""
    g1, g2, g3 = times.gaps
    return correlator(g1) + correlator(g2) + correlator(g3) - correlator(g1 + g2 + g3)
