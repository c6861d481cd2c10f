"""The discrete Gaussian smearing kernel, and the finiteness check of model params.

Every coarsening mechanism in this package is a Gaussian average of a sharp
quantity.  Two kernel flavours appear:

* a *continuous* kernel  P_s(x - x0) = exp(-(x - x0)^2 / 2 s^2) / (s sqrt(2 pi)),
  used to smear a measurement-reference angle (``oracles.angle_average``).

* a *discrete* kernel over integer offsets k, w_k ~ exp(-k^2 / 2 s^2),
  renormalised over a finite window |k| <= k_max, used to smear a discrete
  detection threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DiscreteGaussianWeights",
    "discrete_gaussian",
]

# Below this the discrete kernel is numerically a point mass anyway
# (exp(-1/(2 s^2)) underflows); treat it explicitly to avoid 0/0.
_TINY_SIGMA = 1e-8


def require_finite(params) -> None:
    """Raise ``ValueError`` naming the first field of a params dataclass that is NaN or infinite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DiscreteGaussianWeights:
    """Renormalised Gaussian weights on integer offsets ``-k_max .. k_max``."""

    offsets: np.ndarray
    weights: np.ndarray
    sigma: float

    def weight(self, k: int) -> float:
        """Weight of offset ``k`` (zero outside the truncation window)."""
        k_max = (len(self.offsets) - 1) // 2
        if abs(k) > k_max:
            return 0.0
        return float(self.weights[k + k_max])


def discrete_gaussian(sigma: float, k_max: int) -> DiscreteGaussianWeights:
    """Discrete Gaussian smearing weights over integer offsets.

    Parameters
    ----------
    sigma : float
        Standard deviation of the underlying Gaussian, >= 0.  Values below
        the machine-meaningful threshold degenerate to a point mass at 0.
    k_max : int
        Half-width of the truncation window.  Must satisfy ``k_max >= 3 sigma``
        so that the discarded tail is negligible before renormalisation.

    Returns
    -------
    DiscreteGaussianWeights
        Offsets ``-k_max..k_max`` and weights proportional to
        ``exp(-k^2 / (2 sigma^2))``, renormalised to sum to one.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if k_max < 3.0 * sigma:
        raise ValueError(
            f"truncation too aggressive: k_max={k_max} < 3*sigma={3.0 * sigma:g}"
        )
    offsets = np.arange(-k_max, k_max + 1)
    if sigma < _TINY_SIGMA:
        weights = np.zeros(2 * k_max + 1)
        weights[k_max] = 1.0
    else:
        weights = np.exp(-0.5 * (offsets / sigma) ** 2)
        weights /= weights.sum()
    offsets.flags.writeable = False
    weights.flags.writeable = False
    return DiscreteGaussianWeights(offsets=offsets, weights=weights, sigma=sigma)
