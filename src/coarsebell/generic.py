"""Generic two-party dichotomic model with coarsened measurements.

A source emits a pair carrying opposite values +-n of some integer-valued
quantity (n >= 1).  Each party applies a local rotation by an angle theta to
its half and then reads a dichotomic sign observable chi, where chi_j = +1
for j >= 1 and -1 for j <= 0.

Two distinct Gaussian coarsenings of this measurement are modelled:

* *final-detection fuzziness* (``delta``): the detected integer is smeared by
  a discrete Gaussian kernel of width delta before taking the sign.  The
  two-party correlation is

      E(ta, tb) = 1/2 [ f(n, ta) f(-n, tb) + f(-n, ta) f(n, tb)
                        + 2 g(n, ta) g(n, tb) ]

  built from the single-party responses

      f(n, t) = sum_k w_k ( cos^2 t * chi_{n-k} + sin^2 t * chi_{-n-k} )
      g(n, t) = sin t cos t * sum_k w_k ( chi_{n-k} - chi_{-n-k} )

  with w_k the renormalised discrete Gaussian weights.  As delta -> 0 this
  reduces to E = -cos 2(ta + tb).

* *reference fuzziness* (``Delta``): the rotation angle itself is smeared by
  a continuous Gaussian, which damps the sharp correlation uniformly:

      E(ta, tb) = -exp(-4 Delta^2) cos 2(ta + tb),

  independent of n.  No amount of size scaling can undo this damping.

``discrimination_error`` quantifies how well the smeared sign readout can
still tell +n from -n at the single-party level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import kernels
from .kernels import require_finite

__all__ = [
    "GenericParams",
    "chi",
    "fuzzy_detector_correlator",
    "coarse_reference_correlator",
    "corr_fuzzy_detector",
    "corr_coarse_reference",
    "discrimination_error",
]

# Largest detector width delta (variance V = 1e8).  The smearing window spans
# ceil(n + 8 delta) integers either side of zero and is summed once per
# smeared value, so this keeps it near 1e5 entries; without a limit, V = 1e300
# asks numpy for a window of ~1e151 entries.
DELTA_MAX = 1e4

# Largest size n.  The same window is ceil(n + 8 delta) wide, so at this n it
# holds at most ~3.6e5 entries and one generic-delta point stays under ~1 s
# on a 2-vCPU Xeon; n = 1e6 takes ~3 s, and n = 1e18 overflows numpy.
N_MAX = 100_000


def _check_size(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > N_MAX:
        raise ValueError(f"n must be <= N_MAX = {N_MAX}, got {n}")


def _check_delta(delta: float) -> None:
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta > DELTA_MAX:
        raise ValueError(f"delta must be <= DELTA_MAX = {DELTA_MAX:g}, got {delta}")


@dataclass(frozen=True)
class GenericParams:
    """Model parameters: size ``n``, detector width ``delta``, reference width ``Delta``."""

    n: int
    delta: float = 0.0
    Delta: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        _check_size(self.n)
        _check_delta(self.delta)
        if self.Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {self.Delta}")


def chi(j: int) -> int:
    """Dichotomic sign readout: +1 for j >= 1, -1 otherwise."""
    return 1 if j >= 1 else -1


def _k_max(n: int, delta: float) -> int:
    # window half-width covering an 8-sigma tail around the largest offset
    return max(1, math.ceil(n + 8.0 * delta))


@lru_cache(maxsize=4096)
def _smeared_sign(m: int, delta: float, k_max: int) -> float:
    """sum_k w_k chi_{m-k} over the truncated, renormalised kernel."""
    if delta == 0.0:
        return float(chi(m))
    kern = kernels.discrete_gaussian(delta, k_max)
    total = 0.0
    for k, w in zip(kern.offsets, kern.weights):
        total += w * chi(m - int(k))
    return total


def fuzzy_detector_correlator(params: GenericParams) -> Callable[[float, float], float]:
    """Two-party correlation with smearing applied at the final detection.

    Returns ``(theta_a, theta_b) -> E`` with the two smeared signs of
    ``params`` computed once.  Any ``Delta`` in ``params`` is ignored here;
    this is the pure detector-fuzziness branch.  For ``delta == 0`` it
    reduces exactly to ``-cos 2(theta_a + theta_b)``.  Equal, bit for bit,
    to the composition of ``oracles.f_delta`` and ``oracles.g_delta`` in the
    module docstring.
    """
    n, delta = params.n, params.delta
    k_max = _k_max(n, delta)
    up = _smeared_sign(n, delta, k_max)
    down = _smeared_sign(-n, delta, k_max)
    odd = up - down
    cos, sin = math.cos, math.sin

    def corr(theta_a: float, theta_b: float) -> float:
        ca, sa = cos(theta_a), sin(theta_a)
        cb, sb = cos(theta_b), sin(theta_b)
        caa, saa, cbb, sbb = ca * ca, sa * sa, cb * cb, sb * sb
        return 0.5 * (
            (caa * up + saa * down) * (cbb * down + sbb * up)
            + (caa * down + saa * up) * (cbb * up + sbb * down)
            + 2.0 * (sa * ca * odd) * (sb * cb * odd)
        )

    return corr


def corr_fuzzy_detector(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """:func:`fuzzy_detector_correlator` of ``params`` at one pair of angles."""
    return fuzzy_detector_correlator(params)(theta_a, theta_b)


def coarse_reference_correlator(params: GenericParams) -> Callable[[float, float], float]:
    """Two-party correlation with a Gaussian-smeared rotation reference.

    Returns ``(theta_a, theta_b) -> -exp(-4 Delta^2) cos 2(theta_a + theta_b)``
    with the damping computed once; note it does not depend on the size ``n``.
    """
    scale = -math.exp(-4.0 * params.Delta * params.Delta)
    cos = math.cos

    def corr(theta_a: float, theta_b: float) -> float:
        return scale * cos(2.0 * (theta_a + theta_b))

    return corr


def corr_coarse_reference(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """:func:`coarse_reference_correlator` of ``params`` at one pair of angles."""
    return coarse_reference_correlator(params)(theta_a, theta_b)


def discrimination_error(n: int, delta: float) -> float:
    """Probability of mistaking the carried value +n for -n after smearing.

    Defined as ``1 - [sum_k w_k chi_{n-k}]^2``.  It vanishes as delta -> 0
    and, for fixed n, grows to 1 as delta -> infinity (the smeared sign
    carries no information left).  Larger n at fixed delta reduces it.
    """
    _check_size(n)
    _check_delta(delta)
    bracket = _smeared_sign(n, delta, _k_max(n, delta))
    return 1.0 - bracket * bracket
