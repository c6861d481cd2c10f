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

from . import kernels
from .kernels import QuadratureRule, gauss_hermite, require_finite

__all__ = [
    "GenericParams",
    "chi",
    "f_delta",
    "g_delta",
    "corr_fuzzy_detector",
    "corr_coarse_reference",
    "corr_coarse_reference_quad",
    "corr_combined",
    "discrimination_error",
]

_SQRT_2 = math.sqrt(2.0)

# Largest detector width delta (variance V = 1e8).  The smearing window spans
# ceil(n + 8 delta) integers either side of zero and is summed once per
# smeared value, so this keeps it near 1e5 entries; without a limit, V = 1e300
# asks numpy for a window of ~1e151 entries.
DELTA_MAX = 1e4


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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
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


def f_delta(n: int, theta: float, params: GenericParams) -> float:
    """Even part of the single-party response for carried value ``n`` (may be negative)."""
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    k_max = _k_max(abs(n), params.delta)
    s_pos = _smeared_sign(n, params.delta, k_max)
    s_neg = _smeared_sign(-n, params.delta, k_max)
    c, s = math.cos(theta), math.sin(theta)
    return c * c * s_pos + s * s * s_neg


def g_delta(n: int, theta: float, params: GenericParams) -> float:
    """Odd (interference) part of the single-party response, n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k_max = _k_max(n, params.delta)
    s_pos = _smeared_sign(n, params.delta, k_max)
    s_neg = _smeared_sign(-n, params.delta, k_max)
    return math.sin(theta) * math.cos(theta) * (s_pos - s_neg)


def corr_fuzzy_detector(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """Two-party correlation with smearing applied at the final detection.

    Any ``Delta`` in ``params`` is ignored here; this is the pure
    detector-fuzziness branch.  For ``delta == 0`` it reduces exactly to
    ``-cos 2(theta_a + theta_b)``.  Equal, bit for bit, to the composition
    of :func:`f_delta` and :func:`g_delta` in the module docstring.
    """
    n, delta = params.n, params.delta
    k_max = _k_max(n, delta)
    up = _smeared_sign(n, delta, k_max)
    down = _smeared_sign(-n, delta, k_max)
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    return 0.5 * (
        (ca * ca * up + sa * sa * down) * (cb * cb * down + sb * sb * up)
        + (ca * ca * down + sa * sa * up) * (cb * cb * up + sb * sb * down)
        + 2.0 * (sa * ca * (up - down)) * (sb * cb * (up - down))
    )


def corr_coarse_reference(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """Two-party correlation with a Gaussian-smeared rotation reference.

    Closed form ``-exp(-4 Delta^2) cos 2(theta_a + theta_b)``; note it does
    not depend on the size ``n``.
    """
    damping = math.exp(-4.0 * params.Delta * params.Delta)
    return -damping * math.cos(2.0 * (theta_a + theta_b))


def corr_coarse_reference_quad(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Same quantity as :func:`corr_coarse_reference`, by 2-D quadrature.

    Averages the sharp correlation ``-cos 2(pa + pb)`` over independent
    Gaussian angle offsets on both sides.  Kept as a separate code path so
    the closed form and the integral representation can be checked against
    each other (they agree to well under 1e-9 at the default order).
    """
    if rule is None:
        rule = gauss_hermite(40)
    Delta = params.Delta
    if Delta == 0.0:
        return -math.cos(2.0 * (theta_a + theta_b))
    scale = _SQRT_2 * Delta
    total = 0.0
    for xa, wa in zip(rule.nodes, rule.weights):
        pa = theta_a + scale * xa
        for xb, wb in zip(rule.nodes, rule.weights):
            pb = theta_b + scale * xb
            total += wa * wb * (-math.cos(2.0 * (pa + pb)))
    return total


def corr_combined(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Correlation with both coarsenings active.

    Evaluated as the 2-D Gaussian angle average (width ``Delta`` per party)
    of the detector-fuzzy correlator.  Degenerates to the single-mechanism
    branches when either width vanishes.
    """
    Delta = params.Delta
    if Delta == 0.0:
        return corr_fuzzy_detector(theta_a, theta_b, params)
    if rule is None:
        rule = gauss_hermite(40)
    scale = _SQRT_2 * Delta
    total = 0.0
    for xa, wa in zip(rule.nodes, rule.weights):
        pa = theta_a + scale * xa
        for xb, wb in zip(rule.nodes, rule.weights):
            pb = theta_b + scale * xb
            total += wa * wb * corr_fuzzy_detector(pa, pb, params)
    return total


def discrimination_error(n: int, delta: float) -> float:
    """Probability of mistaking the carried value +n for -n after smearing.

    Defined as ``1 - [sum_k w_k chi_{n-k}]^2``.  It vanishes as delta -> 0
    and, for fixed n, grows to 1 as delta -> infinity (the smeared sign
    carries no information left).  Larger n at fixed delta reduces it.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    _check_delta(delta)
    bracket = _smeared_sign(n, delta, _k_max(n, delta))
    return 1.0 - bracket * bracket
