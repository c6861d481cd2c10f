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

  with w_k the renormalised discrete Gaussian weights.  With the smeared
  signs up = sum_k w_k chi_{n-k} and down = sum_k w_k chi_{-n-k}, and their
  even and odd parts S = (up + down)/2 and A = (up - down)/2, this is the
  closed form

      E(ta, tb) = S^2 - A^2 cos 2(ta + tb):

  the fuzziness lifts a constant floor S^2 and lowers the contrast A^2 of
  the sharp correlation.  As delta -> 0, S -> 0 and A -> 1, and this
  reduces to E = -cos 2(ta + tb).

* *reference fuzziness* (``Delta``): the rotation angle itself is smeared by
  a continuous Gaussian, which damps the sharp correlation uniformly by
  ``kernels.smear_damping(2 Delta, 2 Delta)``, the rule of the ``kernels``
  docstring:

      E(ta, tb) = -exp(-4 Delta^2) cos 2(ta + tb),

  independent of n.  No amount of size scaling can undo this damping.

``discrimination_error`` quantifies how well the smeared sign readout can
still tell +n from -n at the single-party level.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import kernels
from .kernels import CosineForm, Validated, bound, check_size, is_finite, require_finite

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
# ceil(8 delta) integers either side of zero and is summed once per smeared
# value, so this keeps it near 1.6e5 entries; without a limit, V = 1e300 asks
# numpy for a window of ~1e151 entries.
DELTA_MAX = 1e4


def _check_delta(delta: float) -> None:
    if not is_finite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta > DELTA_MAX:
        raise ValueError(f"delta must be <= DELTA_MAX = {DELTA_MAX:g}, got {delta}")


class GenericParams(Validated, namedtuple("GenericParams", "n delta Delta", defaults=(0.0, 0.0))):
    """Model parameters: size ``n``, detector width ``delta``, reference width ``Delta``."""

    __slots__ = ()

    def __new__(cls, n: int, delta: float = 0.0, Delta: float = 0.0):
        require_finite(cls, n, delta, Delta)
        n = check_size(n)
        _check_delta(delta)
        if Delta < 0.0:
            raise ValueError(f"Delta must be >= 0, got {Delta}")
        return tuple.__new__(cls, (n, delta, Delta))


def chi(j: int) -> int:
    """Dichotomic sign readout: +1 for j >= 1, -1 otherwise."""
    return 1 if j >= 1 else -1


def _smeared_signs(n: int, delta: float) -> tuple[float, float]:
    """The smeared signs sum_k w_k chi_{+-n-k} of +n and -n, as built-in floats.

    One truncated, renormalised kernel serves both sums.  Its window spans
    the kernel alone, max(1, ceil(8 delta)) integers either side of zero,
    whatever ``n``: once |n| exceeds it every chi_{+-n-k} equals chi(+-n),
    so neither the sums nor their cost grow with |n|.

    Summed in Python floats, so the forms built from them compute on
    built-in floats too; numpy scalars made each call ~2.4x slower.
    """
    if delta == 0.0:
        return float(chi(n)), float(chi(-n))
    k_max = max(1, math.ceil(8.0 * delta))
    up = down = 0.0
    for k, w in enumerate(kernels.discrete_gaussian(delta, k_max).weights.tolist(), -k_max):
        up += w * chi(n - k)
        down += w * chi(-n - k)
    # a mean of signs lies in [-1, 1]; the renormalised weights can sum an ulp past 1
    return max(-1.0, min(1.0, up)), max(-1.0, min(1.0, down))


def fuzzy_detector_correlator(params: GenericParams) -> CosineForm:
    """Two-party correlation with smearing applied at the final detection.

    Returns ``(theta_a, theta_b) -> S^2 - A^2 cos 2(theta_a + theta_b)`` as
    the ``kernels.CosineForm(S^2, 0, -A^2)``, with ``S`` and ``A`` the even
    and odd parts ``(up +- down) / 2`` of the smeared signs ``up`` of +n and
    ``down`` of -n, computed once.  Any ``Delta`` in ``params`` is ignored
    here; this is the pure detector-fuzziness branch.  For ``delta == 0``,
    S = 0 and A = 1, so it reduces exactly to ``-cos 2(theta_a + theta_b)``.
    Agrees with the composition of ``oracles.f_delta`` and
    ``oracles.g_delta`` in the module docstring within 1e-14.
    """
    n, delta = params.n, params.delta
    up, down = _smeared_signs(n, delta)
    even, odd = 0.5 * (up + down), 0.5 * (up - down)
    return CosineForm(even * even, 0.0, -(odd * odd))


def corr_fuzzy_detector(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """:func:`fuzzy_detector_correlator` of ``params`` at one pair of angles."""
    return bound(fuzzy_detector_correlator, params).closure(theta_a, theta_b)


def coarse_reference_correlator(params: GenericParams) -> CosineForm:
    """Two-party correlation with a Gaussian-smeared rotation reference.

    Returns ``(theta_a, theta_b) -> -exp(-4 Delta^2) cos 2(theta_a + theta_b)``
    as the ``kernels.CosineForm(0, 0, -exp(-4 Delta^2))``, with the damping
    computed once; note it does not depend on the size ``n``.
    """
    width = 2.0 * params.Delta
    return CosineForm(0.0, 0.0, -kernels.smear_damping(width, width))


def corr_coarse_reference(theta_a: float, theta_b: float, params: GenericParams) -> float:
    """:func:`coarse_reference_correlator` of ``params`` at one pair of angles."""
    return bound(coarse_reference_correlator, params).closure(theta_a, theta_b)


def discrimination_error(n: int, delta: float) -> float:
    """Probability of mistaking the carried value +n for -n after smearing.

    Defined as ``1 - [sum_k w_k chi_{n-k}]^2``.  It vanishes as delta -> 0
    and, for fixed n, grows to 1 as delta -> infinity (the smeared sign
    carries no information left).  Larger n at fixed delta reduces it.
    """
    check_size(n)
    _check_delta(delta)
    bracket = _smeared_signs(n, delta)[0]
    return 1.0 - bracket * bracket
