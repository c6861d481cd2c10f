"""The discrete Gaussian smearing kernel, the checks shared by the record
types (finite fields, integer arguments and sizes, a ``_replace`` that
re-validates), the cache through which the three-argument ``corr_*``
wrappers bind a model's correlator once per configuration (``bound``),
the closure of the correlation shape floor - scale cos 2(theta_a + theta_b),
and the forms the optimiser recognises by exact type: ``CosineDifference``,
amp cos 2(theta_a - theta_b), and two single-gap forms, ``Harmonic``,
amp cos(omega tau), and ``CosineSeries``, a finite sum of such cosines.

Every record of the package is a named tuple with ``__slots__ = ()``: its
fields cannot be set, and it is indexable, iterable and equal to the plain
tuple of its fields.

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
import operator
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CosineDifference",
    "CosineSeries",
    "Harmonic",
    "DiscreteGaussianWeights",
    "discrete_gaussian",
]

# Below this the discrete kernel is numerically a point mass anyway
# (exp(-1/(2 s^2)) underflows); treat it explicitly to avoid 0/0.
_TINY_SIGMA = 1e-8


def require_finite(cls: type, *values: float) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite one of ``values``,
    the fields of the named-tuple class ``cls`` in the order of its ``_fields``."""
    for name, value in zip(cls._fields, values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def as_int(value) -> int | None:
    """``value`` as a built-in ``int`` if ``operator.index`` takes it and it is no bool, else None.

    So numpy integers count as integers, and floats, bools and strings do not.
    """
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_size(n) -> int:
    """``n`` as a built-in int, if it is an integer (not a bool) >= 1, else ``ValueError``."""
    size = as_int(n)
    if size is None or size < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return size


# The wrappers are called in bursts on one configuration (a lattice or grid
# over one ``params``), so a small cache serves them; sweep points never come
# here.  The factory is part of the key, so two systems share no entry; a
# -0.0 width shares +0.0's entry, which every factory maps alike.
@lru_cache(maxsize=256)
def bound(factory: Callable, params: tuple) -> Callable:
    """``factory(params)``, built once per configuration for the ``corr_*`` wrappers."""
    return factory(params)


class Validated:
    """Base of a named-tuple record whose ``__new__`` validates its fields.

    ``_make``, and so ``_replace``, build through the constructor, so that a
    replaced field is checked and normalised as a new one is.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def cosine_correlator(floor: float, scale: float) -> Callable[[float, float], float]:
    """``(theta_a, theta_b) -> floor - scale * cos 2(theta_a + theta_b)``, constants bound once."""
    cos = math.cos

    def corr(theta_a: float, theta_b: float) -> float:
        return floor - scale * cos(2.0 * (theta_a + theta_b))

    return corr


class _Frozen:
    """Base of the forms below: each sets its slots once, in ``__init__``, through
    ``object.__setattr__``, and no field can be set after that."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")


class CosineDifference(_Frozen):
    """``(theta_a, theta_b) -> amp * cos 2(theta_a - theta_b)``, ``amp`` finite and >= 0.

    A frozen type of its own, so that ``optimize.maximize_chsh`` can
    recognise the shape and take its exact CHSH maximum, 2 sqrt(2) amp.  A
    plain class rather than a record: a named tuple would be a sequence and
    equal to the tuple ``(amp,)``, which a correlator has no reason to be.
    """

    __slots__ = ("amp",)

    def __init__(self, amp: float) -> None:
        if not (math.isfinite(amp) and amp >= 0.0):
            raise ValueError(f"amp must be finite and >= 0, got {amp!r}")
        object.__setattr__(self, "amp", amp)

    def __call__(self, theta_a: float, theta_b: float) -> float:
        return self.amp * math.cos(2.0 * (theta_a - theta_b))


class Harmonic(_Frozen):
    """``tau -> amp * cos(omega * tau)``, ``amp`` finite and >= 0, ``omega`` finite and > 0.

    A frozen type of its own, so that ``optimize.maximize_lg`` can recognise
    the shape and take its exact maximum 2 sqrt(2) amp over its ``period``.
    """

    __slots__ = ("amp", "omega", "period")

    def __init__(self, amp: float, omega: float) -> None:
        if not (math.isfinite(amp) and amp >= 0.0):
            raise ValueError(f"amp must be finite and >= 0, got {amp!r}")
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"omega must be finite and > 0, got {omega!r}")
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "period", 2.0 * math.pi / omega)

    def __call__(self, tau: float) -> float:
        return self.amp * math.cos(self.omega * tau)


class CosineSeries(_Frozen):
    """``tau -> sum_h damping[h] cos(freq[h] tau) / norm`` over read-only numpy arrays.

    A frozen type of its own.  A call reduces its terms with
    ``np.add.reduce``, and ``sample`` evaluates many gaps in one numpy
    product with the same operations, so each of its values has the bits of
    the call at that gap.  ``optimize.maximize_lg`` samples its grid that way
    over one ``period``.  The constructor takes its fields as they are: its
    caller, ``leggett_garg.spin_parity_correlator``, builds the arrays
    finite, of equal length and read-only, and the period as 2 pi / omega.
    """

    __slots__ = ("damping", "freq", "norm", "period", "_cos", "_add_up")

    def __init__(self, damping: np.ndarray, freq: np.ndarray, norm: float, period: float) -> None:
        import numpy as np

        set_field = object.__setattr__
        set_field(self, "damping", damping)
        set_field(self, "freq", freq)
        set_field(self, "norm", norm)
        set_field(self, "period", period)
        # bound once: np.sum's Python wrapper was ~40 % of a call, np.add.reduce has the same bits
        set_field(self, "_cos", np.cos)
        set_field(self, "_add_up", np.add.reduce)

    def __call__(self, tau: float) -> float:
        return float(self._add_up(self.damping * self._cos(self.freq * tau))) / self.norm

    def sample(self, taus: np.ndarray) -> np.ndarray:
        """The values at the gaps ``taus``, a 1-D float array, equal to the calls bit for bit."""
        import numpy as np

        terms = np.multiply.outer(taus, self.freq)  # row i holds the call's freq * taus[i]
        np.cos(terms, out=terms)
        terms *= self.damping
        return np.add.reduce(terms, axis=1) / self.norm


class DiscreteGaussianWeights(namedtuple("DiscreteGaussianWeights", "offsets weights sigma")):
    """Renormalised Gaussian weights on integer offsets ``-k_max .. k_max``.

    ``offsets`` and ``weights`` are read-only numpy arrays, ``sigma`` a float.
    """

    __slots__ = ()

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
        Standard deviation of the underlying Gaussian, finite and >= 0.
        Values below the machine-meaningful threshold degenerate to a point
        mass at 0.
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
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if k_max < 3.0 * sigma:
        raise ValueError(
            f"truncation too aggressive: k_max={k_max} < 3*sigma={3.0 * sigma:g}"
        )
    import numpy as np

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
