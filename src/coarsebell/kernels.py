"""The damping of a harmonic by Gaussian references (``smear_damping``), the
discrete Gaussian smearing kernel, the checks shared by the record
types (finite fields, integer arguments and sizes, a ``_replace`` that
re-validates), the cache through which the three-argument ``corr_*``
wrappers bind a model's correlator once per configuration (``bound``),
and the forms the optimiser recognises by exact type: ``CosineForm``, the
one CHSH shape floor + p cos 2(theta_a - theta_b) + q cos 2(theta_a + theta_b),
and two single-gap forms, ``Harmonic``, amp cos(omega tau), and
``CosineSeries``, a finite sum of such cosines.

Every record of the package is a named tuple with ``__slots__ = ()``: its
fields cannot be set, and it is indexable, iterable and equal to the plain
tuple of its fields.

Every coarsening mechanism in this package is a Gaussian average of a sharp
quantity.  Two kernel flavours appear:

* a *continuous* kernel  P_s(x - x0) = exp(-(x - x0)^2 / 2 s^2) / (s sqrt(2 pi)),
  used to smear a measurement-reference angle (``oracles.angle_average``).
  Averaged over independent Gaussian references x_i of widths s_i, a sharp
  harmonic cos(phi + sum_i c_i x_i) keeps its shape and is damped by the
  characteristic function exp(-sum_i w_i^2 / 2), where w_i = c_i s_i is the
  order c_i of reference i in the harmonic times its width.
  ``smear_damping(*widths)`` computes that factor for every model:

  - an analyser angle at each party of cos 2(ta +- tb), ``generic-ref``,
    ``photon`` and ``ecs-ref``: widths (2 Delta, 2 Delta), damping e^(-4 Delta^2);
  - the rotation between two measurement times of the two-level probe,
    ``lg-nonclassical``: width Delta, damping e^(-Delta^2 / 2);
  - that rotation in spin sector m of ``lg-spin``: width 2 m Delta, damping
    e^(-2 m^2 Delta^2);
  - the homodyne phase in odd harmonic n = 2k + 1 of ``ecs-homodyne``: width
    n Delta, damping e^(-n^2 Delta^2 / 2).

* a *discrete* kernel over integer offsets k, w_k ~ exp(-k^2 / 2 s^2),
  renormalised over a finite window |k| <= k_max, used to smear a discrete
  detection threshold.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CosineForm",
    "CosineSeries",
    "Harmonic",
    "DiscreteGaussianWeights",
    "discrete_gaussian",
    "smear_damping",
]

# Below this the discrete kernel is numerically a point mass anyway
# (exp(-1/(2 s^2)) underflows); treat it explicitly to avoid 0/0.
_TINY_SIGMA = 1e-8

# Largest half-width of the discrete kernel's window.  At this limit a build
# takes ~0.4 s on a 2-vCPU Xeon and peaks at 65 MB, and its tuple keeps 40 MB;
# the package's widest window is ceil(8 * generic.DELTA_MAX) = 80,000.
K_MAX = 10**6


def is_finite(value: float) -> bool:
    """``math.isfinite(value)``, and False where the float conversion overflows:
    ``math.isfinite(10**400)`` raises ``OverflowError`` instead."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_finite(cls: type, *values: float) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite one of ``values``
    (or an int too large for a float), the fields of the named-tuple class
    ``cls`` in the order of its ``_fields``."""
    for name, value in zip(cls._fields, values):
        if not is_finite(value):
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


def check_size(n, name: str = "n") -> int:
    """``n`` as a built-in int, if it is an integer (not a bool) >= 1, else ``ValueError``."""
    size = as_int(n)
    if size is None or size < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return size


# The wrappers are called in bursts on one configuration (a lattice or grid
# over one ``params``), so a small cache serves them.  Of the sweep points
# only ``lg-spin`` comes here, one entry per point for its sector terms.  The
# factory is part of the key, so two systems share no entry; a -0.0 width
# shares +0.0's entry, which every factory maps alike.
@lru_cache(maxsize=256)
def bound(factory: Callable, params: tuple):
    """``factory(params)``, built once per configuration for the ``corr_*``
    wrappers and for ``leggett_garg``'s spin sector terms."""
    return factory(params)


def smear_damping(*widths: float | np.ndarray) -> float | np.ndarray:
    """exp(-(sum of w * w over ``widths``) / 2), the damping of a harmonic whose Gaussian
    references have the per-reference widths ``widths`` (see the module docstring).

    Python numbers, ints included, give a built-in float through ``math.exp``; an int
    rounds to a float before it is squared, as in ``-0.5 * Delta * Delta``.  Numpy
    arrays of widths, one entry per spin sector, give an array through ``np.exp``.
    """
    for width in widths:
        if not isinstance(width, (int, float)):
            import numpy as np

            with np.errstate(over="ignore"):  # a huge width's damping underflows to 0 through inf
                return _damping(np.exp, widths)
    return _damping(math.exp, map(float, widths))


# Squaring each per-reference width, not kappa * Delta^2, keeps every model's
# bits: (2 Delta, 2 Delta) gives those of exp(-4.0 * Delta * Delta), and 2 m Delta
# those of lg-spin's np.exp(-2.0 * (m * Delta) ** 2) (tests/test_kernels.py).
def _damping(exp: Callable, widths: Iterable) -> float | np.ndarray:
    exponent = 0.0
    for width in widths:
        exponent = exponent + width * width
    return exp(-0.5 * exponent)


class Validated:
    """Base of a named-tuple record whose ``__new__`` validates its fields.

    ``_make``, and so ``_replace``, build through the constructor, so that a
    replaced field is checked and normalised as a new one is.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Frozen:
    """Base of the forms below: each fills its slots once, in ``__init__``, through
    ``_fill``, and no field can be set after that."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the slots, in the order of ``__slots__``, to ``values``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")


class CosineForm(_Frozen):
    """``(theta_a, theta_b) -> floor + p cos 2(theta_a - theta_b) + q cos 2(theta_a + theta_b)``.

    The correlation shape of all six CHSH systems: the ECS rows are
    ``(0, amp, 0)``, and generic-delta, generic-ref and photon
    ``(floor, 0, -scale)``.  The fields are finite, ``p >= 0 >= q``, at most
    one of ``p`` and ``q`` is nonzero, and ``|floor| + p - q <= 1``, so that
    ``|E| <= 1`` holds by construction.  The one term is bound once, as
    ``closure``: ``floor + q * cos(2.0 * (a + b))`` if ``q`` is nonzero,
    else ``floor + p * cos(2.0 * (a - b))``; a call delegates to it.  A
    frozen type of its own, so that ``optimize.maximize_chsh`` can recognise
    the shape, and no record: a correlator has no reason to be a sequence.
    """

    __slots__ = ("floor", "p", "q", "closure")

    def __init__(self, floor: float, p: float, q: float) -> None:
        if not (all(map(is_finite, (floor, p, q))) and p >= 0.0 >= q and 0.0 in (p, q)
                and abs(floor) + p - q <= 1.0):
            raise ValueError(f"need finite fields, p >= 0 >= q, p or q 0, |floor| + p - q <= 1, "
                             f"got {(floor, p, q)!r}")
        cos = math.cos
        if q == 0.0:
            def closure(theta_a: float, theta_b: float) -> float:
                return floor + p * cos(2.0 * (theta_a - theta_b))
        else:
            def closure(theta_a: float, theta_b: float) -> float:
                return floor + q * cos(2.0 * (theta_a + theta_b))
        self._fill(floor, p, q, closure)

    def __call__(self, theta_a: float, theta_b: float) -> float:
        return self.closure(theta_a, theta_b)


class Harmonic(_Frozen):
    """``tau -> amp * cos(omega * tau)``, ``amp`` finite and >= 0, ``omega`` finite and > 0.

    A frozen type of its own, so that ``optimize.maximize_lg`` can recognise
    the shape and take its exact maximum 2 sqrt(2) amp over its ``period``.
    """

    __slots__ = ("amp", "omega", "period")

    def __init__(self, amp: float, omega: float) -> None:
        if not (is_finite(amp) and amp >= 0.0):
            raise ValueError(f"amp must be finite and >= 0, got {amp!r}")
        if not (is_finite(omega) and omega > 0.0):
            raise ValueError(f"omega must be finite and > 0, got {omega!r}")
        self._fill(amp, omega, 2.0 * math.pi / omega)

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

        # bound once: np.sum's Python wrapper was ~40 % of a call, np.add.reduce has the same bits
        self._fill(damping, freq, norm, period, np.cos, np.add.reduce)

    def __call__(self, tau: float) -> float:
        return float(self._add_up(self.damping * self._cos(self.freq * tau))) / self.norm

    def sample(self, taus: np.ndarray) -> np.ndarray:
        """The values at the gaps ``taus``, a 1-D float array, equal to the calls bit for bit."""
        import numpy as np

        terms = np.multiply.outer(taus, self.freq)  # row i holds the call's freq * taus[i]
        np.cos(terms, out=terms)
        terms *= self.damping
        return np.add.reduce(terms, axis=1) / self.norm


class DiscreteGaussianWeights(namedtuple("DiscreteGaussianWeights", "values")):
    """Renormalised Gaussian weights, a tuple of 2 k_max + 1 built-in floats:
    entry i is the weight of the integer offset i - k_max.  A tuple, so that
    records with equal weights are equal and hash alike."""

    __slots__ = ()

    @property
    def weights(self) -> np.ndarray:
        """The weights as a new read-only numpy array."""
        import numpy as np

        weights = np.array(self.values)
        weights.flags.writeable = False
        return weights


def discrete_gaussian(sigma: float, k_max: int) -> DiscreteGaussianWeights:
    """Discrete Gaussian smearing weights over integer offsets.

    Parameters
    ----------
    sigma : float
        Standard deviation of the underlying Gaussian, finite and >= 0.
        Values below the machine-meaningful threshold degenerate to a point
        mass at 0.
    k_max : int
        Half-width of the truncation window, an integer >= max(1, 3 sigma)
        (not a bool), so that the discarded tail is negligible, and at most
        ``K_MAX``.

    Returns
    -------
    DiscreteGaussianWeights
        The weights of the offsets ``k = -k_max..k_max`` in order, proportional
        to ``exp(-k^2 / (2 sigma^2))`` and renormalised to sum to one.
    """
    k_max = check_size(k_max, "k_max")
    if k_max > K_MAX:
        raise ValueError(f"k_max must be <= K_MAX = {K_MAX}, got {k_max}")
    if not is_finite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if k_max < 3.0 * sigma:
        raise ValueError(
            f"truncation too aggressive: k_max={k_max} < 3*sigma={3.0 * sigma:g}"
        )
    if sigma < _TINY_SIGMA:
        return DiscreteGaussianWeights((0.0,) * k_max + (1.0,) + (0.0,) * k_max)
    # the Gaussian is even: build the offsets 1..k_max once and mirror them
    half = [math.exp(-0.5 * (k / sigma) ** 2) for k in range(1, k_max + 1)]
    total = math.fsum([*half, 1.0, *half])
    half = [w / total for w in half]
    return DiscreteGaussianWeights((*reversed(half), 1.0 / total, *half))
