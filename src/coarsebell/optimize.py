"""Deterministic maximisation of Bell and Leggett-Garg figures of merit.

Both figures of merit are smooth periodic functions of a handful of angles
or time gaps:

    CHSH:  B = E(a, b) + E(a', b) + E(a, b') - E(a', b')      (4 angles)
    LG:    K = C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3)        (3 gaps)

Maximisation runs Nelder-Mead simplex refinement from a fixed lattice of
starting points spread over one period per coordinate (3 per axis by
default).  There is no randomness anywhere: identical inputs produce
bit-identical results, and the reduction over starts is order-independent
because ties are broken towards the lexicographically smallest argmax.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "Correlator",
    "ChshSettings",
    "OptimizationResult",
    "chsh_value",
    "maximize",
    "maximize_chsh",
    "maximize_lg",
]

_XATOL = 1e-8
_FATOL = 1e-10


@dataclass(frozen=True)
class Correlator:
    """An evaluable correlation function bundled with its search metadata.

    ``kind`` is "chsh" for two-angle spatial correlations E(theta_a, theta_b)
    and "lg" for single-gap temporal correlations C(tau).  ``period`` is the
    periodicity of the underlying function per argument, which bounds the
    multistart search box.
    """

    fn: Callable[..., float]
    period: float = math.pi
    kind: str = "chsh"

    def __call__(self, *args: float) -> float:
        return self.fn(*args)


@dataclass(frozen=True)
class ChshSettings:
    """Four analyser angles, each stored reduced modulo pi."""

    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def __post_init__(self) -> None:
        for name in ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"):
            object.__setattr__(self, name, float(getattr(self, name)) % math.pi)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_a, self.theta_a_prime, self.theta_b, self.theta_b_prime)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a multistart maximisation.

    ``value`` is the objective re-evaluated exactly at ``argmax``;
    ``converged`` reports whether the simplex runs that produced the result
    met their tolerances (a best-so-far point is returned either way).
    """

    value: float
    argmax: tuple[float, ...]
    evaluations: int
    converged: bool
    starts_used: int


def chsh_value(correlator, settings: ChshSettings) -> float:
    """CHSH combination of a two-angle correlation at the given settings."""
    a, ap, b, bp = settings.as_tuple()
    return (
        correlator(a, b)
        + correlator(ap, b)
        + correlator(a, bp)
        - correlator(ap, bp)
    )


def maximize(
    objective: Callable[[tuple[float, ...]], float],
    d: int,
    period: float = math.pi,
    starts: int | None = None,
) -> OptimizationResult:
    """Deterministic multistart maximisation over a d-dimensional period box.

    Parameters
    ----------
    objective : callable
        Maps a length-``d`` point to a float.  Must be periodic with
        ``period`` in every coordinate (the argmax is reported reduced into
        ``[0, period)``).
    d : int
        Dimension of the search space.
    period : float
        Periodicity per coordinate; also the edge length of the start lattice.
    starts : int, optional
        Requested number of lattice starts.  Rounded to the nearest perfect
        d-th power (default ``3**d``); cell-midpoint placement avoids the
        degenerate all-zero corner.

    Returns
    -------
    OptimizationResult
        Best value found, its (reduced) argmax, the total number of
        objective evaluations, and a convergence flag.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if period <= 0.0:
        raise ValueError(f"period must be > 0, got {period}")
    if starts is None:
        starts = 3 ** d
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    per_axis = max(1, round(starts ** (1.0 / d)))

    count = 0

    def evaluate(x) -> float:
        nonlocal count
        count += 1
        return float(objective(tuple(float(v) for v in x)))

    def negated(x) -> float:
        return -evaluate(x)

    def reduced(x) -> tuple[float, ...]:
        return tuple(float(v) % period for v in x)

    def refine(x0: tuple[float, ...]) -> tuple[float, tuple[float, ...], bool]:
        res = minimize(
            negated,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options=dict(xatol=_XATOL, fatol=_FATOL, maxiter=4000 * d, maxfev=8000 * d),
        )
        point = reduced(res.x)
        return evaluate(point), point, bool(res.success)

    axis = [(i + 0.5) * period / per_axis for i in range(per_axis)]
    best_value = -math.inf
    best_point: tuple[float, ...] | None = None
    best_ok = False
    for x0 in itertools.product(axis, repeat=d):
        value, point, ok = refine(x0)
        if value > best_value or (value == best_value and point < best_point):
            best_value, best_point, best_ok = value, point, ok

    # one polishing pass from the winner tightens the last digits
    value, point, ok = refine(best_point)
    if value > best_value or (value == best_value and point < best_point):
        best_value, best_point, best_ok = value, point, ok and best_ok

    return OptimizationResult(
        value=best_value,
        argmax=best_point,
        evaluations=count,
        converged=best_ok,
        starts_used=per_axis ** d,
    )


def maximize_chsh(correlator, starts: int | None = None) -> OptimizationResult:
    """Maximise the CHSH combination of a two-angle correlator."""
    period = getattr(correlator, "period", math.pi)

    def objective(x: tuple[float, ...]) -> float:
        a, ap, b, bp = x
        return (
            correlator(a, b)
            + correlator(ap, b)
            + correlator(a, bp)
            - correlator(ap, bp)
        )

    return maximize(objective, d=4, period=period, starts=starts)


def maximize_lg(correlator, starts: int | None = None) -> OptimizationResult:
    """Maximise the four-time combination of a single-gap correlator."""
    period = getattr(correlator, "period", 2.0 * math.pi)

    def objective(x: tuple[float, ...]) -> float:
        g1, g2, g3 = x
        return correlator(g1) + correlator(g2) + correlator(g3) - correlator(g1 + g2 + g3)

    return maximize(objective, d=3, period=period, starts=starts)
