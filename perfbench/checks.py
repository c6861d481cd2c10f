"""Independent reference values for every point the benchmark computes.

Nothing here imports coarsebell.  Each reference is built from the closed
forms and formulas stated in the package's module docstrings, with
``scipy.special.erf`` in place of the package's own error function, and the
two models without a closed form (``generic-delta`` and ``lg-spin`` at
j > 1/2) are maximised by brute force on an angle lattice followed by a BFGS
polish.  ``check_point`` compares one optimised value against its reference
and against the bounds every CHSH/LG value must obey; ``check_monotone``
tests the ordering properties of ``generic-delta``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import erf

TSIRELSON = 2.0 * math.sqrt(2.0)

# Agreement required between an optimised value and its reference.  The
# optimiser polishes to about 1e-15 on these smooth landscapes, so a value
# that is off by 1e-6 is rejected with a wide margin either way.
VALUE_TOL = 1e-8
CEILING_TOL = 1e-12

_SQRT_2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# closed forms


def _overlap_denominator(alpha: float) -> float:
    return 1.0 + math.exp(-4.0 * alpha * alpha)


def chsh_generic_ref(V: float) -> float:
    """Maximal CHSH of E = -exp(-4V) cos 2(a + b)."""
    return TSIRELSON * math.exp(-4.0 * V)


def chsh_ecs_eta(alpha: float, eta: float) -> float:
    """Maximal CHSH of E = A cos 2(a - b), A = erf(sqrt(2 eta) alpha)^2 / (1 + e^-4a^2)."""
    e = float(erf(math.sqrt(2.0 * eta) * alpha))
    return TSIRELSON * e * e / _overlap_denominator(alpha)


def chsh_ecs_ref(alpha: float, V: float) -> float:
    """Maximal CHSH of the reference-smeared coherent-state correlation."""
    e = float(erf(_SQRT_2 * alpha))
    return TSIRELSON * math.exp(-4.0 * V) * e * e / _overlap_denominator(alpha)


def homodyne_average(alpha: float, V: float) -> float:
    """Gaussian average over lambda of sign(cos l) erf(sqrt(2) alpha |cos l|).

    The integrand equals erf(sqrt(2) alpha cos l), a smooth 2 pi-periodic
    function, so the trapezoid rule converges geometrically: over one period
    against the wrapped normal density of variance V, or, when 12 standard
    deviations fit inside half a period, over that window against the plain
    normal density, whose ends are then below 1e-31.  The step resolves both
    the density and the steepest part of the erf, whose width is about
    1 / (sqrt(2) alpha).
    """
    if V == 0.0:
        return float(erf(_SQRT_2 * alpha))
    sigma = math.sqrt(V)
    step = min(sigma, 1.0 / (_SQRT_2 * alpha)) / 16.0
    half = 12.0 * sigma
    if half < math.pi:
        nodes = 2 * int(math.ceil(half / step)) + 1
        lam = np.linspace(-half, half, nodes)
        density = np.exp(-0.5 * (lam / sigma) ** 2)
        weights = np.full(nodes, lam[1] - lam[0])
        weights[[0, -1]] *= 0.5
    else:
        nodes = max(1 << 12, int(math.ceil(2.0 * math.pi / step)))
        lam = np.linspace(-math.pi, math.pi, nodes, endpoint=False)
        wraps = int(math.ceil(12.0 * sigma / (2.0 * math.pi))) + 1
        density = sum(
            np.exp(-0.5 * ((lam + 2.0 * math.pi * k) / sigma) ** 2) for k in range(-wraps, wraps + 1)
        )
        weights = np.full(nodes, 2.0 * math.pi / nodes)
    density /= sigma * math.sqrt(2.0 * math.pi)
    response = np.sign(np.cos(lam)) * erf(_SQRT_2 * alpha * np.abs(np.cos(lam)))
    return float(np.sum(response * density * weights))


def chsh_ecs_homodyne(alpha: float, V: float) -> float:
    i_val = homodyne_average(alpha, V)
    return TSIRELSON * i_val * i_val / _overlap_denominator(alpha)


def chsh_photon(n: int, eta: float, V: float) -> float:
    """B = 2 m^2 + 2 sqrt(2) (1 - m)^2 exp(-4V) with m = (1 - eta)^n."""
    m = (1.0 - eta) ** n
    return 2.0 * m * m + TSIRELSON * (1.0 - m) ** 2 * math.exp(-4.0 * V)


def lg_two_level(V: float) -> float:
    """Maximal K of C(tau) = exp(-V/2) cos(tau)."""
    return TSIRELSON * math.exp(-0.5 * V)


# ---------------------------------------------------------------------------
# brute force: generic-delta


def _smeared_signs(n: int, V: float) -> tuple[float, float]:
    """(sum_k w_k chi_{n-k}, sum_k w_k chi_{-n-k}) with a wide Gaussian window."""
    if V == 0.0:
        return 1.0, -1.0
    delta = math.sqrt(V)
    k = np.arange(-(n + int(40.0 * delta) + 10), n + int(40.0 * delta) + 11)
    w = np.exp(-0.5 * (k / delta) ** 2)
    w /= w.sum()
    chi_pos = np.where(n - k >= 1, 1.0, -1.0)
    chi_neg = np.where(-n - k >= 1, 1.0, -1.0)
    return float(np.sum(w * chi_pos)), float(np.sum(w * chi_neg))


def generic_delta_correlator(n: int, V: float):
    """E(ta, tb) from the f/g response formulas, vectorised over numpy angles."""
    p, q = _smeared_signs(n, V)

    def f(sign_pos: float, sign_neg: float, t):
        return np.cos(t) ** 2 * sign_pos + np.sin(t) ** 2 * sign_neg

    def g(t):
        return np.sin(t) * np.cos(t) * (p - q)

    def corr(ta, tb):
        return 0.5 * (
            f(p, q, ta) * f(q, p, tb) + f(q, p, ta) * f(p, q, tb) + 2.0 * g(ta) * g(tb)
        )

    return corr


def brute_force_chsh(corr, period: float = math.pi, lattice: int = 128) -> float:
    """Maximise E(a,b) + E(a',b) + E(a,b') - E(a',b') over all four angles.

    On the lattice the maxima over b and b' decouple for fixed (a, a'), so the
    full lattice maximum costs O(lattice^3).  The best lattice points are then
    polished with BFGS on the continuous objective.
    """
    theta = np.arange(lattice) * (period / lattice)
    grid = corr(theta[:, None], theta[None, :])  # grid[i, j] = E(theta_i, theta_j)
    best = []
    for i in range(lattice):
        plus = grid[i][None, :] + grid  # rows: a', cols: b
        minus = grid[i][None, :] - grid
        jb = np.argmax(plus, axis=1)
        jbp = np.argmax(minus, axis=1)
        vals = plus[np.arange(lattice), jb] + minus[np.arange(lattice), jbp]
        ip = int(np.argmax(vals))
        best.append((float(vals[ip]), i, ip, int(jb[ip]), int(jbp[ip])))
    best.sort(reverse=True)

    def negated(x):
        a, ap, b, bp = x
        return -float(corr(a, b) + corr(ap, b) + corr(a, bp) - corr(ap, bp))

    top = best[0][0]
    for value, i, ip, jb, jbp in best[:4]:
        x0 = theta[[i, ip, jb, jbp]]
        res = minimize(negated, x0, method="BFGS", options={"gtol": 1e-12})
        top = max(top, value, -float(res.fun))
    return top


def chsh_generic_delta(n: int, V: float) -> float:
    return brute_force_chsh(generic_delta_correlator(n, V))


# ---------------------------------------------------------------------------
# brute force: lg-spin


def spin_parity_correlator(j: float, V: float, omega: float = 1.0):
    """C(tau) = 1/(2j+1) sum_m exp(-2 m^2 V) cos(2 m omega tau), vectorised."""
    m = np.arange(-j, j + 0.5)
    damping = np.exp(-2.0 * m * m * V) / (2.0 * j + 1.0)

    def corr(tau):
        tau = np.asarray(tau, dtype=float)
        return np.tensordot(np.cos(2.0 * omega * np.multiply.outer(tau, m)), damping, axes=1)

    return corr


def brute_force_lg(corr, period: float, lattice: int = 512, chunk: int = 128) -> float:
    """Maximise C(g1) + C(g2) + C(g3) - C(g1 + g2 + g3) over three gaps.

    C is periodic, so on a lattice of step period/lattice the maximum over g3
    depends only on s = g1 + g2 (mod period): D[s] = max_k C[k] - C[s + k].
    That reduces the lattice search to O(lattice^2), done in row chunks to
    keep memory small.  The best lattice points are polished with BFGS.
    """
    tau = np.arange(lattice) * (period / lattice)
    c = corr(tau)
    idx = np.arange(lattice)
    d_val = np.empty(lattice)
    d_arg = np.empty(lattice, dtype=int)
    for start in range(0, lattice, chunk):
        s = idx[start:start + chunk, None]
        diff = c[None, :] - c[(s + idx[None, :]) % lattice]
        d_arg[start:start + chunk] = np.argmax(diff, axis=1)
        d_val[start:start + chunk] = diff[np.arange(len(s)), d_arg[start:start + chunk]]
    best = []
    for start in range(0, lattice, chunk):
        i = idx[start:start + chunk, None]
        s = (i + idx[None, :]) % lattice
        total = c[i] + c[None, :] + d_val[s]
        flat = np.argpartition(total, -4, axis=None)[-4:]
        for f in flat:
            r, j2 = divmod(int(f), lattice)
            i1 = start + r
            best.append((float(total[r, j2]), i1, j2, int(d_arg[(i1 + j2) % lattice])))
    best.sort(reverse=True)

    def negated(x):
        g1, g2, g3 = x
        return -float(corr(g1) + corr(g2) + corr(g3) - corr(g1 + g2 + g3))

    top = best[0][0]
    for value, i1, i2, i3 in best[:6]:
        x0 = tau[[i1, i2, i3]]
        res = minimize(negated, x0, method="BFGS", options={"gtol": 1e-12})
        top = max(top, value, -float(res.fun))
    return top


def lg_spin(j: float, V: float, omega: float = 1.0) -> float:
    if j == 0.5:
        return lg_two_level(V)
    return brute_force_lg(spin_parity_correlator(j, V, omega), period=2.0 * math.pi / omega)


# ---------------------------------------------------------------------------
# dispatch


def reference(system: str, params: dict) -> float:
    """Independent maximal CHSH/LG value of one point (params include the variable)."""
    if system == "generic-delta":
        return chsh_generic_delta(int(params["n"]), params["V"])
    if system == "generic-ref":
        return chsh_generic_ref(params["V"])
    if system == "ecs-eta":
        return chsh_ecs_eta(params["alpha"], params["eta"])
    if system == "ecs-ref":
        return chsh_ecs_ref(params["alpha"], params["V"])
    if system == "ecs-homodyne":
        return chsh_ecs_homodyne(params["alpha"], params["V"])
    if system == "photon":
        return chsh_photon(int(params["n"]), params["eta"], params["V"])
    if system == "lg-nonclassical":
        return lg_two_level(params["V"])
    if system == "lg-spin":
        return lg_spin(params["j"], params["V"], params.get("omega", 1.0))
    raise KeyError(f"no reference for system {system!r}")


def check_point(value: float, ref: float) -> list[str]:
    """Reasons the optimised ``value`` is wrong; an empty list means it passed."""
    problems = []
    if not math.isfinite(value):
        problems.append(f"non-finite value {value!r}")
        return problems
    if value > TSIRELSON + CEILING_TOL:
        problems.append(f"value {value!r} exceeds 2*sqrt(2)")
    if abs(value - ref) > VALUE_TOL:
        problems.append(f"value {value!r} differs from reference {ref!r} by {value - ref:.3g}")
    return problems


def check_monotone(points: list[tuple[int, float, float]]) -> list[tuple[int, str]]:
    """Ordering properties of generic-delta values given as (n, V, value) triples.

    At fixed n the value must not increase with V; at fixed V it must not
    decrease with n.  Each violating pair is reported once, as the index of
    its later point together with a message.
    """
    problems = []
    for i, (n1, v1, b1) in enumerate(points):
        for k, (n2, v2, b2) in enumerate(points):
            later = max(i, k)
            if n1 == n2 and v1 < v2 and b2 > b1 + VALUE_TOL:
                problems.append((later, f"n={n1}: value rises from {b1!r} at V={v1} to {b2!r} at V={v2}"))
            if v1 == v2 and n1 < n2 and b2 < b1 - VALUE_TOL:
                problems.append((later, f"V={v1}: value falls from {b1!r} at n={n1} to {b2!r} at n={n2}"))
    return problems
