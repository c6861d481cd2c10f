"""Independent checks of the sweep-path correlators; no sweep point runs them.

Every coarsened correlation in this package is a Gaussian average of a
sharp one over the measurement reference.  The model modules compute it in
closed form (or, for the ECS homodyne angle, by one 1-D adaptive
quadrature); the oracles here compute it the long way, through the one
tensor-product Gauss-Hermite average ``angle_average`` (the Hermite roots
are the package's only use of scipy), the four-mode Fock density-matrix
pipeline behind ``corr_photon`` (a rotation rewrites only the two rows and
columns it couples; loss is one contraction per mode with that mode's
cached channel map), and the first-principles rebuild
``oracle_ecs_quadrature``.  Only ``__init__`` imports this module, on first
use of one of the public names it re-exports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

import numpy as np

from .generic import GenericParams, _smeared_sign, fuzzy_detector_correlator
from .kernels import as_int, check_size
from .leggett_garg import SpinParams, _check_spin
from .photon import PhotonParams

__all__ = [
    "QuadratureRule",
    "gauss_hermite",
    "angle_average",
    "f_delta",
    "g_delta",
    "corr_coarse_reference_quad",
    "corr_combined",
    "FockDensityMatrix",
    "mode_observable",
    "build_psi_n",
    "rotate_polarization",
    "loss_channel",
    "dichotomic_expectation",
    "corr_photon",
    "oracle_ecs_quadrature",
    "parity_operator",
    "corr_spin_parity_quad",
]

_SQRT_2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Gaussian angle averages


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights normalised for unit-weight Gaussian averages."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def _hermite_rule(order: int) -> QuadratureRule:
    # Internal, uncapped constructor.  scipy's recurrence+Newton root finder
    # stays fast and accurate into the thousands of nodes, which the
    # characteristic-function identity needs for very oscillatory integrands.
    try:
        from scipy.special import roots_hermite
    except ImportError:
        raise ImportError(
            "the Gauss-Hermite oracles need scipy: pip install 'coarsebell[oracles]'"
        ) from None

    x, w = roots_hermite(order)
    w = w / math.sqrt(math.pi)
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(nodes=x, weights=w, order=order)


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order, weights normalised to sum to 1.

    The rule computes Gaussian averages exactly for polynomials up to degree
    ``2*order - 1``:  with nodes x_i and weights w_i,

        int P_s(x - x0) f(x) dx = sum_i w_i f(x0 + sqrt(2) s x_i).

    Orders outside ``1..128`` are rejected; the oracles default to 40
    (20 per axis for the photon pipeline).
    """
    count = as_int(order)
    if count is None or not 1 <= count <= 128:
        raise ValueError(f"order must be an integer in 1..128, got {order!r}")
    return _hermite_rule(count)


def angle_average(
    f: Callable[..., float], centres: Sequence[float], Delta: float, rule: QuadratureRule
) -> float:
    """Average of ``f`` over independent Gaussian offsets of width ``Delta`` on each angle.

    ``f`` takes one argument per entry of ``centres``.  The tensor-product
    rule sums ``w_1 * ... * w_d * f(p_1, ..., p_d)`` with
    ``p_i = centres[i] + sqrt(2) Delta x_i`` over every combination of
    ``rule``'s nodes, the first angle outermost.  ``Delta == 0`` is the
    point mass ``f(*centres)``.
    """
    if Delta == 0.0:
        return f(*centres)
    scale = _SQRT_2 * Delta
    axes = [[(c + scale * x, w) for x, w in zip(rule.nodes, rule.weights)] for c in centres]
    total = 0.0
    for node in itertools.product(*axes):
        points, weights = zip(*node)
        total += math.prod(weights) * f(*points)
    return total


# ---------------------------------------------------------------------------
# generic two-party model


def f_delta(n: int, theta: float, params: GenericParams) -> float:
    """Even part of the single-party response for carried value ``n`` (may be negative)."""
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    s_pos = _smeared_sign(n, params.delta)
    s_neg = _smeared_sign(-n, params.delta)
    c, s = math.cos(theta), math.sin(theta)
    return c * c * s_pos + s * s * s_neg


def g_delta(n: int, theta: float, params: GenericParams) -> float:
    """Odd (interference) part of the single-party response, n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s_pos = _smeared_sign(n, params.delta)
    s_neg = _smeared_sign(-n, params.delta)
    return math.sin(theta) * math.cos(theta) * (s_pos - s_neg)


def corr_coarse_reference_quad(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Same quantity as ``generic.corr_coarse_reference``, by 2-D quadrature.

    Averages the sharp correlation ``-cos 2(pa + pb)`` over independent
    Gaussian angle offsets on both sides (order 40 per axis by default).
    The closed form and this integral agree to well under 1e-9.
    """
    if rule is None:
        rule = gauss_hermite(40)
    return angle_average(
        lambda pa, pb: -math.cos(2.0 * (pa + pb)), (theta_a, theta_b), params.Delta, rule
    )


def corr_combined(
    theta_a: float,
    theta_b: float,
    params: GenericParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Correlation with both coarsenings active.

    The 2-D Gaussian angle average (width ``Delta`` per party, order 40 per
    axis by default) of the detector-fuzzy correlator.  Degenerates to the
    single-mechanism branches when either width vanishes.
    """
    if rule is None:
        rule = gauss_hermite(40)
    corr = fuzzy_detector_correlator(params)
    return angle_average(corr, (theta_a, theta_b), params.Delta, rule)


# ---------------------------------------------------------------------------
# photon pairs: rotate, lose photons, detect, on four Fock modes (aH, aV, bH,
# bV) truncated at n photons, which the dynamics never exceed

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10


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
        e = self.entries
        # a NaN makes the max NaN, which fails the comparison
        if not float(np.max(np.abs(e - e.conj().T))) <= _HERMITICITY_TOL:
            raise ValueError("density matrix is not hermitian")
        tr = float(np.real(np.trace(e)))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        e.flags.writeable = False

    @property
    def mode_dim(self) -> int:
        return self.n_max + 1


def mode_observable(n_max: int) -> np.ndarray:
    """Diagonal of the single-party dichotomic observable on the (H, V) pair.

    Indexed by ``iH * (n_max + 1) + iV``:  +1 for pure-H occupation and for
    the vacuum, -1 for pure-V occupation, 0 when both polarisations are
    occupied.
    """
    i_h, i_v = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
    diag = np.where(i_v == 0, 1.0, np.where(i_h == 0, -1.0, 0.0))  # i_v == 0: vacuum too
    diag.flags.writeable = False
    return diag


@lru_cache(maxsize=8)
def build_psi_n(n: int) -> FockDensityMatrix:
    """Pure entangled pair state |psi_n> as a density matrix, cutoff ``n``."""
    size = check_size(n)
    d = size + 1
    party = d * d
    v_h = np.zeros(party)
    v_h[size * d] = 1.0  # |n, 0>
    v_v = np.zeros(party)
    v_v[size] = 1.0  # |0, n>
    psi = (np.kron(v_h, v_v) + np.kron(v_v, v_h)) / _SQRT_2
    return FockDensityMatrix(entries=np.outer(psi, psi).astype(complex), n_max=size)


def rotate_polarization(rho: FockDensityMatrix, party: str, theta: float, n: int) -> FockDensityMatrix:
    """Rotate one party's polarisation by ``theta`` within the span of {|n,0>, |0,n>}.

    ``party`` is "a" or "b"; ``n`` is the photon-number block the rotation
    couples and must not exceed the cutoff of ``rho``.  Only the party's rows
    and columns of |n,0> and |0,n> change: the 2x2 block [[c, i s], [i s, c]]
    mixes them on the left, and its adjoint on the right.
    """
    if party not in ("a", "b"):
        raise ValueError(f"party must be 'a' or 'b', got {party!r}")
    block = as_int(n)
    if block is None or not 1 <= block <= rho.n_max:
        raise ValueError(f"block n must be an integer in 1..{rho.n_max} (the cutoff), got {n!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    d = rho.mode_dim
    p = d * d
    h, v = block * d, block  # |n, 0>, |0, n>
    c, s = math.cos(theta), math.sin(theta)
    out = rho.entries.reshape(p, p, p, p).copy()  # [a_row, b_row, a_col, b_col]
    axes = (0, 2) if party == "a" else (1, 3)
    x = np.moveaxis(out, axes, (0, 1))  # a view: writes land in ``out``
    x[[h, v]] = c * x[[h, v]] + 1j * s * x[[v, h]]
    x[:, [h, v]] = c * x[:, [h, v]] - 1j * s * x[:, [v, h]]
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


@lru_cache(maxsize=64)
def _loss_map(n_max: int, eta: float) -> np.ndarray:
    """The one-mode channel sum_k K_k (x) K_k*, indexed [out row, out col, in row, in col]."""
    d = n_max + 1
    m = sum(np.kron(k, k.conj()) for k in _kraus_ops(n_max, eta)).reshape(d, d, d, d)
    m.flags.writeable = False
    return m


def loss_channel(rho: FockDensityMatrix, mode: int, eta: float) -> FockDensityMatrix:
    """Photon loss (beam splitter of transmissivity ``eta``) on one mode.

    ``mode`` indexes the order (aH, aV, bH, bV).  The channel is trace
    preserving and maps |m><m| to a binomial mixture over lower occupations.
    One contraction applies it to the mode's row and column axes together.
    """
    axis = as_int(mode)
    if axis not in (0, 1, 2, 3):
        raise ValueError(f"mode must be an integer in 0..3, got {mode!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    d = rho.mode_dim
    r8 = rho.entries.reshape([d] * 8)  # row modes 0..3, column modes 4..7
    out = np.tensordot(_loss_map(rho.n_max, eta), r8, axes=([2, 3], [axis, 4 + axis]))
    out = np.moveaxis(out, (0, 1), (axis, 4 + axis))
    dim = d ** 4
    return FockDensityMatrix(entries=out.reshape(dim, dim), n_max=rho.n_max)


def dichotomic_expectation(rho: FockDensityMatrix) -> float:
    """Expectation of the product of the two parties' dichotomic observables."""
    o = mode_observable(rho.n_max)
    joint = np.kron(o, o)
    return float(np.real(np.sum(np.diagonal(rho.entries) * joint)))


def _lose_and_read(rho: FockDensityMatrix, eta: float) -> float:
    """Photon loss on every mode, then the product of the two dichotomic readouts."""
    for mode in range(4):
        rho = loss_channel(rho, mode, eta)
    return dichotomic_expectation(rho)


def _corr_sharp(phi_a: float, phi_b: float, n: int, eta: float) -> float:
    """Full pipeline at sharp angles: rotate, lose photons, detect."""
    rho = build_psi_n(n)
    rho = rotate_polarization(rho, "a", phi_a, n)
    rho = rotate_polarization(rho, "b", phi_b, n)
    return _lose_and_read(rho, eta)


def _smeared_rotation(
    rho: FockDensityMatrix, party: str, theta: float, n: int, Delta: float, rule: QuadratureRule
) -> FockDensityMatrix:
    """Rule-weighted sum of ``rho`` with ``party`` rotated at each node around ``theta``."""
    scale = _SQRT_2 * Delta
    entries = sum(
        w * rotate_polarization(rho, party, theta + scale * x, n).entries
        for x, w in zip(rule.nodes, rule.weights)
    )
    return FockDensityMatrix(entries=entries, n_max=rho.n_max)


def corr_photon(
    theta_a: float,
    theta_b: float,
    params: PhotonParams,
    rule: QuadratureRule | None = None,
) -> float:
    """Two-party correlation of the lossy photon-pair measurement, n <= 4.

    The density-matrix oracle of ``photon.photon_correlator``, with the
    Gaussian angle average (order 20 per axis by default) taken on the
    state: every stage is linear in the (n + 1)^8-entry matrix, so party a's
    rotations are averaged first, then party b's, and loss and readout run
    once.  That is the node-by-node average of the sharp pipeline with the
    sums reordered, at 2 * order rotations instead of 2 * order^2.
    """
    if params.n > 4:
        raise ValueError(f"the density-matrix pipeline supports n <= 4, got n={params.n}")
    if rule is None:
        rule = gauss_hermite(20)
    n, eta, Delta = params.n, params.eta, params.Delta
    if Delta == 0.0:
        return _corr_sharp(theta_a, theta_b, n, eta)
    rho = _smeared_rotation(build_psi_n(n), "a", theta_a, n, Delta, rule)
    rho = _smeared_rotation(rho, "b", theta_b, n, Delta, rule)
    return _lose_and_read(rho, eta)


# ---------------------------------------------------------------------------
# entangled coherent states: first-principles rebuild


_ORACLE_ALPHA_MAX = 10.0
_GL_ORDER = 400


@lru_cache(maxsize=64)
def _half_line_moments(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Sign-weighted and total overlap matrices of the coherent doublet.

    Returns (sign_matrix, overlap_matrix) over the nonorthogonal basis
    (|alpha>, |-alpha>), computed by Gauss-Legendre integration of the
    position wavefunctions  <x|+-alpha> = pi^{-1/4} exp(-(x -+ sqrt(2) alpha)^2 / 2)
    over x > 0 and x < 0 separately.
    """
    x_nodes, x_weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    span = _SQRT_2 * alpha + 12.0

    def wave(x: np.ndarray, sign: float) -> np.ndarray:
        return math.pi ** -0.25 * np.exp(-0.5 * (x - sign * _SQRT_2 * alpha) ** 2)

    def half(lo: float, hi: float) -> np.ndarray:
        x = 0.5 * (hi - lo) * x_nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * x_weights
        out = np.empty((2, 2))
        for i, si in enumerate((1.0, -1.0)):
            for j, sj in enumerate((1.0, -1.0)):
                out[i, j] = float(np.sum(w * wave(x, si) * wave(x, sj)))
        return out

    plus, minus = half(0.0, span), half(-span, 0.0)
    return plus - minus, plus + minus


def oracle_ecs_quadrature(theta_a: float, theta_b: float, alpha: float) -> float:
    """Independent rebuild of the unit-efficiency ECS correlation from scratch.

    Expands the ideally rotated two-party state on the nonorthogonal doublet
    {|alpha>, |-alpha>} per party and contracts it against numerically
    integrated sign-probability matrices, keeping every cross-term overlap.
    The party-b rotation sense is chosen so the result carries the same
    ``cos 2(theta_a - theta_b)`` dependence as the closed forms.  Valid for
    ``alpha <= 10`` where the cross-term arithmetic is stable.
    """
    if not 0.0 < alpha <= _ORACLE_ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, {_ORACLE_ALPHA_MAX}] for the oracle, got {alpha}")
    sign_m, overlap_m = _half_line_moments(alpha)

    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(-theta_b), math.sin(-theta_b)
    # coefficient matrix psi[i, j] on (|alpha>, |-alpha>) x (|alpha>, |-alpha>)
    col_a = np.array([[ca, 1j * sa], [1j * sa, ca]], dtype=complex)
    col_b = np.array([[cb, 1j * sb], [1j * sb, cb]], dtype=complex)
    bare = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)  # |aa> + |-a,-a| coefficients
    psi = col_a @ bare @ col_b.T

    numer = denom = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    w = psi[i, j] * np.conj(psi[k, l])
                    numer += float(np.real(w * sign_m[k, i] * sign_m[l, j]))
                    denom += float(np.real(w * overlap_m[k, i] * overlap_m[l, j]))
    return numer / denom


# ---------------------------------------------------------------------------
# precessing spin


def parity_operator(j: float) -> np.ndarray:
    """Dichotomic parity observable in the m = -j..j projection basis."""
    j = _check_spin(j)
    m = np.arange(-j, j + 0.5)
    signs = np.where(np.round(j - m).astype(int) % 2 == 0, 1.0, -1.0)
    return np.diag(signs)


def corr_spin_parity_quad(
    tau: float, params: SpinParams, rule: QuadratureRule | None = None
) -> float:
    """Same correlation as ``leggett_garg.corr_spin_parity``, by the Gaussian angle average.

    Each m-sector phase ``exp(2 i m theta)`` is averaged over a Gaussian
    rotation angle centred at ``omega tau`` by Gauss-Hermite quadrature
    (order 40 by default).
    """
    if rule is None:
        rule = gauss_hermite(40)
    m = params.magnetic_numbers()
    total = angle_average(
        lambda angle: float(np.sum(np.cos(2.0 * m * angle))),
        (params.omega * tau,), params.Delta, rule,
    )
    return total / (2.0 * params.j + 1.0)
