"""Tests for the truncated-Fock photon-pair simulator.

The main oracle rebuilds every pipeline stage with full-space matrices:
rotations via scipy.linalg.expm of the explicit generator, loss via
Kronecker-lifted Kraus operators (stored sparse, which changes only their
cost), detection via a plain diagonal contraction.  No einsum or tensordot
machinery from the module under test is reused.
"""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from coarsebell.oracles import (
    FockDensityMatrix,
    _corr_sharp,
    _kraus_ops,
    build_psi_n,
    corr_photon,
    dichotomic_expectation,
    gauss_hermite,
    loss_channel,
    mode_observable,
    rotate_polarization,
)
from coarsebell.photon import PhotonParams, photon_correlator


def dense_rotation(n_max: int, n: int, theta: float) -> np.ndarray:
    d = n_max + 1
    h = np.zeros((d * d, d * d))
    h[n * d, n] = 1.0
    h[n, n * d] = 1.0
    return scipy.linalg.expm(1j * theta * h)


def lift(op: np.ndarray, first: int, modes: int) -> scipy.sparse.csr_matrix:
    """``op`` on ``modes`` consecutive Fock modes from ``first``, identities on the rest."""
    d = round(op.shape[0] ** (1.0 / modes))
    before, after = scipy.sparse.identity(d**first), scipy.sparse.identity(d ** (4 - first - modes))
    return scipy.sparse.kron(scipy.sparse.kron(before, op), after, format="csr")


def dense_loss(rho: np.ndarray, n_max: int, mode: int, eta: float) -> np.ndarray:
    """One mode's loss: the Kraus sum, each operator Kronecker-lifted to all four modes."""
    out = np.zeros_like(rho)
    for k in _kraus_ops(n_max, eta):
        full = lift(k, mode, 1)
        out += full @ rho @ full.conj().T
    return out


def dense_corr_oracle(phi_a: float, phi_b: float, n: int, eta: float) -> float:
    """Same physics, different machinery: full-matrix Schroedinger evolution."""
    rho = build_psi_n(n).entries.copy()
    u_full = lift(dense_rotation(n, n, phi_a), 0, 2) @ lift(dense_rotation(n, n, phi_b), 2, 2)
    rho = u_full @ rho @ u_full.conj().T
    for mode in range(4):
        rho = dense_loss(rho, n, mode, eta)
    o = mode_observable(n)
    return float(np.real(np.sum(np.diagonal(rho) * np.kron(o, o))))


# ---------------------------------------------------------------------------
# building blocks


@pytest.mark.parametrize("n_max", [1, 3])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.7, 1.0])
def test_kraus_operators_are_complete(n_max, eta):
    ops = _kraus_ops(n_max, eta)
    total = sum(k.T @ k for k in ops)
    assert np.allclose(total, np.eye(n_max + 1), atol=1e-12)


def test_loss_channel_gives_binomial_occupation():
    # |2> in mode aH decays into a Binomial(2, eta) mixture over 0,1,2
    n_max, eta = 2, 0.65
    d = n_max + 1
    vec = np.zeros(d ** 4)
    idx = (2 * d + 0) * d * d + 0  # |2,0>_a |0,0>_b
    vec[idx] = 1.0
    rho = FockDensityMatrix(entries=np.outer(vec, vec).astype(complex), n_max=n_max)
    out = loss_channel(rho, 0, eta)
    diag = np.real(np.diagonal(out.entries))
    occup = diag.reshape([d] * 4).sum(axis=(1, 2, 3))
    for k in range(d):
        want = math.comb(2, 2 - k) * eta ** k * (1 - eta) ** (2 - k)
        assert occup[k] == pytest.approx(want, abs=1e-14)


@functools.lru_cache(maxsize=None)
def random_state(n_max: int, seed: int) -> FockDensityMatrix:
    """A full-rank density matrix whose every entry, coherences included, is nonzero."""
    dim = (n_max + 1) ** 4
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return FockDensityMatrix(entries=rho / np.trace(rho).real, n_max=n_max)


def test_rotation_block_matches_matrix_exponential():
    # the whole output, against U rho U^dagger with U = expm of the explicit generator
    for n in (1, 2, 3, 4):
        rho = random_state(n, seed=n)
        for theta in (0.3, 1.1, -0.7):
            u = dense_rotation(n, n, theta)
            for party, first in (("a", 0), ("b", 2)):
                u_full = lift(u, first, 2)
                want = u_full @ rho.entries @ u_full.conj().T
                got = rotate_polarization(rho, party, theta, n).entries
                assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_loss_channel_matches_lifted_kraus_sum(n, eta):
    # the whole output matrix, coherences included: amplitude damping never carries a
    # coherence into a population, so the diagonal alone cannot catch a misplaced one
    rho = random_state(n, seed=10 + n)
    for mode in range(4):
        got = loss_channel(rho, mode, eta).entries
        assert np.max(np.abs(got - dense_loss(rho.entries, n, mode, eta))) <= 1e-14


def test_observable_diagonal_is_pinned():
    o = mode_observable(2)
    d = 3
    assert o[0 * d + 0] == 1.0  # vacuum counts as +1
    assert o[2 * d + 0] == 1.0  # pure H
    assert o[0 * d + 2] == -1.0  # pure V
    assert o[1 * d + 1] == 0.0  # mixed occupation is discarded
    assert o[2 * d + 1] == 0.0


def test_pair_state_is_normalized_and_symmetric():
    rho = build_psi_n(2)
    numpy_n = build_psi_n(np.int64(2))
    assert type(numpy_n.n_max) is int and np.array_equal(numpy_n.entries, rho.entries)
    with pytest.raises(ValueError, match="n must be an integer"):
        build_psi_n(True)
    assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-14)
    # swapping the two parties leaves the state invariant
    p = rho.mode_dim ** 2
    r4 = rho.entries.reshape(p, p, p, p)
    swapped = np.transpose(r4, (1, 0, 3, 2)).reshape(p * p, p * p)
    assert np.allclose(swapped, rho.entries, atol=1e-14)


def test_density_matrix_validation():
    good = np.eye(16, dtype=complex) / 16.0
    FockDensityMatrix(entries=good, n_max=1)
    with pytest.raises(ValueError):
        FockDensityMatrix(entries=np.eye(15, dtype=complex) / 15.0, n_max=1)
    bad_trace = np.eye(16, dtype=complex)
    with pytest.raises(ValueError):
        FockDensityMatrix(entries=bad_trace, n_max=1)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.5
    with pytest.raises(ValueError):
        FockDensityMatrix(entries=bad_herm, n_max=1)


def test_params_validation():
    with pytest.raises(ValueError):
        PhotonParams(n=0)
    with pytest.raises(ValueError, match="n <= 4"):
        corr_photon(0.1, 0.2, PhotonParams(n=5))
    with pytest.raises(ValueError):
        PhotonParams(n=1, eta=1.2)
    with pytest.raises(ValueError):
        PhotonParams(n=1, eta=-0.1)
    with pytest.raises(ValueError):
        PhotonParams(n=1, Delta=-0.2)


def test_pipeline_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(42)
    n = 2
    d4 = (n + 1) ** 4
    a = rng.normal(size=(d4, d4)) + 1j * rng.normal(size=(d4, d4))
    raw = a @ a.conj().T
    raw /= np.trace(raw).real
    rho = FockDensityMatrix(entries=raw, n_max=n)
    rho = rotate_polarization(rho, "a", 0.8, n)
    rho = rotate_polarization(rho, "b", -0.3, n)
    for mode in range(4):
        rho = loss_channel(rho, mode, 0.55)
    # the FockDensityMatrix constructor re-asserts both invariants; check the
    # numbers explicitly anyway
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho.entries, rho.entries.conj().T, atol=1e-12)


def test_reduced_state_of_one_party_is_the_even_mixture():
    rho = build_psi_n(2)
    p = rho.mode_dim ** 2
    r4 = rho.entries.reshape(p, p, p, p)
    reduced_a = np.einsum("abcb->ac", r4)
    d = rho.mode_dim
    want = np.zeros((p, p), dtype=complex)
    want[2 * d, 2 * d] = 0.5  # |2,0><2,0|
    want[2, 2] = 0.5  # |0,2><0,2|
    assert np.allclose(reduced_a, want, atol=1e-14)


@pytest.mark.parametrize("eta", [0.0, 0.35, 1.0])
def test_single_party_marginal_expectation_after_loss(eta):
    # <O_a x 1> = (1-eta)^n : +1 from the all-H branch, 2(1-eta)^n - 1 from
    # the all-V branch whose photons must all be lost to read +1
    n = 2
    rho = build_psi_n(n)
    for mode in range(4):
        rho = loss_channel(rho, mode, eta)
    o = mode_observable(n)
    ones = np.ones_like(o)
    got = float(np.real(np.sum(np.diagonal(rho.entries) * np.kron(o, ones))))
    assert got == pytest.approx((1.0 - eta) ** n, abs=1e-12)
    got_b = float(np.real(np.sum(np.diagonal(rho.entries) * np.kron(ones, o))))
    assert got_b == pytest.approx((1.0 - eta) ** n, abs=1e-12)


# ---------------------------------------------------------------------------
# correlations


ANGLES = (0.0, 0.55, 2.1)


@pytest.mark.parametrize("n", [1, 2])
def test_pipeline_matches_dense_matrix_oracle(n):
    eta = 0.6
    for pa in ANGLES:
        for pb in ANGLES:
            got = _corr_sharp(pa, pb, n, eta)
            assert got == pytest.approx(dense_corr_oracle(pa, pb, n, eta), abs=1e-10)


def test_unit_efficiency_single_pair_reproduces_singlet_form():
    params = PhotonParams(n=1, eta=1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        ta, tb = rng.uniform(0.0, math.pi, size=2)
        got = corr_photon(ta, tb, params)
        assert got == pytest.approx(-math.cos(2.0 * (ta + tb)), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_lossy_correlation_matches_binomial_closed_form(n, eta):
    miss = (1.0 - eta) ** n
    for pa in ANGLES:
        for pb in ANGLES:
            want = miss * miss - (1.0 - miss) ** 2 * math.cos(2.0 * (pa + pb))
            assert _corr_sharp(pa, pb, n, eta) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,eta,Delta", [(1, 1.0, 0.0), (1, 0.8, 0.5), (2, 1.0, 0.5)])
def test_fast_correlator_agrees_with_the_density_matrix_average(n, eta, Delta):
    params = PhotonParams(n=n, eta=eta, Delta=Delta)
    rule = gauss_hermite(20)
    fast = photon_correlator(params)
    for pa in ANGLES:
        for pb in ANGLES:
            assert fast(pa, pb) == pytest.approx(
                corr_photon(pa, pb, params, rule=rule), abs=1e-12
            )


def test_per_party_average_is_the_node_by_node_average():
    # corr_photon sums each party's rotated states before loss and readout;
    # this literal loop runs the whole sharp pipeline at every node pair
    params = PhotonParams(n=1, eta=0.8, Delta=0.5)
    rule = gauss_hermite(5)
    scale = math.sqrt(2.0) * params.Delta
    for pa in ANGLES:
        for pb in ANGLES:
            loop = 0.0
            for xa, wa in zip(rule.nodes, rule.weights):
                for xb, wb in zip(rule.nodes, rule.weights):
                    loop += wa * wb * _corr_sharp(pa + scale * xa, pb + scale * xb, 1, params.eta)
            assert corr_photon(pa, pb, params, rule=rule) == pytest.approx(loop, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_smeared_lossy_pipeline_matches_closed_form(n):
    # two angle pairs: each call rotates the (n + 1)^8-entry state 40 times
    params = PhotonParams(n=n, eta=0.7, Delta=0.4)
    fast = photon_correlator(params)
    for pa, pb in ((0.55, 2.1), (2.1, 0.0)):
        assert corr_photon(pa, pb, params) == pytest.approx(fast(pa, pb), abs=1e-12)


def test_rotation_rejects_bad_party_and_block():
    rho = build_psi_n(1)
    with pytest.raises(ValueError):
        rotate_polarization(rho, "c", 0.1, 1)
    with pytest.raises(ValueError):
        rotate_polarization(rho, "a", 0.1, 2)
    with pytest.raises(ValueError, match="must be an integer"):
        rotate_polarization(rho, "a", 0.1, True)
    for theta in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="theta must be finite"):
            rotate_polarization(rho, "a", theta, 1)
    assert np.array_equal(
        rotate_polarization(rho, "a", 0.1, np.int64(1)).entries,
        rotate_polarization(rho, "a", 0.1, 1).entries,
    )


def test_loss_channel_rejects_bad_mode_and_eta():
    rho = build_psi_n(1)
    with pytest.raises(ValueError):
        loss_channel(rho, 4, 0.5)
    with pytest.raises(ValueError, match="must be an integer"):
        loss_channel(rho, True, 0.5)
    assert np.array_equal(
        loss_channel(rho, np.int64(2), 0.5).entries, loss_channel(rho, 2, 0.5).entries
    )
    with pytest.raises(ValueError):
        loss_channel(rho, 0, 1.5)


def test_dichotomic_expectation_of_plain_mixture():
    # diagonal state: half pure-H pair (+1 * +1), half H/V pair (+1 * -1)
    n = 1
    d = 2
    p = d * d
    diag = np.zeros(p * p, dtype=complex)
    hh = (1 * d + 0) * p + (1 * d + 0)  # |1,0>_a |1,0>_b
    hv = (1 * d + 0) * p + (0 * d + 1)  # |1,0>_a |0,1>_b
    diag[hh] = 0.5
    diag[hv] = 0.5
    rho = FockDensityMatrix(entries=np.diag(diag), n_max=n)
    assert dichotomic_expectation(rho) == pytest.approx(0.0, abs=1e-15)
