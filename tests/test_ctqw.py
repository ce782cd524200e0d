"""Continuous-time walk: Hamiltonian, propagator, evolution series."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from conftest import connected_graphs
from hypothesis import given, settings

import arenewalk as aw
from arenewalk import ctqw, graphs
from arenewalk.graphs import MoleculeGraph


def two_node(w=1.0):
    return MoleculeGraph(name="pair", node_count=2, edges=((1, 2, w),))


# ---------------------------------------------------------------- hamiltonian

def test_hamiltonian_is_weighted_laplacian():
    g = aw.load_molecule("benzene")
    H = aw.hamiltonian(g).matrix
    npt.assert_allclose(np.diag(H), 2.936)
    assert H[0, 1] == -1.468
    npt.assert_allclose(H, H.T)
    npt.assert_allclose(H.sum(axis=1), 0, atol=1e-12)


def test_hamiltonian_scale():
    g = two_node(1.3)
    H1 = aw.hamiltonian(g).matrix
    H2 = aw.hamiltonian(g, gamma_scale=2.0).matrix
    npt.assert_allclose(H2, 2.0 * H1)
    with pytest.raises(ValueError):
        aw.hamiltonian(g, gamma_scale=0.0)
    with pytest.raises(ValueError):
        aw.hamiltonian(g, gamma_scale=-1.0)
    with pytest.raises(ValueError, match="finite"):
        aw.hamiltonian(g, gamma_scale=float("inf"))


@pytest.mark.parametrize("value", [True, "2", None])
def test_hamiltonian_rejects_non_real_scale(value):
    with pytest.raises(ValueError, match="real number"):
        aw.hamiltonian(two_node(), gamma_scale=value)


@pytest.mark.parametrize("t_max, dt", [("5", 0.01), (True, 0.5), (1.0, True), (None, 0.5)])
def test_observe_rejects_non_real_grid(t_max, dt):
    p = aw.propagator(aw.hamiltonian(two_node()))
    with pytest.raises(ValueError, match="must be a real number"):
        aw.observe(p, t_max, dt)


def test_two_node_spectrum():
    w = 1.468
    p = aw.propagator(aw.hamiltonian(two_node(w)))
    npt.assert_allclose(sorted(p.eigenvalues), [0.0, 2.0 * w], atol=1e-12)


# ---------------------------------------------------------------- propagator

def test_propagator_reconstructs_hamiltonian():
    for name in aw.CATALOG:
        h = aw.hamiltonian(aw.load_molecule(name))
        p = aw.propagator(h)
        Q, lam = p.eigenvectors, p.eigenvalues
        npt.assert_allclose(Q @ np.diag(lam) @ Q.T, h.matrix, atol=1e-10)
        npt.assert_allclose(Q.T @ Q, np.eye(len(lam)), atol=1e-10)


def test_propagator_accepts_plain_matrix():
    p = aw.propagator(np.zeros((3, 3)))
    npt.assert_allclose(aw.unitary(p, 17.3), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("n", [graphs.MAX_NODES + 1, 1000])
def test_propagator_rejects_matrix_over_node_ceiling(n):
    # a raw matrix never passes MoleculeGraph's node ceiling
    H = np.zeros((n, n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"above the limit of {graphs.MAX_NODES}"):
            aw.propagator(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_propagator_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        aw.propagator(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # within numpy's default rtol of 1e-5, but not symmetric
    with pytest.raises(ValueError):
        aw.propagator(np.array([[1.0, -1.0], [-1.000001, 1.000001]]))
    with pytest.raises(ValueError):
        aw.propagator(np.zeros((2, 3)))


def test_unitary_matches_expm():
    rng = np.random.default_rng(11)
    for name in ("benzene", "naphthalene"):
        h = aw.hamiltonian(aw.load_molecule(name))
        p = aw.propagator(h)
        for t in rng.uniform(0.0, 200.0, size=5):
            npt.assert_allclose(
                aw.unitary(p, t), scipy.linalg.expm(-1j * h.matrix * t), atol=1e-8
            )


def test_unitary_is_unitary():
    rng = np.random.default_rng(12)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("phenanthrene")))
    n = 14
    for t in rng.uniform(0.0, 200.0, size=20):
        U = aw.unitary(p, t)
        npt.assert_allclose(U.conj().T @ U, np.eye(n), atol=1e-10)


def test_unitary_semigroup():
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("anthracene")))
    npt.assert_allclose(
        aw.unitary(p, 1.7) @ aw.unitary(p, 2.4), aw.unitary(p, 4.1), atol=1e-9
    )


# ---------------------------------------------------------------- evolution

def test_evolve_identity_at_zero():
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("naphthalene")))
    npt.assert_allclose(aw.evolve_ensemble(p, 0.0), np.eye(10), atol=1e-12)


def test_two_node_half_transfer():
    w = 1.468
    p = aw.propagator(aw.hamiltonian(two_node(w)))
    B = aw.evolve_ensemble(p, np.pi / (4.0 * w))
    npt.assert_allclose(B, np.full((2, 2), 0.5), atol=1e-12)


def test_benzene_circulant_symmetry():
    # site-transitive ring: B_jk depends only on (k - j) mod 6
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    B = aw.evolve_ensemble(p, 3.3)
    for shift in range(6):
        col = [B[j, (j + shift) % 6] for j in range(6)]
        npt.assert_allclose(col, col[0], atol=1e-12)


def test_series_grid_counts():
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    s = aw.time_series(p, t_max=1.0, dt=0.5)
    npt.assert_allclose(s.times, [0.0, 0.5, 1.0])
    assert len(aw.time_series(p, t_max=200.0, dt=0.01).times) == 20001
    with pytest.raises(ValueError):
        aw.time_series(p, t_max=0.0, dt=0.1)
    with pytest.raises(ValueError):
        aw.time_series(p, t_max=1.0, dt=-0.1)
    # np.arange(1) * inf is NaN
    with pytest.raises(ValueError, match="finite"):
        aw.time_series(p, t_max=1.0, dt=float("inf"))
    # rejected before allocating: these grids hold 2e302 and infinitely many samples
    with pytest.raises(ValueError, match="samples"):
        aw.time_series(p, t_max=200.0, dt=1e-300)
    with pytest.raises(ValueError, match="samples"):
        aw.time_series(p, t_max=float("inf"), dt=0.01)


def test_sample_ceiling_boundary(monkeypatch):
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    monkeypatch.setattr(ctqw, "MAX_SAMPLES", 100)
    assert len(aw.time_series(p, t_max=0.99, dt=0.01).times) == 100
    with pytest.raises(ValueError, match="above the limit of 100"):
        aw.time_series(p, t_max=1.0, dt=0.01)


def test_series_matches_single_shot():
    # a lone sample gets the bits it has inside a block of the grid
    for name in aw.CATALOG:
        p = aw.propagator(aw.hamiltonian(aw.load_molecule(name)))
        s = aw.time_series(p, t_max=5.0, dt=0.01)
        for t, B in zip(s.times, s.matrices):
            assert np.array_equal(B, aw.evolve_ensemble(p, t))


def assert_bistochastic_and_symmetric(M):
    npt.assert_allclose(M.sum(axis=2), 1.0, atol=1e-10)
    npt.assert_allclose(M.sum(axis=1), 1.0, atol=1e-10)
    npt.assert_allclose(M, M.transpose(0, 2, 1), atol=1e-12)
    assert M.min() >= 0.0
    assert M.max() <= 1.0 + 1e-12


def test_series_bistochastic_and_symmetric(full_series):
    for name in aw.CATALOG:
        assert_bistochastic_and_symmetric(full_series[name][1].matrices)


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_series_bistochastic_and_symmetric_random_graphs(g):
    p = aw.propagator(aw.hamiltonian(g))
    assert_bistochastic_and_symmetric(aw.time_series(p, t_max=20.0, dt=0.1).matrices)


def whole_grid_series(p, t_max, dt):
    """B(t) from one product of the eigenvector pairs Q[j, l] Q[k, l] with
    the phases over the whole grid: the unblocked reference. A 1-sample
    grid is evaluated as a pair, because numpy evaluates a one-column
    product as a matrix-vector product, which rounds differently."""
    times = np.arange(int(np.floor(t_max / dt + 1e-9)) + 1) * dt
    grid = np.repeat(times, 2) if len(times) == 1 else times
    Q, n = p.eigenvectors, len(p.eigenvalues)
    phases = np.exp(-1j * np.outer(grid, p.eigenvalues))
    pairs = np.array([np.outer(Q[:, l], Q[:, l]).ravel() for l in range(n)])
    U = (pairs.T @ phases.T).reshape(n, n, len(grid)).transpose(2, 0, 1)
    return np.abs(U[:len(times)]) ** 2


@pytest.mark.parametrize("t_max", [0.005, 0.05, 50.0])
def test_blocked_series_equals_whole_grid(t_max):
    # 1, 6 and 5001 samples; the last spans two default blocks for N = 14
    for name in aw.CATALOG:
        p = aw.propagator(aw.hamiltonian(aw.load_molecule(name)))
        ref = whole_grid_series(p, t_max, 0.01)
        assert np.array_equal(aw.time_series(p, t_max=t_max, dt=0.01).matrices, ref)


# t_max 5, dt 0.01 gives 501 samples: blocks of 7 leave a ragged 4-sample
# tail, blocks of 10 a single sample
@pytest.mark.parametrize("block", [None, 7, 10])
def test_streamed_observables_equal_series(monkeypatch, block):
    for name in aw.CATALOG:
        g = aw.load_molecule(name)
        p = aw.propagator(aw.hamiltonian(g))
        series = aw.time_series(p, t_max=5.0, dt=0.01)
        if block is not None:
            monkeypatch.setattr(ctqw, "BLOCK_BYTES", 16 * g.node_count ** 2 * block)
            assert np.array_equal(aw.time_series(p, t_max=5.0, dt=0.01).matrices,
                                  series.matrices)
        obs = aw.observe(p, 5.0, 0.01)
        assert np.array_equal(obs.times, series.times)
        maxp, trp = aw.site_observables(series.matrices)
        assert np.array_equal(obs.maxp, maxp) and np.array_equal(obs.trp, trp)
        assert aw.site_reports(g, obs) == aw.site_reports(g, series)
        assert (aw.stability_entry(g, obs, 5.0, 0.01)
                == aw.stability_entry(g, series, 5.0, 0.01))
