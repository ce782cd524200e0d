"""Continuous-time walk: Hamiltonian, propagator, evolution series."""

import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from conftest import connected_graphs, every_matrix, stream_rows
from hypothesis import given, settings

import arenewalk as aw
from arenewalk import ctqw, graphs
from arenewalk.graphs import MoleculeGraph


def two_node(w=1.0):
    return MoleculeGraph(name="pair", node_count=2, edges=((1, 2, w),))


# ---------------------------------------------------------------- hamiltonian

def test_hamiltonian_is_weighted_laplacian():
    g = aw.load_molecule("benzene")
    H = aw.hamiltonian(g)
    npt.assert_allclose(np.diag(H), 2.936)
    assert H[0, 1] == -1.468
    npt.assert_allclose(H, H.T)
    npt.assert_allclose(H.sum(axis=1), 0, atol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_hamiltonian_is_read_only_scaled_laplacian(gamma):
    # the generator is L itself; a walk at rate gamma passes gamma * L to
    # propagator, a new array, and at gamma = 1 that is L bit for bit
    g = aw.load_molecule("naphthalene")
    H = aw.hamiltonian(g)
    assert type(H) is np.ndarray and H.dtype == np.float64
    L = np.diag(g.adjacency.sum(axis=1)) - g.adjacency
    assert np.array_equal(H, L)
    scaled = gamma * H
    assert np.array_equal(scaled, gamma * L)
    assert np.array_equal(scaled, H) == (gamma == 1.0)
    with pytest.raises(ValueError, match="read-only"):
        H[0, 0] = 0.0


@pytest.mark.parametrize("t_max, dt", [("5", 0.01), (True, 0.5), (1.0, True), (None, 0.5)])
def test_observe_rejects_non_real_grid(t_max, dt):
    # three nodes, so that the grid is checked and not the walker count
    path3 = MoleculeGraph(name="path", node_count=3, edges=((1, 2, 1.0), (2, 3, 1.0)))
    p = aw.propagator(aw.hamiltonian(path3))
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
        npt.assert_allclose(Q @ np.diag(lam) @ Q.T, h, atol=1e-10)
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_propagator_rejects_non_finite_matrix(bad):
    # inf - inf is NaN, which passes the symmetry check, and eigh returned
    # NaN eigenvalues
    with pytest.raises(ValueError, match="must be finite"):
        aw.propagator(np.array([[bad, -1.0], [-1.0, bad]]))


def test_propagator_rejects_overflowing_spectrum():
    # the weighted degrees are finite, but the largest eigenvalue, 3 * 8e307,
    # is beyond the float range: eigh returned inf, and observe then blamed
    # the grid
    g = MoleculeGraph(name="path", node_count=3, edges=((1, 2, 8e307), (2, 3, 8e307)))
    with pytest.raises(ValueError, match="spectrum is not finite"):
        aw.propagator(aw.hamiltonian(g))


def test_propagator_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        aw.propagator(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # within numpy's default rtol of 1e-5, but not symmetric
    with pytest.raises(ValueError):
        aw.propagator(np.array([[1.0, -1.0], [-1.000001, 1.000001]]))
    with pytest.raises(ValueError):
        aw.propagator(np.zeros((2, 3)))
    # below any absolute tolerance, but the whole of the matrix's scale:
    # eigh reads one triangle and returned eigenvalues [0, 0]
    with pytest.raises(ValueError, match="symmetric"):
        aw.propagator(np.array([[0.0, 1e-13], [0.0, 0.0]]))


@pytest.mark.parametrize("h", [np.array([[0, 1j, 0], [-1j, 0, 1], [0, 1, 0]]),
                               [[0, 1j], [-1j, 0]], np.eye(2, dtype=complex)])
def test_propagator_rejects_complex_matrix(h):
    # the float cast dropped the imaginary part with only a ComplexWarning:
    # the first matrix is Hermitian with eigenvalues -sqrt 2, 0, sqrt 2, and
    # its real part has -1, 0, 1. A zero imaginary part is rejected too
    with pytest.raises(ValueError, match="must be real"):
        aw.propagator(h)


def test_propagator_accepts_roundoff_asymmetry():
    # the asymmetry is a few ulps of 1e6, far above an absolute 1e-12
    H = np.array([[2e6, 1e6], [1e6 + 4e-10, 3e6]])
    assert 0 < abs(H[1, 0] - H[0, 1]) < 1e-9
    p = aw.propagator(H)
    npt.assert_allclose(p.eigenvalues, np.linalg.eigvalsh(H), rtol=1e-12)


def test_unitary_matches_expm():
    rng = np.random.default_rng(11)
    for name in ("benzene", "naphthalene"):
        h = aw.hamiltonian(aw.load_molecule(name))
        p = aw.propagator(h)
        for t in rng.uniform(0.0, 200.0, size=5):
            npt.assert_allclose(
                aw.unitary(p, t), scipy.linalg.expm(-1j * h * t), atol=1e-8
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


@pytest.mark.parametrize("t", [1e308, -1e308, float("inf"), float("nan"), "1", True])
def test_unitary_rejects_non_finite_phases(t):
    # t * lam overflows, and exp(-i inf) is NaN; "1" and True ran as t = 1.0
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    with pytest.raises(ValueError, match="is not finite|must be a real number"):
        aw.unitary(p, t)
    with pytest.raises(ValueError, match="is not finite|must be a real number"):
        aw.evolve_ensemble(p, t)


def test_unitary_of_zero_hamiltonian_at_huge_time():
    # every phase is 0 * t = 0, so U stays the identity however large t is
    npt.assert_array_equal(aw.unitary(aw.propagator(np.zeros((3, 3))), 1e308), np.eye(3))


@pytest.mark.parametrize("scale, t_max, dt", [
    (1e306, 200.0, 0.01),  # finite H, but 200 * 5.9e306 overflows
    (1.0, 1e308, 1e304),   # a 10001-sample grid whose last t * lam overflows
])
def test_evolve_rejects_non_finite_phases_before_any_block(monkeypatch, scale, t_max, dt):
    p = aw.propagator(scale * aw.hamiltonian(aw.load_molecule("benzene")))

    def no_block(*args):
        raise AssertionError("a block was evolved")

    monkeypatch.setattr(ctqw, "_unitaries", no_block)
    with pytest.raises(ValueError, match="is not finite"):
        aw.observe(p, t_max, dt)


RATES = (0.5, 2.0, 3.7)


def assert_rate_is_a_time_unit(g, times):
    # exp(-i gamma H t) = exp(-i H gamma t): a rate only rescales time. The
    # two sides differ by the roundoff of two eigendecompositions, whose
    # phase error grows as gamma * max|lam| * t; the largest gap measured was
    # 6.6e-13 on the catalog up to t = 200, and over 1000 random graphs
    # 3.1e-13 up to t = 17.3 against 4.1e-12 at t = 200
    H = aw.hamiltonian(g)
    p = aw.propagator(H)
    for gamma in RATES:
        q = aw.propagator(gamma * H)
        for t in times:
            npt.assert_allclose(aw.evolve_ensemble(q, t), aw.evolve_ensemble(p, gamma * t),
                                rtol=0, atol=1e-11)


def test_rate_is_a_time_unit():
    for name in aw.CATALOG:
        assert_rate_is_a_time_unit(aw.load_molecule(name), (0.37, 17.3, 199.99))


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_rate_is_a_time_unit_random_graphs(g):
    assert_rate_is_a_time_unit(g, (0.37, 17.3))


@pytest.mark.parametrize("t_max, dt", [(200.0, 0.01), (1.0, 0.5), (0.3, 0.1), (5.0, 0.01),
                                       (1.0, 0.3), (0.005, 0.01)])
def test_one_grid_for_evolve_and_stability(t_max, dt):
    # the grid rule, t = 0, dt, ... up to t_max inclusive with 1e-9 slack,
    # written out here; evolve and stability_entry both read ctqw._grid
    ref = np.arange(int(np.floor(t_max / dt + 1e-9)) + 1) * dt
    assert np.array_equal(ctqw._grid(t_max, dt), ref)
    g = aw.load_molecule("benzene")
    p = aw.propagator(aw.hamiltonian(g))
    obs = aw.observe(p, t_max, dt)
    assert np.array_equal(obs.times, ref)
    entry = aw.stability_entry(g, p, t_max, dt)
    assert entry.t_max == t_max
    assert entry.mean_trp == float(obs.trp.mean())


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
    times, _ = every_matrix(p, t_max=1.0, dt=0.5)
    npt.assert_allclose(times, [0.0, 0.5, 1.0])
    assert len(every_matrix(p, t_max=200.0, dt=0.01)[0]) == 20001
    with pytest.raises(ValueError):
        every_matrix(p, t_max=0.0, dt=0.1)
    with pytest.raises(ValueError):
        every_matrix(p, t_max=1.0, dt=-0.1)
    # np.arange(1) * inf is NaN
    with pytest.raises(ValueError, match="finite"):
        every_matrix(p, t_max=1.0, dt=float("inf"))
    # rejected before allocating: these grids hold 2e302 and infinitely many samples
    with pytest.raises(ValueError, match="samples"):
        every_matrix(p, t_max=200.0, dt=1e-300)
    with pytest.raises(ValueError, match="samples"):
        every_matrix(p, t_max=float("inf"), dt=0.01)


def test_sample_ceiling_boundary(monkeypatch):
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    monkeypatch.setattr(ctqw, "MAX_SAMPLES", 100)
    assert len(every_matrix(p, t_max=0.99, dt=0.01)[0]) == 100
    with pytest.raises(ValueError, match="above the limit of 100"):
        every_matrix(p, t_max=1.0, dt=0.01)


def test_series_matches_single_shot():
    # a lone sample gets the bits it has inside a block of the grid
    for name in aw.CATALOG:
        p = aw.propagator(aw.hamiltonian(aw.load_molecule(name)))
        for t, B in zip(*every_matrix(p, t_max=5.0, dt=0.01)):
            assert np.array_equal(B, aw.evolve_ensemble(p, t))


def assert_bistochastic_and_symmetric(M):
    npt.assert_allclose(M.sum(axis=2), 1.0, atol=1e-10)
    npt.assert_allclose(M.sum(axis=1), 1.0, atol=1e-10)
    npt.assert_allclose(M, M.transpose(0, 2, 1), atol=1e-12)
    assert M.min() >= 0.0
    assert M.max() <= 1.0 + 1e-12


def test_series_bistochastic_and_symmetric(full_series):
    for name in aw.CATALOG:
        p = full_series[name][1]
        assert_bistochastic_and_symmetric(every_matrix(p, t_max=200.0, dt=0.01)[1])


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_series_bistochastic_and_symmetric_random_graphs(g):
    p = aw.propagator(aw.hamiltonian(g))
    assert_bistochastic_and_symmetric(every_matrix(p, t_max=20.0, dt=0.1)[1])


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


def ladder(rungs):
    """Two chains of `rungs` nodes joined at every position, with distinct
    weights: 2 * rungs nodes."""
    edges = [(k, k + 1, 1.2 + 0.01 * k) for k in range(1, rungs)]
    edges += [(rungs + k, rungs + k + 1, 1.7 - 0.01 * k) for k in range(1, rungs)]
    edges += [(k, rungs + k, 1.45 + 0.003 * k) for k in range(1, rungs + 1)]
    return MoleculeGraph(name="ladder", node_count=2 * rungs, edges=tuple(edges))


def ring(n):
    """A cycle of n nodes, every bond of weight 1.5."""
    return MoleculeGraph(name="ring", node_count=n,
                         edges=tuple((k, k % n + 1, 1.5) for k in range(1, n + 1)))


def acene(rings):
    """Two chains of 2 * rings + 1 nodes joined by a rung at every other
    position, with distinct weights: the linear acene's 4 * rings + 2 nodes."""
    width = 2 * rings + 1
    edges = [(k, k + 1, 1.3 + 0.01 * k) for k in range(1, width)]
    edges += [(width + k, width + k + 1, 1.6 - 0.01 * k) for k in range(1, width)]
    edges += [(k, width + k, 1.4 + 0.005 * k) for k in range(1, width + 1, 2)]
    return MoleculeGraph(name="acene", node_count=2 * width, edges=tuple(edges))


@pytest.mark.parametrize("g", [acene(4), acene(5), ladder(15)], ids=["N18", "N22", "N30"])
def test_every_block_length_gives_the_complex_products_bits(g):
    # at these sizes an unpadded real GEMM gave other bits than the complex
    # product, for whole blocks and for lone samples; padded to whole tiles,
    # a sample's bits depend on neither its block nor its place in it
    p = aw.propagator(aw.hamiltonian(g))
    pairs, _ = ctqw._triangle(p)
    n = g.node_count
    times = np.arange(101) * 1.99
    rows = pairs.reshape(-1, n)[:n * (n + 1) // 2]
    ref = rows.astype(complex) @ np.exp(np.outer(p.eigenvalues, times) * -1j)
    for block in range(1, 41):
        parts = [ctqw._unitaries(p, pairs, times[s:s + block]) for s in range(0, len(times), block)]
        assert np.array_equal(np.concatenate(parts, axis=1), ref), block
    for i in (0, 1, 37, 64, 100):
        assert np.array_equal(ctqw._unitaries(p, pairs, times[i:i + 1]), ref[:, i:i + 1]), i


@pytest.mark.parametrize("n", [6, 25, 26, 50, 128, 256])
def test_every_gemm_is_within_serial_gemm(n):
    # each chunk of pairs times a tile is one GEMM, small enough for OpenBLAS
    # to keep on the calling thread; the zero rows pad only the last chunk
    pairs, _ = ctqw._triangle(aw.propagator(aw.hamiltonian(ring(n))))
    chunks, _, rows, _ = pairs.shape
    assert rows * n * 2 * ctqw.TILE <= ctqw.SERIAL_GEMM
    assert 0 <= chunks * rows - n * (n + 1) // 2 < chunks
    assert not pairs.reshape(-1, n)[n * (n + 1) // 2:].any()


def assert_blocked_equals_whole_grid(g, t_max):
    p = aw.propagator(aw.hamiltonian(g))
    ref = whole_grid_series(p, t_max, 0.01)
    assert np.array_equal(every_matrix(p, t_max=t_max, dt=0.01)[1], ref)


@pytest.mark.parametrize("t_max", [0.005, 0.05, 50.0])
def test_blocked_series_equals_whole_grid(t_max):
    # 1, 6 and 5001 samples; the last spans 2 default blocks for N = 6, 4
    # for N = 10 and 8 for N = 14
    for name in aw.CATALOG:
        assert_blocked_equals_whole_grid(aw.load_molecule(name), t_max)
    # a 50-node block holds 48 samples, so 501 span eleven; the reference
    # over 5001 samples would hold 300 MB
    assert_blocked_equals_whole_grid(ladder(25), min(t_max, 5.0))


@pytest.mark.parametrize("t_max", [0.005, 0.05, 50.0])
@settings(max_examples=20, deadline=None)
@given(g=connected_graphs())
def test_blocked_series_equals_whole_grid_random_graphs(t_max, g):
    assert_blocked_equals_whole_grid(g, t_max)


def assert_same_bits_on_1_and_3_threads(g, t_max):
    # 3 threads on a host of fewer CPUs, switched often: a block whose rows
    # were lost would leave np.empty's garbage in the output
    p = aw.propagator(aw.hamiltonian(g))
    n = g.node_count
    seen = set()

    def reduce(B):
        seen.add(threading.current_thread())
        return B

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctqw, "_cpus", lambda: 1)
            times, one = every_matrix(p, t_max=t_max, dt=0.01)
            mp.setattr(ctqw, "_cpus", lambda: 3)
            times3, three = stream_rows(p, t_max, 0.01, reduce, (n, n))
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) > 1
    assert np.array_equal(times, times3) and np.array_equal(one, three)


def test_evolve_gives_the_same_bits_on_1_and_3_threads():
    # 5001 samples span 2 blocks at N = 6 and 8 at N = 14, so N = 6 runs
    # 2 threads; the pairs of a 24-node ladder are one chunk, of a 26-node
    # one two; a 66-node acene's 301 samples are 19 blocks of one tile
    for name in aw.CATALOG:
        assert_same_bits_on_1_and_3_threads(aw.load_molecule(name), 50.0)
    for rungs, chunks in ((12, 1), (13, 2)):
        g = ladder(rungs)
        assert len(ctqw._triangle(aw.propagator(aw.hamiltonian(g)))[0]) == chunks
        assert_same_bits_on_1_and_3_threads(g, 20.0)
    assert_same_bits_on_1_and_3_threads(acene(16), 3.0)


def test_evolve_threads_each_take_a_whole_block_and_a_tile(monkeypatch):
    # on 64 CPUs the blocks go to MAX_THREADS threads at every N:
    # anthracene's of BLOCK_BYTES, and a 128-node ring's of a tile, as its
    # BLOCK_BYTES would hold 8 samples, under a tile
    monkeypatch.setattr(ctqw, "_cpus", lambda: 64)
    ring128 = ring(128)
    for g, t_max, threads in ((aw.load_molecule("anthracene"), 200.0, 4), (ring128, 1.0, 4)):
        p = aw.propagator(aw.hamiltonian(g))
        seen, longest = set(), []

        def reduce(B):
            seen.add(threading.current_thread())
            longest.append(len(B))
            return B[:, 0, 0]

        stream_rows(p, t_max, 0.01, reduce)
        assert len(seen) == threads
        if g is ring128:
            assert max(longest) == ctqw.TILE
        else:
            assert 16 * g.node_count ** 2 * max(longest) <= ctqw.BLOCK_BYTES
    assert ctqw.MAX_THREADS == 4


@pytest.mark.parametrize("molecule, t_max", [*((name, 50.0) for name in aw.CATALOG), (50, 5.0)])
def test_evolve_blocks_do_not_depend_on_the_cpu_count(monkeypatch, molecule, t_max):
    # every thread takes blocks of BLOCK_BYTES, so the CPU count moves only
    # which thread evolves a block; each grid spans at least 2 blocks
    g = ring(molecule) if isinstance(molecule, int) else aw.load_molecule(molecule)
    p = aw.propagator(aw.hamiltonian(g))
    times = ctqw._grid(t_max, 0.01, p)
    runs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(ctqw, "_cpus", lambda cpus=cpus: cpus)
        bounds = []
        ctqw.evolve(p, times, lambda start, stop, B: bounds.append((start, stop)))
        obs = aw.observe(p, t_max, 0.01)
        runs.append((sorted(bounds), obs.maxp, obs.trp))
    (bounds, maxp, trp), *others = runs
    assert len(bounds) > 1
    for other in others:
        assert other[0] == bounds
        assert np.array_equal(other[1], maxp) and np.array_equal(other[2], trp)


# 15001 samples span at least 2 blocks at every N from 3 up
@settings(max_examples=20, deadline=None)
@given(g=connected_graphs())
def test_evolve_gives_the_same_bits_on_1_and_3_threads_random_graphs(g):
    assert_same_bits_on_1_and_3_threads(g, 150.0)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_evolve_raises_a_helper_threads_error_after_joining(monkeypatch, error):
    # anthracene's 20001 samples are one more than whole tiles, so only the
    # last of its 31 blocks is ragged, and of 4 threads a helper evolves it
    monkeypatch.setattr(ctqw, "_cpus", lambda: 4)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("anthracene")))
    raised_in = []

    def reduce(B):
        if len(B) % ctqw.TILE:
            raised_in.append(threading.current_thread())
            raise error("the last block")
        return B[:, 0, 0]

    before = threading.active_count()
    with pytest.raises(error, match="the last block"):
        stream_rows(p, 200.0, 0.01, reduce)
    assert len(raised_in) == 1 and raised_in[0] is not threading.main_thread()
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_evolve_stops_every_thread_at_its_next_block(monkeypatch, error):
    # the caller raises on its second block while each helper waits in the
    # reduce of its first: the helpers finish that block, and at most one
    # more that they began before they saw the error, of 10 each
    monkeypatch.setattr(ctqw, "_cpus", lambda: 3)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("anthracene")))
    calls = {}
    raised = threading.Event()

    def reduce(B):
        me = threading.current_thread()
        calls[me] = calls.get(me, 0) + 1
        if me is threading.main_thread():
            if calls[me] == 2:
                raised.set()
                raise error("the caller's block")
        else:
            assert raised.wait(timeout=60)
        return B[:, 0, 0]

    before = threading.active_count()
    with pytest.raises(error, match="the caller's block"):
        stream_rows(p, 200.0, 0.01, reduce)
    assert threading.active_count() == before
    helpers = [count for thread, count in calls.items() if thread is not threading.main_thread()]
    assert len(helpers) == 2 and max(helpers) <= 2


def test_evolve_raises_a_helper_that_did_not_start_after_joining_the_others(monkeypatch):
    # of 3 threads the second helper fails to start: the first one, already
    # running, stops at its next block and is joined before the error
    monkeypatch.setattr(ctqw, "_cpus", lambda: 3)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("anthracene")))
    start, started = threading.Thread.start, []

    def failing_start(thread):
        started.append(thread)
        if len(started) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        aw.observe(p, 200.0, 0.01)
    assert len(started) == 2 and not started[0].is_alive()
    assert threading.active_count() == before


def test_evolve_joins_every_helper_after_an_interrupt_while_joining(monkeypatch):
    # each helper waits in the reduce of its first block until the caller,
    # done with its own blocks, is interrupted in its first join; the
    # helpers then stop at their next block, and are joined before the
    # interrupt is raised
    monkeypatch.setattr(ctqw, "_cpus", lambda: 3)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("anthracene")))
    join, released = threading.Thread.join, threading.Event()
    helpers = set()

    def interrupted_join(thread, timeout=None):
        if not released.is_set():
            released.set()
            raise KeyboardInterrupt
        join(thread, timeout)

    def reduce(B):
        if threading.current_thread() is not threading.main_thread():
            helpers.add(threading.current_thread())
            assert released.wait(timeout=60)
        return B[:, 0, 0]

    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        stream_rows(p, 200.0, 0.01, reduce)
    assert released.is_set() and len(helpers) == 2
    assert not any(helper.is_alive() for helper in helpers)
    assert threading.active_count() == before


def test_a_reduce_may_call_evolve(monkeypatch):
    # each 5001-sample pass of benzene is 2 blocks on 2 threads, so every
    # outer block starts an inner pass with helpers of its own
    monkeypatch.setattr(ctqw, "_cpus", lambda: 2)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    expected = stream_rows(p, 50.0, 0.01, lambda B: B[:, 0, 0])[1]

    def reduce(B):
        assert np.array_equal(stream_rows(p, 50.0, 0.01, lambda B: B[:, 0, 0])[1], expected)
        return B[:, 0, 0]

    before = threading.active_count()
    assert np.array_equal(stream_rows(p, 50.0, 0.01, reduce)[1], expected)
    assert threading.active_count() == before


@pytest.mark.parametrize("t", [0.37, 17.3, 199.99])
def test_unitary_equals_whole_grid(t):
    # the reference grid [0, t] ends at exactly t
    for g in [*map(aw.load_molecule, aw.CATALOG), ladder(25)]:
        p = aw.propagator(aw.hamiltonian(g))
        assert np.array_equal(np.abs(aw.unitary(p, t)) ** 2, whole_grid_series(p, t, t)[1])


def test_unitary_peak_memory_is_the_triangle():
    # the module docstring's bound for a pass, here of one sample on one
    # thread: the j <= k pairs take about 4 N^3 bytes, and all N^2 pair
    # columns, 8 N^3 bytes, with one tile's temporaries would not fit
    n = 128
    p = aw.propagator(aw.hamiltonian(ring(n)))
    tracemalloc.start()
    try:
        aw.unitary(p, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * (n + 1) + max(ctqw.BLOCK_BYTES, 224 * n * n)


def assert_observe_memory_beyond_outputs_is_the_stated_bound(molecule, t_max):
    # the module docstring's bound: the pairs plus one block's temporaries
    # per thread that ran; every grid spans several blocks. The pairs'
    # gathered eigenvector rows, another 4 N^2 (N + 1) bytes, do not fit
    # from 128 nodes up
    g = ring(molecule) if isinstance(molecule, int) else aw.load_molecule(molecule)
    n = g.node_count
    p = aw.propagator(aw.hamiltonian(g))
    seen = set()
    occupancies = ctqw._occupancies

    def spy(*args):
        seen.add(threading.current_thread())
        return occupancies(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctqw, "_occupancies", spy)
        tracemalloc.start()
        try:
            obs = aw.observe(p, t_max, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(obs.times) > 2 * ctqw.BLOCK_BYTES // (16 * n * n)
    outputs = obs.times.nbytes + obs.maxp.nbytes + obs.trp.nbytes
    threads = len(seen)
    assert peak - outputs <= 4 * n * n * (n + 1) + threads * max(ctqw.BLOCK_BYTES, 224 * n * n)
    return threads


@pytest.mark.parametrize("molecule, t_max", [*((name, 200.0) for name in aw.CATALOG),
                                             (50, 20.0), (128, 1.0), (256, 1.0)])
def test_observe_memory_beyond_outputs_is_the_stated_bound(molecule, t_max):
    assert_observe_memory_beyond_outputs_is_the_stated_bound(molecule, t_max)


@pytest.mark.parametrize("molecule, t_max", [("anthracene", 200.0), (50, 20.0)])
def test_observe_memory_on_one_cpu_is_one_block_and_the_pairs(monkeypatch, molecule, t_max):
    monkeypatch.setattr(ctqw, "_cpus", lambda: 1)
    assert assert_observe_memory_beyond_outputs_is_the_stated_bound(molecule, t_max) == 1


# t_max 5, dt 0.01 gives 501 samples: a BLOCK_BYTES of 7 or 10 samples
# is under a tile, so both give 16-sample blocks with a ragged 5-sample tail
@pytest.mark.parametrize("block", [None, 7, 10])
def test_streamed_observables_equal_series(monkeypatch, block):
    for name in aw.CATALOG:
        g = aw.load_molecule(name)
        p = aw.propagator(aw.hamiltonian(g))
        times, mats = every_matrix(p, t_max=5.0, dt=0.01)
        if block is not None:
            monkeypatch.setattr(ctqw, "BLOCK_BYTES", 16 * g.node_count ** 2 * block)
            assert np.array_equal(every_matrix(p, t_max=5.0, dt=0.01)[1], mats)
        obs = aw.observe(p, 5.0, 0.01)
        assert np.array_equal(obs.times, times)
        maxp, trp = aw.metrics.site_observables(mats)
        assert np.array_equal(obs.maxp, maxp) and np.array_equal(obs.trp, trp)
