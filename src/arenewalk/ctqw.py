"""Continuous-time quantum walk on a weighted molecular graph.

The generator is the weighted graph Laplacian L, passed as the plain
read-only (N, N) float64 matrix; a rate gamma only rescales time, since
exp(-i gamma L t) = exp(-i L gamma t). Evolution uses a one-time
symmetric eigendecomposition, so any time t is reached exactly (no time
stepping error). U(t) = Q diag(exp(-i lam t)) Q^T is symmetric, so on a set
of times it is one product of the eigenvector pairs Q[j, l] Q[k, l] with
j <= k and the phases: the upper triangle, which one (N, N) index array
gathers back to the full matrices. The product is a real GEMM over the
float view of the phases, run in whole tiles of TILE samples, so a sample
has the same bits in any block, and from unitary as from evolve. The pairs
are cut into chunks of equal rows whose product with one tile is within
SERIAL_GEMM multiply-adds, so under OpenBLAS's default threshold every
GEMM runs on the calling thread, at every N; all of them are one matmul.
evolve is the one pass over a grid: it evolves blocks and hands each to
its caller's sink, so nothing here holds every B(t) of a grid unless the
sink keeps it. It shares the blocks among one thread per CPU the process
may run on, at most MAX_THREADS, and no more threads than a block holds
whole tiles. Each thread evolves blocks of BLOCK_BYTES, whole tiles, at
least one, so a grid's blocks do not depend on the thread count. Beyond
what the sink keeps, a pass holds at most
threads BLOCK_BYTES + 16 N^2 (N + 1) / 2 bytes. The N^2 (N + 1) / 2
pair entries, computed once per pass and shared, take 8 bytes each;
they are built one eigenvector row at a time, so no gathered rows are
held, and the zero rows that pad the last chunk are fewer than the
chunks. Up to 90 nodes a block's temporaries stay within BLOCK_BYTES;
from 91 nodes up a block is one tile, on one thread, whose temporaries
take about 192 N^2 bytes, within the other 4 N^2 (N + 1) bytes of the
bound from 47 nodes up. The threads give every sample the bits one
thread gives it.
hbar = 1 throughout.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import graphs

# Bytes of one thread's complex (samples, N, N) block, which set its
# sample count; the upper triangle evolved per block is about half of
# that. observe on one thread at 1, 2, 4 and 8 MB on a 2-core x86 host
# took 21.6, 19.6, 20.5 and 29.4 ms at N = 14 (20001 samples), 43.7,
# 47.3, 48.5 and 49.0 ms at N = 22 (20001) and 31.0, 23.3, 22.8 and 25.1
# ms at N = 50 (2001): 2 MB is within 8% of the fastest size at each N,
# and 1.5 MB was no faster at N = 50 (29.3-29.9 ms of CPU against
# 28.7-29.1). Each thread hands the GIL over a few times per block: on 2
# threads the five stability passes of acenes 1-5 made 1,400-1,500
# voluntary context switches with blocks of 1 MB each, against 320-420
# with blocks of 2 MB each and fewer numpy calls per block, and took
# 93-104 ms of wall (165-182 of CPU) against 75-95 (140-170).
BLOCK_BYTES = 2 << 20
# Samples per tile of the product: each block is padded with zero phases
# to whole tiles. OpenBLAS's real GEMM rounds a ragged column tile its own
# way, so unpadded a sample's bits depended on its block: on a 2-core x86
# host (OpenBLAS 0.3.31, at 1 and 2 threads), blocks of 1-40 samples and
# lone samples differed from the complex product on acenes of 18, 22 and
# 50 nodes and random graphs of 30, 50, 64 and 90 nodes. 4-sample tiles
# gave its bits there and on the catalog; 16 leaves margin.
TILE = 16
# OpenBLAS runs a GEMM of at most this many multiply-adds on the calling
# thread: 65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4. Another
# BLAS, or an OpenBLAS built with another threshold, may thread GEMMs this
# small, and then each of evolve's threads wakes its own BLAS threads (the
# manifest's blas_build names the BLAS).
SERIAL_GEMM = 65536 * 4
# Most threads evolve runs. On a 2-core x86 host, forced onto the 2 CPUs,
# the five stability passes of acenes 1-5 took 111-120 ms of wall on 4
# threads against 103-108 on 2 and 105-111 on 1, and 214-249 on 8, when
# the threads shared one BLOCK_BYTES of blocks.
MAX_THREADS = 4
# Largest sampling grid accepted; checked before anything is allocated.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True, eq=False)
class Propagator:
    """Spectral factors of a Hamiltonian: H = Q diag(eigenvalues) Q^T."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hamiltonian(g):
    """Walk generator of a molecule graph, its weighted Laplacian
    L = D - A: positive semidefinite with zero row sums, as a read-only
    (N, N) float64 array; finite, since MoleculeGraph rejects weights whose
    weighted degree overflows."""
    matrix = np.diag(graphs.weighted_degrees(g)) - g.adjacency
    matrix.flags.writeable = False
    return matrix


def propagator(h):
    """Eigendecompose the generator once; U(t) is then exact for every t.
    h is any real symmetric matrix, such as the read-only L that hamiltonian
    returns, or gamma * L for a walk at rate gamma."""
    H = np.asarray(h)
    # the cast to float would drop an imaginary part with only a warning
    if np.iscomplexobj(H):
        raise ValueError(f"Hamiltonian must be real, got dtype {H.dtype}")
    H = H.astype(float, copy=False)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {H.shape}")
    # a raw matrix has not passed MoleculeGraph's node ceiling
    if len(H) > graphs.MAX_NODES:
        raise ValueError(f"Hamiltonian of {len(H)} nodes is above the limit of {graphs.MAX_NODES}")
    # checked first: inf - inf is NaN, which the symmetry check lets pass
    if not np.isfinite(H).all():
        raise ValueError("Hamiltonian must be finite")
    # eigh reads one triangle, so any asymmetry above roundoff at the
    # matrix's own scale is rejected; the zero matrix must be exact
    if np.abs(H - H.T).max(initial=0.0) > 1e-12 * np.abs(H).max(initial=0.0):
        raise ValueError("Hamiltonian must be symmetric")
    lam, Q = np.linalg.eigh(H)
    # a finite H can still have eigenvalues beyond the float range: those of
    # L reach up to twice its largest weighted degree
    if not (np.isfinite(lam).all() and np.isfinite(Q).all()):
        raise ValueError("Hamiltonian's spectrum is not finite: an eigenvalue "
                         "or eigenvector overflows the float range")
    return Propagator(eigenvalues=lam, eigenvectors=Q)


def _triangle(p):
    """The invariants of every product of a pass: the eigenvector pairs
    pairs[r, l] = Q[j, l] Q[k, l] for the r-th pair j <= k in row-major
    order, cut into chunks of equal rows whose product with one tile is
    within SERIAL_GEMM, shaped (chunks, 1, rows, N) with zero rows padding
    the last chunk, and the (N, N) index array whose [j, k] and [k, j]
    both hold r."""
    Q = p.eigenvectors
    n = len(Q)
    j, k = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[j, k] = index[k, j] = np.arange(len(j))
    chunks = -(-len(j) // max(1, SERIAL_GEMM // (2 * TILE * n)))
    rows = -(-len(j) // chunks)
    pairs = np.zeros((chunks * rows, n))
    # the pairs of one row a at a time, Q[a] times Q[a:], so no (pairs, N)
    # gather of eigenvector rows is made: the pairs are the only N^3 array
    r = 0
    for a in range(n):
        np.multiply(Q[a], Q[a:], out=pairs[r:r + n - a])
        r += n - a
    return pairs.reshape(chunks, 1, rows, n), index


def _unitaries(p, pairs, times):
    """The upper triangle of U(t) = Q diag(exp(-i lam t)) Q^T at each of
    times, shaped (N(N+1)/2, samples): row r is U[j, k] for the r-th pair
    of _triangle, pairs times the phases."""
    n, m = len(p.eigenvalues), len(times)
    # zero phases pad the block to whole tiles, so each sample is evaluated
    # in a full tile (see TILE), a lone one too
    tiles = -(-m // TILE)
    phases = np.empty((n, tiles * TILE), dtype=complex)
    lam_t = phases[:, :m]
    np.multiply.outer(p.eigenvalues, times, out=lam_t)
    np.multiply(lam_t, -1j, out=lam_t)
    np.exp(lam_t, out=lam_t)
    phases[:, m:] = 0
    # a real GEMM over the interleaved real and imaginary parts: half the
    # flops of the complex product, and pairs is not cast to complex. t is
    # the fastest axis in memory: a C-ordered phases @ pairs.T gives the
    # same values, but site_observables then reduces over rows of only N
    # elements and observe ran 1.6x slower. One GEMM per chunk of pairs and
    # tile, each within SERIAL_GEMM, so OpenBLAS computes it on the calling
    # thread and evolve's threads do not each wake its own; all of them
    # are one matmul, written through out into the (rows, 2 samples) layout
    chunks, _, rows, _ = pairs.shape
    out = np.empty((chunks * rows, 2 * TILE * tiles))
    np.matmul(pairs, phases.view(float).reshape(n, tiles, 2 * TILE).transpose(1, 0, 2),
              out=out.reshape(chunks, rows, tiles, 2 * TILE).transpose(0, 2, 1, 3))
    return out[:n * (n + 1) // 2].view(complex)[:, :m]


def _square(tri, index):
    """The (samples, N, N) symmetric matrices whose upper triangles are the
    rows of tri, gathered by the index of _triangle; t stays the fastest axis."""
    return tri[index].transpose(2, 0, 1)


def _occupancies(p, pairs, index, times):
    """The (samples, N, N) B(t) = |U(t)|^2 at each of times, squared in
    place; the triangle is freed on return, so only B reaches the sink."""
    tri = np.abs(_unitaries(p, pairs, times))
    np.square(tri, out=tri)
    return _square(tri, index)


def _check_phases(p, t):
    """Reject a time t whose phases t * lam are not finite: exp of them,
    and so U(t), would be NaN."""
    lam = float(np.abs(p.eigenvalues).max())
    if not np.isfinite(abs(float(t)) * lam):
        raise ValueError(f"phase t * eigenvalue is not finite at t = {t} "
                         f"(largest |eigenvalue| {lam:.6g})")


def unitary(p, t):
    """U(t), unitary for every real t whose phases are finite, from the
    product evolve takes over its blocks, here over a single sample."""
    if not graphs._is_real(t):
        raise ValueError(f"t must be a real number, got {t!r}")
    t = float(t)
    _check_phases(p, t)
    pairs, index = _triangle(p)
    return _square(_unitaries(p, pairs, [t]), index)[0]


def evolve_ensemble(p, t):
    """Walker-occupancy matrix B(t): row j is the distribution of the walker
    started at node j. Bistochastic and symmetric for the Laplacian generator;
    B(0) is the identity."""
    return np.abs(unitary(p, t)) ** 2


def _grid(t_max, dt, *props):
    """The validated sampling grid t = 0, dt, 2*dt, ... up to t_max
    inclusive, whose last phases are finite for each of the propagators."""
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not graphs._is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if not t_max > 0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    # an infinite dt would put NaN (0 * inf) on the grid
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    # 1e-9 slack so t_max lands on the grid despite float division
    count = np.floor(t_max / dt + 1e-9) + 1
    if not count <= MAX_SAMPLES:
        raise ValueError(
            f"t_max {t_max} / dt {dt} asks for {count:.6g} samples, "
            f"above the limit of {MAX_SAMPLES}"
        )
    for p in props:
        _check_phases(p, (count - 1) * dt)
    return np.arange(int(count)) * dt


def _cpus():
    """The CPUs this process may run on, from its affinity: a CPU quota
    of its cgroup is not read. evolve runs up to a thread on each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux and some BSDs
        return os.cpu_count() or 1


def _share(blocks, threads, run):
    """Call run(start, stop) on every block: the caller takes blocks 0,
    threads, 2 threads, ... and helper thread k the blocks k, k + threads,
    .... The first exception of any thread, an interrupt included, stops the
    others at their next block, and is raised once every helper is joined."""
    halt = threading.Event()
    errors = []

    def share(k):
        try:
            for block in blocks[k::threads]:
                if halt.is_set():
                    return
                run(*block)
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)
            halt.set()

    helpers = []
    try:
        for k in range(1, min(threads, len(blocks))):
            helper = threading.Thread(target=share, args=(k,))
            helper.start()
            helpers.append(helper)
        share(0)
    except BaseException as exc:  # a helper that did not start, or an interrupt
        errors.append(exc)
        halt.set()
    for helper in helpers:
        while helper.is_alive():
            try:
                helper.join()
            except BaseException as exc:  # an interrupt while joining
                errors.append(exc)
                halt.set()
    if errors:
        raise errors[0]


def _block(n):
    """Samples per block and threads of a pass at N = n: the whole tiles
    of BLOCK_BYTES, at least one, and a thread per CPU, at most
    MAX_THREADS and no more than a block holds tiles."""
    step = BLOCK_BYTES // (16 * n * n)
    threads = max(1, min(_cpus(), MAX_THREADS, step // TILE))
    return max(TILE, step - step % TILE), threads


def evolve(p, times, sink):
    """Stream B(t) over times, a grid that _grid validated for p.

    B is computed in consecutive time blocks, and sink(start, stop, B) is
    called on each, with B the (stop - start, N, N) occupancies at
    times[start:stop]. _unitaries gives each sample the same bits whatever
    block it is in, so the values do not depend on the block length. The
    blocks are shared among up to one thread per CPU, so sink is called
    from several threads at once, each call with rows of its own.
    """
    # a thread per CPU, as every GEMM stays on its thread (see _unitaries);
    # whole tiles per block, so only the last block is padded
    step, threads = _block(len(p.eigenvalues))
    bounds = list(range(0, len(times), step)) + [len(times)]
    pairs, index = _triangle(p)

    def run(start, stop):
        sink(start, stop, _occupancies(p, pairs, index, times[start:stop]))

    _share(list(zip(bounds, bounds[1:])), threads, run)
