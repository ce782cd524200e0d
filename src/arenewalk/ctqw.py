"""Continuous-time quantum walk on a weighted molecular graph.

The generator is the weighted graph Laplacian L, passed as the plain
read-only (N, N) float64 matrix; a rate gamma only rescales time, since
exp(-i gamma L t) = exp(-i L gamma t). Evolution uses a one-time
symmetric eigendecomposition, so any time t is reached exactly (no time
stepping error). U(t) = Q diag(exp(-i lam t)) Q^T is symmetric, so on a set
of times it is one product of the eigenvector pairs Q[j, l] Q[k, l] with
j <= k and the phases: the upper triangle, which one (N, N) index array
gathers back to the full matrices. The product is one real GEMM over the
float view of the phases, run in whole tiles of TILE samples, so a sample
has the same bits in any block, and from unitary as from evolve. evolve
is the one pass over a grid: it evolves blocks of BLOCK_BYTES and keeps
only what its reduce returns of each, so nothing here holds every B(t) of
a grid unless the reduce keeps it. Beyond what the reduce keeps, a pass
holds at most BLOCK_BYTES + 16 N^2 (N + 1) / 2 bytes: a block's
temporaries stay within BLOCK_BYTES, and the N^2 (N + 1) / 2 pair
entries, computed once per pass, take 8 bytes each, plus 8 for the
gathered eigenvector rows they are multiplied by while they are built.
hbar = 1 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs

# Bytes of a complex (samples, N, N) block that set its sample count; the
# upper triangle evolved per block is about half of that. observe at 1, 2,
# 4 and 8 MB on a 2-core x86 host took 21.6, 19.6, 20.5 and 29.4 ms at
# N = 14 (20001 samples), 43.7, 47.3, 48.5 and 49.0 ms at N = 22 (20001)
# and 31.0, 23.3, 22.8 and 25.1 ms at N = 50 (2001): 2 MB is within 8% of
# the fastest size at each N.
BLOCK_BYTES = 2 << 20
# Samples per tile of the product: each block is padded with zero phases
# to whole tiles. OpenBLAS's real GEMM rounds a ragged column tile its own
# way, so unpadded a sample's bits depended on its block: on a 2-core x86
# host (OpenBLAS 0.3.31, at 1 and 2 threads), blocks of 1-40 samples and
# lone samples differed from the complex product on acenes of 18, 22 and
# 50 nodes and random graphs of 30, 50, 64 and 90 nodes. 4-sample tiles
# gave its bits there and on the catalog; 16 leaves margin.
TILE = 16
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
    order, shaped (N(N+1)/2, N), and the (N, N) index array whose [j, k]
    and [k, j] both hold r."""
    Q = p.eigenvectors
    n = len(Q)
    j, k = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[j, k] = index[k, j] = np.arange(len(j))
    pairs = Q[j]
    pairs *= Q[k]
    return pairs, index


def _unitaries(p, pairs, times):
    """The upper triangle of U(t) = Q diag(exp(-i lam t)) Q^T at each of
    times, shaped (N(N+1)/2, samples): row r is U[j, k] for the r-th pair
    of _triangle, pairs times the phases."""
    m = len(times)
    # zero phases pad the block to whole tiles, so each sample is evaluated
    # in a full tile (see TILE), a lone one too
    phases = np.empty((len(p.eigenvalues), -(-m // TILE) * TILE), dtype=complex)
    np.exp(np.outer(p.eigenvalues, times) * -1j, out=phases[:, :m])
    phases[:, m:] = 0
    # one real GEMM over the interleaved real and imaginary parts: half the
    # flops of the complex product, and pairs is not cast to complex. t is
    # the fastest axis in memory: a C-ordered phases @ pairs.T gives the
    # same values, but site_observables then reduces over rows of only N
    # elements and observe ran 1.6x slower
    return (pairs @ phases.view(float)).view(complex)[:, :m]


def _square(tri, index):
    """The (samples, N, N) symmetric matrices whose upper triangles are the
    rows of tri, gathered by the index of _triangle; t stays the fastest axis."""
    return tri[index].transpose(2, 0, 1)


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


def evolve(p, t_max, dt, reduce):
    """Stream B(t) on the grid t = 0, dt, 2*dt, ... up to t_max inclusive.

    B is computed in consecutive time blocks of about BLOCK_BYTES, and
    reduce maps each (samples, N, N) block to a tuple of arrays whose first
    axis runs over those samples. Returns the grid times and the reduced
    arrays over the whole grid. _unitaries gives each sample the same bits
    whatever block it is in, so the values do not depend on the block
    length.
    """
    times = _grid(t_max, dt, p)
    count = len(times)
    n = len(p.eigenvalues)
    step = max(1, BLOCK_BYTES // (16 * n * n))
    # whole tiles, so only the last block is padded
    if step >= TILE:
        step -= step % TILE
    bounds = list(range(0, count, step)) + [count]
    pairs, index = _triangle(p)
    outputs = None
    for start, stop in zip(bounds, bounds[1:]):
        parts = reduce(_square(np.abs(_unitaries(p, pairs, times[start:stop])) ** 2, index))
        for part in parts:
            if np.shape(part)[:1] != (stop - start,):
                raise ValueError(f"reduce must return one row per sample: expected "
                                 f"{stop - start} rows, got shape {np.shape(part)}")
        if outputs is None:
            outputs = tuple(np.empty((count,) + a.shape[1:], dtype=a.dtype) for a in parts)
        for out, part in zip(outputs, parts):
            out[start:stop] = part
        # dropped before the next block, whose temporaries then fill
        # BLOCK_BYTES alone
        del parts, part
    return times, outputs

