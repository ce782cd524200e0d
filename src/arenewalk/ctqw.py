"""Continuous-time quantum walk on a weighted molecular graph.

The generator is the weighted graph Laplacian. Evolution uses a one-time
symmetric eigendecomposition, so any time t is reached exactly (no time
stepping error). U(t) = Q diag(exp(-i lam t)) Q^T on a set of times is one
product of the eigenvector pairs Q[j, l] Q[k, l] with the phases, which
unitary and evolve share, so a sample has the same bits from either. A
grid is evolved in blocks of BLOCK_BYTES, so memory stays bounded by one
block plus whatever the caller keeps of it.
hbar = 1 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs

# Complex B(t) bytes evolved per block. On a 2-core x86 host 8 MB was the
# fastest for N = 14 and 22, and 1-32 MB all ran within about 30% of it.
BLOCK_BYTES = 8 << 20
# Largest sampling grid accepted; checked before anything is allocated.
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """gamma_scale * (D - A) for a molecule graph; real symmetric."""

    matrix: np.ndarray
    gamma_scale: float


@dataclass(frozen=True, eq=False)
class Propagator:
    """Spectral factors of a Hamiltonian: H = Q diag(eigenvalues) Q^T."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class EvolutionSeries:
    """B(t) on a time grid: times (samples,) and matrices (samples, N, N)."""

    times: np.ndarray
    matrices: np.ndarray


def hamiltonian(g, gamma_scale=1.0):
    """Walk generator for a molecule graph; rejects a gamma_scale that is
    not a finite real number > 0."""
    if not (graphs._is_real(gamma_scale) and 0 < gamma_scale < np.inf):
        raise ValueError(f"gamma_scale must be a finite real number > 0, got {gamma_scale!r}")
    return Hamiltonian(matrix=gamma_scale * graphs.laplacian(g), gamma_scale=float(gamma_scale))


def propagator(h):
    """Eigendecompose H once; U(t) is then exact for every t."""
    H = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {H.shape}")
    # a raw matrix has not passed MoleculeGraph's node ceiling
    if len(H) > graphs.MAX_NODES:
        raise ValueError(f"Hamiltonian of {len(H)} nodes is above the limit of {graphs.MAX_NODES}")
    if not np.allclose(H, H.T, rtol=0, atol=1e-12):
        raise ValueError("Hamiltonian must be symmetric")
    lam, Q = np.linalg.eigh(H)
    return Propagator(eigenvalues=lam, eigenvectors=Q)


def _unitaries(p, times):
    """U(t) = Q diag(exp(-i lam t)) Q^T at each of times, shaped
    (samples, N, N): pairs[l, j*N + k] = Q[j, l] Q[k, l] times the phases."""
    # numpy evaluates a one-column product as a matrix-vector product, which
    # rounds differently, so a lone sample is evaluated as a pair
    if len(times) == 1:
        return _unitaries(p, [times[0], times[0]])[:1]
    Q = p.eigenvectors
    n = len(Q)
    phases = np.exp(-1j * np.outer(times, p.eigenvalues))
    pairs = (Q.T[:, :, None] * Q.T[:, None, :]).reshape(n, n * n)
    # t is the fastest axis in memory: a C-ordered phases @ pairs gives the
    # same values, but site_observables then reduces over rows of only N
    # elements and observe ran 1.6x slower
    return (pairs.T @ phases.T).reshape(n, n, len(phases)).transpose(2, 0, 1)


def unitary(p, t):
    """U(t), unitary for every real t, from the product evolve takes over
    its blocks, here over a single sample."""
    return _unitaries(p, [float(t)])[0]


def evolve_ensemble(p, t):
    """Walker-occupancy matrix B(t): row j is the distribution of the walker
    started at node j. Bistochastic and symmetric for the Laplacian generator;
    B(0) is the identity."""
    return np.abs(unitary(p, t)) ** 2


def _sample_count(t_max, dt):
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
    return int(count)


def evolve(p, t_max, dt, reduce):
    """Stream B(t) on the grid t = 0, dt, 2*dt, ... up to t_max inclusive.

    B is computed in consecutive time blocks of about BLOCK_BYTES, and
    reduce maps each (samples, N, N) block to a tuple of arrays whose first
    axis runs over those samples. Returns the grid times and the reduced
    arrays over the whole grid. _unitaries gives each sample the same bits
    whatever block it is in, so the values do not depend on the block
    length.
    """
    count = _sample_count(t_max, dt)
    times = np.arange(count) * dt
    n = len(p.eigenvalues)
    step = max(1, BLOCK_BYTES // (16 * n * n))
    bounds = list(range(0, count, step)) + [count]
    outputs = None
    for start, stop in zip(bounds, bounds[1:]):
        parts = reduce(np.abs(_unitaries(p, times[start:stop])) ** 2)
        if outputs is None:
            outputs = tuple(np.empty((count,) + a.shape[1:], dtype=a.dtype) for a in parts)
        for out, part in zip(outputs, parts):
            out[start:stop] = part
    return times, outputs


def time_series(p, t_max=200.0, dt=0.01):
    """B(t) sampled at t = 0, dt, 2*dt, ... up to t_max inclusive."""
    times, (matrices,) = evolve(p, t_max, dt, lambda B: (B,))
    return EvolutionSeries(times, matrices)
