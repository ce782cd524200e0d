"""Continuous-time quantum walk on a weighted molecular graph.

The generator is the weighted graph Laplacian. Evolution uses a one-time
symmetric eigendecomposition, so any time t is reached exactly (no time
stepping error) and a full time grid costs one dense reconstruction per
sample. A grid is evolved in blocks of BLOCK_BYTES, so memory stays bounded
by one block plus whatever the caller keeps of it. hbar = 1 throughout.
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
_EVOLUTION = "jl,tl,kl->tjk"


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
    not finite and > 0."""
    if not 0 < gamma_scale < np.inf:
        raise ValueError(f"gamma_scale must be finite and > 0, got {gamma_scale}")
    return Hamiltonian(matrix=gamma_scale * graphs.laplacian(g), gamma_scale=float(gamma_scale))


def propagator(h):
    """Eigendecompose H once; U(t) is then exact for every t."""
    H = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got {H.shape}")
    if not np.allclose(H, H.T, atol=1e-12):
        raise ValueError("Hamiltonian must be symmetric")
    lam, Q = np.linalg.eigh(H)
    return Propagator(eigenvalues=lam, eigenvectors=Q)


def unitary(p, t):
    """U(t) = Q diag(exp(-i lam t)) Q^T, unitary for every real t."""
    phase = np.exp(-1j * p.eigenvalues * float(t))
    return (p.eigenvectors * phase) @ p.eigenvectors.T


def evolve_ensemble(p, t):
    """Walker-occupancy matrix B(t): row j is the distribution of the walker
    started at node j. Bistochastic and symmetric for the Laplacian generator;
    B(0) is the identity."""
    return np.abs(unitary(p, t)) ** 2


def _sample_count(t_max, dt):
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
    arrays over the whole grid. Every block uses the contraction order that
    one einsum over the whole grid would pick, and no block holds a single
    sample (numpy evaluates that as a matrix-vector product, which rounds
    differently), so the values do not depend on the block length.
    """
    count = _sample_count(t_max, dt)
    times = np.arange(count) * dt
    lam, Q = p.eigenvalues, p.eigenvectors
    n = len(lam)
    whole_grid = np.broadcast_to(np.zeros(n, dtype=complex), (count, n))
    path, _ = np.einsum_path(_EVOLUTION, Q, whole_grid, Q, optimize=True)
    step = max(2, BLOCK_BYTES // (16 * n * n))
    bounds = list(range(0, count, step)) + [count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    outputs = None
    for start, stop in zip(bounds, bounds[1:]):
        phases = np.exp(-1j * np.outer(times[start:stop], lam))
        U = np.einsum(_EVOLUTION, Q, phases, Q, optimize=path)
        parts = reduce(np.abs(U) ** 2)
        if outputs is None:
            outputs = tuple(np.empty((count,) + a.shape[1:], dtype=a.dtype) for a in parts)
        for out, part in zip(outputs, parts):
            out[start:stop] = part
    return times, outputs


def time_series(p, t_max=200.0, dt=0.01):
    """B(t) sampled at t = 0, dt, 2*dt, ... up to t_max inclusive."""
    times, (matrices,) = evolve(p, t_max, dt, lambda B: (B,))
    return EvolutionSeries(times, matrices)
