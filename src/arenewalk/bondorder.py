"""Bond orders from vibrational local-mode force constants.

The power-law constants below are calibrated so that a C-C single bond
(ethane) maps to bond order 1 and a double bond (ethene) to 2. Force
constants are assumed to be in the calibration's unit convention (not
enforced here; mixing unit systems silently rescales the output).

The matrix helpers operate on caller-supplied F (force constants in
internal coordinates), G (kinetic coupling), D (mode vectors as columns)
and Lambda (eigenvalues). Assembling those matrices from molecular
geometry or spectra is out of scope.
"""
from __future__ import annotations

import numpy as np

from .errors import ComputationError

BADGER_PREFACTOR = 0.29909
BADGER_EXPONENT = 0.86585
# Largest condition estimate of K that local_force_constants inverts.
COND_LIMIT = 1e12


def badger_bond_order(k_mu):
    """Bond order from a local stretching force constant, monotone in k."""
    k = float(k_mu)
    if k < 0:
        raise ValueError(f"force constant must be >= 0, got {k}")
    return BADGER_PREFACTOR * k ** BADGER_EXPONENT


def badger_force_constant(bond_order):
    """Inverse of badger_bond_order."""
    bo = float(bond_order)
    if bo < 0:
        raise ValueError(f"bond order must be >= 0, got {bo}")
    return (bo / BADGER_PREFACTOR) ** (1.0 / BADGER_EXPONENT)


def wilson_residual(G, F, D, lam):
    """Frobenius norm of G@F@D - D@diag(lam); zero for an exact mode decomposition."""
    G = np.asarray(G, dtype=float)
    F = np.asarray(F, dtype=float)
    D = np.asarray(D, dtype=complex)
    lam = np.asarray(lam, dtype=float).ravel()
    m = F.shape[0]
    for name, mat in (("G", G), ("F", F), ("D", D)):
        if mat.shape != (m, m):
            raise ValueError(f"{name} must be {m}x{m}, got {mat.shape}")
    if lam.shape != (m,):
        raise ValueError(f"Lambda must have length {m}, got {lam.shape}")
    return float(np.linalg.norm(G @ F @ D - D @ np.diag(lam), "fro"))


def local_force_constants(F, D):
    """Local stretching force constant per mode column of D.

    With K = D^H F D, mode mu gets k_mu = 1 / (d_mu^H K^-1 d_mu). K must be
    well conditioned; an estimate above COND_LIMIT raises ComputationError
    rather than silently pseudo-inverting.
    """
    F = np.asarray(F, dtype=float)
    D = np.asarray(D, dtype=complex)
    m = F.shape[0]
    if F.shape != (m, m):
        raise ValueError(f"F must be square, got {F.shape}")
    if D.shape != (m, m):
        raise ValueError(f"D must match F, got {D.shape} vs {F.shape}")
    K = D.conj().T @ F @ D
    cond = np.linalg.cond(K)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ComputationError(
            f"mode-coupling matrix K is ill-conditioned (estimate {cond:.3e} > {COND_LIMIT:.1e})"
        )
    quad = np.einsum("im,im->m", D.conj(), np.linalg.solve(K, D))
    return (1.0 / quad.real).copy()

