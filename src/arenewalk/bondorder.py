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

from . import graphs
from .errors import ComputationError

BADGER_PREFACTOR = 0.29909
BADGER_EXPONENT = 0.86585
# Largest condition estimate of K that local_force_constants inverts.
COND_LIMIT = 1e12


def _finite_non_negative(x, what):
    """x as a float, or ValueError unless it is a finite real number >= 0
    (a bool or a string is not a number here, nor an int too large for a
    float)."""
    try:
        if graphs._is_real(x) and 0 <= float(x) < np.inf:
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"{what} must be a finite real number >= 0, got {x!r}")


def _finite_matrix(x, name, dtype):
    """x as a 2-D array of dtype, or ValueError unless it is one with
    finite entries."""
    a = np.asarray(x, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def badger_bond_order(k_mu):
    """Bond order from a local stretching force constant, monotone in k."""
    k = _finite_non_negative(k_mu, "force constant")
    return BADGER_PREFACTOR * k ** BADGER_EXPONENT


def badger_force_constant(bond_order):
    """Inverse of badger_bond_order."""
    bo = _finite_non_negative(bond_order, "bond order")
    try:
        return (bo / BADGER_PREFACTOR) ** (1.0 / BADGER_EXPONENT)
    except OverflowError:
        raise ValueError(f"bond order {bo!r} overflows the force constant") from None


def wilson_residual(G, F, D, lam):
    """Frobenius norm of G@F@D - D@diag(lam); zero for an exact mode
    decomposition. G, F and D must be finite m x m matrices and lam m
    finite numbers, or ValueError."""
    G = _finite_matrix(G, "G", float)
    F = _finite_matrix(F, "F", float)
    D = _finite_matrix(D, "D", complex)
    lam = np.asarray(lam, dtype=float).ravel()
    if not np.isfinite(lam).all():
        raise ValueError("Lambda must be finite")
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
    rather than silently pseudo-inverting. F and D must be finite m x m
    matrices, or ValueError.
    """
    F = _finite_matrix(F, "F", float)
    D = _finite_matrix(D, "D", complex)
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

