"""Bond orders from vibrational local-mode force constants.

The power-law constants below are calibrated so that a C-C single bond
(ethane) maps to bond order 1 and a double bond (ethene) to 2. Force
constants are assumed to be in the calibration's unit convention (not
enforced here; mixing unit systems silently rescales the output).
"""
from __future__ import annotations

import numpy as np

from . import graphs

BADGER_PREFACTOR = 0.29909
BADGER_EXPONENT = 0.86585


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
