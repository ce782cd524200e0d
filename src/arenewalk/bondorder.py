"""Bond orders from vibrational local-mode force constants by Badger's power law.

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


def badger_bond_order(k_mu):
    """Bond order from a local stretching force constant, monotone in k.
    k_mu must be a finite real number >= 0: a bool or a string is not a
    number here, nor an int too large for a float."""
    try:
        k = float(k_mu) if graphs._is_real(k_mu) else np.nan
    except OverflowError:
        k = np.inf
    if not 0 <= k < np.inf:
        raise ValueError(f"force constant must be a finite real number >= 0, got {k_mu!r}")
    return BADGER_PREFACTOR * k ** BADGER_EXPONENT
