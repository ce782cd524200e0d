"""Badger-rule conversion from force constants to bond orders."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk.bondorder import BADGER_EXPONENT, BADGER_PREFACTOR


# ---------------------------------------------------------------- badger

def test_badger_zero():
    assert aw.badger_bond_order(0.0) == 0.0


def test_badger_anchor_constants():
    # single- and double-bond anchors; quoted rounded constants land close
    npt.assert_allclose(aw.badger_bond_order(4.0313), 1.0, atol=1e-3)
    npt.assert_allclose(aw.badger_bond_order(8.9706), 2.0, atol=2e-3)


def test_badger_anchors_from_numeric_inversion():
    from scipy.optimize import brentq

    # the numerically inverted anchors sit near the usual rounded figures
    for target, rounded, rtol in ((1.0, 4.0313, 5e-4), (2.0, 8.9706, 1e-3)):
        k = brentq(lambda x: aw.badger_bond_order(x) - target, 1e-6, 100.0)
        npt.assert_allclose(aw.badger_bond_order(k), target, atol=1e-3)
        npt.assert_allclose(k, rounded, rtol=rtol)


def test_badger_constants_inline():
    k = 2.345
    npt.assert_allclose(
        aw.badger_bond_order(k), BADGER_PREFACTOR * k**BADGER_EXPONENT, rtol=1e-14
    )


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_badger_strictly_monotone(k1, k2):
    b1, b2 = aw.badger_bond_order(k1), aw.badger_bond_order(k2)
    if k1 < k2:
        assert b1 < b2
    elif k1 > k2:
        assert b1 > b2
    else:
        assert b1 == b2


def test_badger_rejects_negative():
    with pytest.raises(ValueError):
        aw.badger_bond_order(-0.1)


@pytest.mark.parametrize("value", [True, False, "4.0", None, float("nan"), float("inf"),
                                   np.float64("nan"),
                                   pytest.param(10 ** 400, id="int-beyond-float")])
def test_badger_rejects_non_finite_and_non_numbers(value):
    # True read as 1.0 and "4.0" as 4.0; NaN passed the >= 0 check; 10**400
    # raised OverflowError converting to float
    with pytest.raises(ValueError, match="finite real number"):
        aw.badger_bond_order(value)


def test_badger_accepts_numpy_and_integer_numbers():
    assert aw.badger_bond_order(np.float64(4.0)) == aw.badger_bond_order(4.0)
    assert aw.badger_bond_order(4) == aw.badger_bond_order(4.0)
