"""Badger-rule conversions and Wilson-matrix force-constant extraction."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk.bondorder import BADGER_EXPONENT, BADGER_PREFACTOR
from arenewalk.errors import ComputationError


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


# ---------------------------------------------------------------- badger

def test_badger_zero():
    assert aw.badger_bond_order(0.0) == 0.0


def test_badger_anchor_constants():
    # single- and double-bond anchors; quoted rounded constants land close
    npt.assert_allclose(aw.badger_bond_order(4.0313), 1.0, atol=1e-3)
    npt.assert_allclose(aw.badger_bond_order(8.9706), 2.0, atol=2e-3)


def test_badger_anchors_from_numeric_inversion():
    from scipy.optimize import brentq

    for target in (1.0, 2.0):
        k = brentq(lambda x: aw.badger_bond_order(x) - target, 1e-6, 100.0)
        npt.assert_allclose(aw.badger_bond_order(k), target, atol=1e-3)
        npt.assert_allclose(aw.badger_force_constant(target), k, rtol=1e-10)
    # the numerically inverted anchors sit near the usual rounded figures
    npt.assert_allclose(aw.badger_force_constant(1.0), 4.0313, rtol=5e-4)
    npt.assert_allclose(aw.badger_force_constant(2.0), 8.9706, rtol=1e-3)


def test_badger_round_trip():
    for bo in np.linspace(0.1, 3.0, 30):
        npt.assert_allclose(
            aw.badger_bond_order(aw.badger_force_constant(bo)), bo, rtol=1e-9
        )


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
    with pytest.raises(ValueError):
        aw.badger_force_constant(-0.1)


@pytest.mark.parametrize("value", [True, False, "4.0", None, float("nan"), float("inf"),
                                   np.float64("nan"),
                                   pytest.param(10 ** 400, id="int-beyond-float")])
def test_badger_rejects_non_finite_and_non_numbers(value):
    # True read as 1.0 and "4.0" as 4.0; NaN passed the >= 0 check; 10**400
    # raised OverflowError converting to float
    with pytest.raises(ValueError, match="finite real number"):
        aw.badger_bond_order(value)
    with pytest.raises(ValueError, match="finite real number"):
        aw.badger_force_constant(value)


def test_badger_force_constant_rejects_overflow():
    # a finite bond order whose force constant is beyond the float range
    # raised OverflowError from the float power
    with pytest.raises(ValueError, match="overflows the force constant"):
        aw.badger_force_constant(1e300)


def test_badger_accepts_numpy_and_integer_numbers():
    assert aw.badger_bond_order(np.float64(4.0)) == aw.badger_bond_order(4.0)
    assert aw.badger_bond_order(4) == aw.badger_bond_order(4.0)


# ---------------------------------------------------------------- wilson residual

def test_wilson_residual_exact_solution():
    # columns of D eigenvectors of GF, Lambda the eigenvalues: residual 0
    rng = np.random.default_rng(7)
    F = random_spd(5, rng)
    lam, D = np.linalg.eigh(F)  # G = I, so GF D = D diag(lam)
    G = np.eye(5)
    assert aw.wilson_residual(G, F, D, lam) < 1e-10


def test_wilson_residual_detects_perturbation():
    rng = np.random.default_rng(8)
    F = random_spd(4, rng)
    lam, D = np.linalg.eigh(F)
    lam_bad = lam.copy()
    lam_bad[2] += 1.0
    # GFD - D diag(lam_bad) differs from zero only in column 2, by 1.0 * d_2
    expected = np.linalg.norm(D[:, 2])
    npt.assert_allclose(
        aw.wilson_residual(np.eye(4), F, D, lam_bad), expected, rtol=1e-10
    )


def test_wilson_residual_shape_mismatch():
    with pytest.raises(ValueError):
        aw.wilson_residual(np.eye(3), np.eye(3), np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        aw.wilson_residual(np.eye(3), np.eye(3), np.eye(3), np.ones(2))


# ---------------------------------------------------------------- local force constants

def test_local_force_constants_diagonal_case():
    F = np.diag([2.0, 5.0, 9.0])
    D = np.eye(3)
    npt.assert_allclose(aw.local_force_constants(F, D), [2.0, 5.0, 9.0], rtol=1e-12)


def test_local_force_constants_match_direct_formula():
    rng = np.random.default_rng(21)
    F = random_spd(6, rng)
    D = rng.standard_normal((6, 6))
    got = aw.local_force_constants(F, D)
    K = D.conj().T @ F @ D
    Kinv = np.linalg.inv(K)
    want = [1.0 / (D[:, m].conj() @ Kinv @ D[:, m]).real for m in range(6)]
    npt.assert_allclose(got, want, rtol=1e-9)


def test_local_force_constants_global_scale_invariance():
    # rescaling the whole mode matrix cancels out of the quadratic form
    rng = np.random.default_rng(22)
    F = random_spd(4, rng)
    D = rng.standard_normal((4, 4))
    a = aw.local_force_constants(F, D)
    b = aw.local_force_constants(F, 3.7 * D)
    npt.assert_allclose(a, b, rtol=1e-9)


def test_local_force_constants_singular_modes():
    F = np.eye(2)
    D = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, K singular
    with pytest.raises(ComputationError):
        aw.local_force_constants(F, D)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_local_force_constants_positive_for_spd(n, seed):
    rng = np.random.default_rng(seed)
    F = random_spd(n, rng)
    D = rng.standard_normal((n, n)) + np.eye(n)
    try:
        k = aw.local_force_constants(F, D)
    except ComputationError:
        return  # ill-conditioned draw, nothing to check
    assert np.all(k > 0)


# ---------------------------------------------------------------- matrix input checks

def with_entry(m, i, j, value):
    """m as float with m[i, j] set to value."""
    m = np.array(m, dtype=float)
    m[i, j] = value
    return m


@pytest.mark.parametrize("bad", ["G", "F", "D"])
@pytest.mark.parametrize("shape", [(), (3,), (3, 3, 1)], ids=["0-d", "1-d", "3-d"])
def test_wilson_residual_rejects_non_2d(bad, shape):
    # a 0-d F raised IndexError reading F.shape[0]
    args = {"G": np.eye(3), "F": np.eye(3), "D": np.eye(3)}
    args[bad] = np.ones(shape)
    with pytest.raises(ValueError, match=f"{bad} must be a 2-D matrix"):
        aw.wilson_residual(args["G"], args["F"], args["D"], np.ones(3))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("bad", ["G", "F", "D"])
def test_wilson_residual_rejects_non_finite_matrix(bad, value):
    # a NaN came back as a NaN residual with no error
    args = {"G": np.eye(3), "F": np.eye(3), "D": np.eye(3)}
    args[bad] = with_entry(args[bad], 1, 2, value)
    with pytest.raises(ValueError, match=f"{bad} must be finite"):
        aw.wilson_residual(args["G"], args["F"], args["D"], np.ones(3))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_wilson_residual_rejects_non_finite_lambda(value):
    with pytest.raises(ValueError, match="Lambda must be finite"):
        aw.wilson_residual(np.eye(3), np.eye(3), np.eye(3), [1.0, value, 1.0])


def test_wilson_residual_rejects_non_finite_complex_modes():
    D = np.eye(3, dtype=complex)
    D[0, 1] = complex(0.0, float("inf"))
    with pytest.raises(ValueError, match="D must be finite"):
        aw.wilson_residual(np.eye(3), np.eye(3), D, np.ones(3))


@pytest.mark.parametrize("bad", ["F", "D"])
@pytest.mark.parametrize("shape", [(), (3,), (3, 3, 1)], ids=["0-d", "1-d", "3-d"])
def test_local_force_constants_rejects_non_2d(bad, shape):
    # a 0-d F raised IndexError reading F.shape[0]
    args = {"F": np.eye(3), "D": np.eye(3)}
    args[bad] = np.ones(shape)
    with pytest.raises(ValueError, match=f"{bad} must be a 2-D matrix"):
        aw.local_force_constants(args["F"], args["D"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("bad", ["F", "D"])
def test_local_force_constants_rejects_non_finite(bad, value):
    # raised LinAlgError "SVD did not converge" from the condition estimate
    args = {"F": np.diag([2.0, 5.0, 9.0]), "D": np.eye(3)}
    args[bad] = with_entry(args[bad], 2, 0, value)
    with pytest.raises(ValueError, match=f"{bad} must be finite"):
        aw.local_force_constants(args["F"], args["D"])
