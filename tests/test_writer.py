"""The table writer's "%.12g" cells, byte for byte against CPython's.

cli._g12 prints most values in [1e-4, 1) as 12-digit ints and leaves the
rest to "%.12g" itself; these tests hold every path to the text that
"%.12g" % x writes.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk.cli import _g12, _rows

FALLBACK = 4  # the _g12 code of a cell left to "%.12g"


def assert_prints_as_g12(values):
    values = np.asarray(values, dtype=float)
    assert _rows("%.12g\n", values) == "".join(["%.12g\n" % x for x in values.tolist()])


def test_seeded_values_by_decade():
    rng = np.random.default_rng(20201)
    # log-uniform over [1e-5, 1) puts 200k values in each decade, one of
    # them below the fast path, plus 200k uniform in [0, 1)
    values = np.concatenate([10.0 ** rng.uniform(-5.0, 0.0, 1_000_000),
                             rng.uniform(0.0, 1.0, 200_000)])
    assert_prints_as_g12(values)
    codes, _ = _g12(values)
    inside = (values >= 1e-4) & (values < 1.0)
    # the fast path, not the fallback, wrote nearly every value it covers
    assert np.mean(codes[inside] == FALLBACK) < 0.01
    assert np.all(codes[~inside] == FALLBACK)
    assert np.all(np.bincount(codes[inside], minlength=5)[:4] > 150_000)


def test_half_ties_and_their_neighbours():
    rng = np.random.default_rng(7)
    ties = []
    for e in range(-6, 1):  # decade [10**(e - 1), 10**e)
        for m in rng.integers(10**11, 10**12, 2000).tolist():
            # the float nearest (m + 1/2) * 10**(e - 12), a tie of 12 digits
            ties.append(float(Fraction(2 * m + 1, 2) * Fraction(10) ** (e - 12)))
    ties = np.array(ties)
    assert_prints_as_g12(np.concatenate([ties, np.nextafter(ties, 0.0),
                                         np.nextafter(ties, 2.0)]))
    codes, _ = _g12(ties)
    # scaled, the float nearest a tie is within 1e-3 of it, so rint never rounds it
    assert np.all(codes == FALLBACK)


def test_decade_bounds_and_their_neighbours():
    values = []
    for bound in (1e-4, 1e-3, 0.01, 0.1, 1.0):
        below = above = bound
        values.append(bound)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
            values += [below, above]
    assert_prints_as_g12(values)


def test_special_values():
    assert_prints_as_g12([0.0, -0.0, np.nan, 1.0, -0.5, 1.5, 123.456, 1e12, 1e300,
                          np.inf, -np.inf, 9.99999999999995e-5, 5e-5, 1e-300, 5e-324,
                          0.9999999999995, 0.99999999999949, 0.5, 0.25, 0.1, 1e-4])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
def test_floats_in_unit_interval(values):
    assert_prints_as_g12(values)


def test_rows_assembles_mixed_specs():
    row = "%s,%d,50%%.12g,%.12g,%s;%.12g\n"
    cells = (["a", "b%d"], [1, 2], [0.25, 3.0], ["x", "y"], [np.nan, 0.001234])
    assert _rows(row, *cells) == "a,1,50%.12g,0.25,x;nan\nb%d,2,50%.12g,3,y;0.001234\n"


@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_export_graph_cells_all_fall_back(molecule):
    # bond weights lie above 1 and the rest are zeros, so the export's
    # tables take none of their cells from the fast path
    g = aw.load_molecule(molecule)
    for M in (g.adjacency, aw.laplacian(g)):
        assert np.all(_g12(M.ravel())[0] == FALLBACK)
        assert_prints_as_g12(M.ravel())
