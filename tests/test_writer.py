"""The table writer's "%.12g" cells, byte for byte against CPython's.

cli._g12 prints most values in [1e-4, 1) from their 12 digits, looked up
4 at a time, and leaves the rest (cli._fast_cells says which) to "%.12g"
itself; these tests hold every path to the text that "%.12g" % x writes,
encoded. cli._rows writes each table as fixed 0xFF-padded slots and drops
the padding; the line-by-line tests hold its tables, with any mix of fast
and fallback cells, names and literal text, to the bytes of the row
format applied line by line.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk.cli import _fast_cells, _rows

FALLBACK = 4  # the code of a cell left to "%.12g"


def codes_of(values):
    """Each value's decade (0-3) where _g12 prints it from its digits, or
    FALLBACK where "%.12g" prints it."""
    fast, d, _ = _fast_cells(np.asarray(values, dtype=float))
    return np.where(fast, d, FALLBACK)


def assert_prints_as_g12(values):
    values = np.asarray(values, dtype=float)
    assert _rows(b"%.12g\n", values) == "".join(["%.12g\n" % x for x in values.tolist()]).encode()


def test_seeded_values_by_decade():
    rng = np.random.default_rng(20201)
    # log-uniform over [1e-5, 1) puts 200k values in each decade, one of
    # them below the fast path, plus 200k uniform in [0, 1)
    values = np.concatenate([10.0 ** rng.uniform(-5.0, 0.0, 1_000_000),
                             rng.uniform(0.0, 1.0, 200_000)])
    assert_prints_as_g12(values)
    codes = codes_of(values)
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
    codes = codes_of(ties)
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
                          0.9999999999995, 0.99999999999949, 0.5, 0.25, 0.1, 1e-4,
                          # trailing zeros end the digits in each of the three words
                          0.1234, 0.012345, 0.0012345678, 0.000123456789, 0.12345678901])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
def test_floats_in_unit_interval(values):
    assert_prints_as_g12(values)


def column_of_codes(codes, seed=0):
    """Floats whose codes_of are codes: six random digits in decade d for
    a code d < 4, so no product lies near a rounding tie, and a value in
    [1, 2) for the fallback code."""
    codes = np.asarray(codes, dtype=np.intp)
    rng = np.random.default_rng(seed)
    digits = rng.integers(110_000, 990_000, codes.size) / 10.0 ** (6 + np.minimum(codes, 3))
    values = np.where(codes == FALLBACK, rng.uniform(1.0, 2.0, codes.size), digits)
    assert np.array_equal(codes_of(values), codes)
    return values.tolist()


def assert_rows_line_by_line(row, *columns):
    assert _rows(row, *columns) == b"".join(row % line for line in zip(*columns))


RUN_ROW = b"%.12g,%%,%s,%d,%.12g\n"


@pytest.mark.parametrize("codes_a, codes_b", [
    ([0] * 5 + [1] * 7 + [2] * 3, [3] * 15),  # runs split on the first column only
    ([2] * 15, [0] * 4 + [3] * 9 + [1] * 2),  # on the second column only
    ([0] * 6 + [1] * 4 + [2] * 5, [3] * 6 + [0] * 2 + [2] * 7),  # on both, together and apart
    ([1] * 8 + [FALLBACK] + [1] * 8, [1] * 17),  # a fallback cell inside a long run
    ([0] * 9 + [3], [2] * 10),  # a run starting on the last line
    ([0] * 10, [2] * 9 + [FALLBACK]),
    ([FALLBACK] * 4, [FALLBACK] * 4),
    ([3], [0]),  # one line
    ([], []),  # no lines
])
def test_rows_runs_match_line_by_line(codes_a, codes_b):
    count = len(codes_a)
    names = [f"s{i}%".encode() for i in range(count)]
    assert_rows_line_by_line(RUN_ROW, column_of_codes(codes_a, 1), names, list(range(count)),
                             column_of_codes(codes_b, 2))


runs = st.lists(st.tuples(st.integers(0, FALLBACK), st.integers(1, 40)), max_size=12)


@given(runs, runs)
def test_rows_random_runs_match_line_by_line(runs_a, runs_b):
    codes_a = [code for code, n in runs_a for _ in range(n)]
    codes_b = [code for code, n in runs_b for _ in range(n)]
    count = max(len(codes_a), len(codes_b))
    codes_a += [0] * (count - len(codes_a))
    codes_b += [FALLBACK] * (count - len(codes_b))
    assert_rows_line_by_line(RUN_ROW, column_of_codes(codes_a, 3), [b"x"] * count,
                             list(range(count)), column_of_codes(codes_b, 4))


def test_rows_assembles_mixed_specs():
    row = b"%s,%d,50%%.12g,%.12g,%s;%.12g\n"
    cells = ([b"a", b"b%d"], [1, 2], [0.25, 3.0], [b"x", b"y"], [np.nan, 0.001234])
    assert _rows(row, *cells) == "a,1,50%.12g,0.25,x;nan\nb%d,2,50%.12g,3,y;0.001234\n".encode()


NAMES = ["50%s", "a\0b", "naphthalène", "", "%%d,\n"]


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_rows_names_labels_and_fallback_cells_match_line_by_line(count):
    # names and labels with '%', NUL and multi-byte UTF-8 (whose bytes are
    # never 0xff), and a fallback cell of every kind, beside fast cells
    names = [NAMES[i % len(NAMES)].encode() for i in range(count)]
    labels = [NAMES[-1 - i % len(NAMES)].encode() for i in range(count)]
    fallback = [-1.23456789012e-308, -np.inf, np.nan, -0.0, 1e300]
    values = [fallback[i % len(fallback)] for i in range(count)]
    assert_rows_line_by_line(b"%s%%,%s,%.12g,%.12g\n", names, labels, values,
                             column_of_codes([i % 4 for i in range(count)]))
    assert_rows_line_by_line(b"%.12g\0\xc3\xa8%s\n", values, names)


def test_rows_int_cells_match_line_by_line():
    ints = [0, -1, 42, -(10**18), 10**18, -9223372036854775808, 9223372036854775807,
            1234567890123456789, -1234567890123456789]
    assert_rows_line_by_line(b"%d,%d\n", ints, ints[::-1])
    assert_rows_line_by_line(b"%d,%d\n", np.array(ints), np.array(ints[::-1]))


@pytest.mark.parametrize("row, cells", [
    (b"%s,%.12g\n", [b"a", b"b\xffc"]),  # a cell that holds the padding byte
    (b"\xff%s,%.12g\n", [b"a", b"b"]),  # literal text that holds it
])
def test_rows_rejects_the_padding_byte(row, cells):
    # the writer pads every slot with 0xff and drops every 0xff, so a table
    # that holds one itself would lose bytes
    with pytest.raises(ValueError, match="0xff"):
        _rows(row, cells, [0.5, 0.25])


@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_export_graph_cells_all_fall_back(molecule):
    # bond weights lie above 1 and the rest are zeros, so the export's
    # tables take none of their cells from the fast path
    g = aw.load_molecule(molecule)
    for M in (g.adjacency, aw.hamiltonian(g)):
        assert np.all(codes_of(M.ravel()) == FALLBACK)
        assert_prints_as_g12(M.ravel())
