"""The table writer's "%.12g" cells, byte for byte against CPython's.

cli._g12 prints most values in [1e-4, 1e4) from their 12 digits, looked
up 4 at a time, and leaves the rest (cli._fast_cells says which) to "%.12g"
itself; these tests hold every path to the text that "%.12g" % x writes,
encoded. cli._rows writes each table as fixed 0xFF-padded slots, one
table for all of its blocks, and drops the padding; the line-by-line tests
hold its tables, with any mix of fast and fallback cells, names, literal
text and blocks, to the bytes of the row format applied line by line.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk.cli import _fast_cells, _rows

FALLBACK = 4  # the code of a cell left to "%.12g"
WIDE = 5  # the code of a cell printed from its digits in [1, 1e4)


def codes_of(values):
    """Each value's decade d (0-3) where _g12 prints it from its digits in
    [10**-(d + 1), 10**-d), WIDE where it does in [1, 1e4), or FALLBACK
    where "%.12g" prints it."""
    fast, head, _ = _fast_cells(np.asarray(values, dtype=float))
    # heads 0-3 are the decades below 1; from 5 up they are integer parts
    return np.where(fast, np.minimum(head, WIDE), FALLBACK)


def table(row, *columns):
    return b"".join(_rows(row, *columns))


def assert_prints_as_g12(values):
    values = np.asarray(values, dtype=float)
    assert table(b"%.12g\n", values) == "".join(["%.12g\n" % x for x in values.tolist()]).encode()


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


def test_seeded_values_from_1e_minus_5_to_3e4():
    rng = np.random.default_rng(20202)
    values = 10.0 ** rng.uniform(-5.0, np.log10(3e4), 200_000)
    assert_prints_as_g12(values)
    codes = codes_of(values)
    wide = (values >= 1.0) & (values < 1e4)
    assert np.mean(codes[wide] != WIDE) < 0.01
    assert np.all(codes[~wide] != WIDE)
    assert np.all(codes[values >= 1e4] == FALLBACK)


def test_half_ties_and_their_neighbours():
    rng = np.random.default_rng(7)
    ties = []
    for e in range(-6, 5):  # decade [10**(e - 1), 10**e)
        for m in rng.integers(10**11, 10**12, 2000).tolist():
            # the float nearest (m + 1/2) * 10**(e - 12), a tie of 12 digits
            ties.append(float(Fraction(2 * m + 1, 2) * Fraction(10) ** (e - 12)))
    ties = np.array(ties)
    assert_prints_as_g12(np.concatenate([ties, np.nextafter(ties, 0.0),
                                         np.nextafter(ties, np.inf)]))
    codes = codes_of(ties)
    # scaled, the float nearest a tie is within 1e-3 of it, so rint never rounds it
    assert np.all(codes == FALLBACK)


def test_decade_bounds_and_their_neighbours():
    values = []
    for bound in (1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 1e4):
        below = above = bound
        values.append(bound)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
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


@given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=50))
def test_floats_from_1_to_1e4(values):
    assert_prints_as_g12(values)


def test_carries_and_integer_parts_from_1_to_1e4():
    carries = np.array([9.9999999999995, 99.999999999995, 999.99999999995, 9999.9999999995,
                        9.99999999999949, 9999.99999999949, 1.99999999999995])
    ints = np.arange(1.0, 1e4)
    assert_prints_as_g12(np.concatenate([
        carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf),
        # every integer part, alone, with a point and with fraction digits
        # that end in each of the three words or start with zeros
        ints, ints + 0.5, ints + 0.0625, ints + 1e-8, ints + 0.123456789,
        [1234.56789012, 1000.00000001, 9999.99999999, 1.00000000001, 10.0000000001]]))
    # the carries reach 10**12 digits and fall back; no integer part does
    assert np.all(codes_of(carries[:4]) == FALLBACK)
    assert np.all(codes_of(ints) == WIDE)


@pytest.mark.parametrize("t_max, dt", [(200.0, 0.01), (20.0, 0.001), (1e4, 0.7071)])
def test_time_grids(t_max, dt):
    times = np.arange(int(np.floor(t_max / dt + 1e-9)) + 1) * dt
    assert_prints_as_g12(times)
    assert np.mean(codes_of(times) == FALLBACK) < 0.01


def column_of_codes(codes, seed=0):
    """Floats whose codes_of are codes: six random digits in decade d for
    a code d < 4, and in [1, 1e4) for WIDE, so no product lies near a
    rounding tie, and a value in [1e4, 2e4) for the fallback code."""
    codes = np.asarray(codes, dtype=np.intp)
    rng = np.random.default_rng(seed)
    digits = rng.integers(110_000, 990_000, codes.size) / 10.0 ** (6 + np.minimum(codes, 3))
    wide = rng.integers(110_000, 990_000, codes.size) / 10.0 ** rng.integers(2, 6, codes.size)
    values = np.where(codes == FALLBACK, rng.uniform(1e4, 2e4, codes.size),
                      np.where(codes == WIDE, wide, digits))
    assert np.array_equal(codes_of(values), codes)
    return values.tolist()


def assert_rows_line_by_line(row, *columns):
    assert table(row, *columns) == b"".join(row % line for line in zip(*columns))


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
    ([WIDE] * 6 + [0] * 3 + [FALLBACK], [FALLBACK] * 2 + [WIDE] * 8),  # from 1 up, too
])
def test_rows_runs_match_line_by_line(codes_a, codes_b):
    count = len(codes_a)
    names = [f"s{i}%".encode() for i in range(count)]
    assert_rows_line_by_line(RUN_ROW, column_of_codes(codes_a, 1), names, list(range(count)),
                             column_of_codes(codes_b, 2))


runs = st.lists(st.tuples(st.integers(0, WIDE), st.integers(1, 40)), max_size=12)


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
    assert table(row, *cells) == "a,1,50%.12g,0.25,x;nan\nb%d,2,50%.12g,3,y;0.001234\n".encode()


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
        table(row, cells, [0.5, 0.25])


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_rows_rejects_the_padding_byte_in_any_block(bad):
    # every block's cells are checked before the first block is written
    names = np.array([[b"a"], [b"b"], [b"c"]], dtype=object)
    names[bad, 0] = b"b\xffc"
    with pytest.raises(ValueError, match="0xff"):
        next(_rows(b"%s,%.12g\n", names, [0.5, 0.25]))
    nodes = np.array([[1], [2], [3]])
    with pytest.raises(ValueError, match="0xff"):
        next(_rows(b"%d,%s\n", nodes, [b"x", b"\xff"]))


@pytest.mark.parametrize("row, columns, match", [
    # "%f" would lose its "%" and shift the columns
    (b"%s,%f,%.12g\n", ([b"a"], [1.5], [0.25]), "conversion other than"),
    (b"%s,%.12g\n", ([b"a"],), "2 specs, got 1 columns"),
    (b"%d\n", ([1, 2], [3, 4]), "1 specs, got 2 columns"),
    # a short 1-D column, of names or of values, would repeat on every line
    (b"%s,%.12g\n", ([b"a"], [1.5, 2.5, 0.25]), r"\[1, 3\] lines"),
    (b"%s,%.12g\n", ([b"a", b"b", b"c"], [1.5]), r"\[3, 1\] lines"),
    (b"%d,%.12g\n", (np.array([[1], [2], [3]]), np.array([[0.5, 0.25], [0.1, 0.2]])),
     r"\[2, 3\] blocks"),
], ids=["other-conversion", "fewer-columns", "more-columns", "one-name", "one-value",
        "block-counts"])
def test_rows_refuses_what_it_cannot_write(row, columns, match):
    with pytest.raises(ValueError, match=match):
        next(_rows(row, *columns))


FOLD_ROW = b",%.12g;%.12g %.12g%%%.12g\t%s%.12g,,%.12g\n"


@pytest.mark.parametrize("count", [0, 1, 6])
def test_rows_fold_a_literal_byte_into_g12_cells(count):
    # a one-byte literal before a "%.12g" cell shares its slot, a space and
    # a '%' too, beside fast cells and 19-byte fallback cells; two bytes
    # take a slot of their own
    cells = [-1.23456789012e-308, np.nan, -0.0, 0.000123456789012, 1234.56789012, 7.0]
    columns = [[cells[(i + k) % len(cells)] for i in range(count)] for k in range(6)]
    assert_rows_line_by_line(FOLD_ROW, *columns[:4], [b"%s"] * count, *columns[4:])


def block_lines(row, nodes, names, times, values):
    """The row format applied line by line to each block: its node and
    name on every line, and its own values."""
    return [b"".join(row % (node, name, t, v) for t, v in zip(times, column))
            for node, name, column in zip(nodes, names, values)]


@pytest.mark.parametrize("nodes", [[9, 10], [10, 9], [7, 1000, 99999, 3], [42]])
def test_rows_blocks_share_one_table(nodes):
    # one table for every block, whose node and name cells differ in width
    # from block to block, with t written once and each block's own values
    rng = np.random.default_rng(len(nodes))
    times = np.arange(8) * 0.7071 * 1000
    values = np.array([column_of_codes(rng.integers(0, WIDE + 1, 8), seed)
                       for seed in range(len(nodes))])
    names = [b"n" * (5 * k % 7) for k in range(len(nodes))]
    row = b"x%%,%d,%s,%.12g,%.12g\n"
    blocks = list(_rows(row, np.array(nodes)[:, None], np.array(names, dtype=object)[:, None],
                        times, values))
    assert blocks == block_lines(row, nodes, names, times.tolist(), values.tolist())


def test_rows_blocks_with_a_cell_per_line():
    cells = np.array([[b"a", b"bbbbb"], [b"cc%d", b""]], dtype=object)
    ints = np.array([[1, -20], [300000, 4]])
    assert list(_rows(b"%s|%d|%.12g\n", cells, ints, [0.5, 2.5])) == [
        b"a|1|0.5\nbbbbb|-20|2.5\n", b"cc%d|300000|0.5\n|4|2.5\n"]


@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_export_graph_weights_print_from_their_digits(molecule):
    # bond weights and weighted degrees lie in [1, 1e4), so the export's
    # tables take them from the fast path; zeros and the Laplacian's
    # negative entries fall back
    g = aw.load_molecule(molecule)
    for M in (g.adjacency, aw.hamiltonian(g)):
        assert np.array_equal(codes_of(M.ravel()), np.where(M.ravel() > 0, WIDE, FALLBACK))
        assert_prints_as_g12(M.ravel())
