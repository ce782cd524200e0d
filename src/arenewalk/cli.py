"""Command-line interface.

Subcommands: list, simulate, rank, stability, bond-order, export-graph.
Outputs are CSV files plus a manifest.json recording the exact
configuration and library versions; rerunning a command with the same
configuration (or via --from-manifest) reproduces the CSVs byte for
byte. Exit codes: 0 success, 2 configuration error, 3 computation error;
the command group `main` maps every subcommand's errors to them in one
place. A writing subcommand is declared once, from the function that
builds its tables, by `_writer`, which owns --out, --from-manifest and
the manifest.

Every file is written as UTF-8 bytes. Tables are built as bytes from
end to end: row formats and headers are bytes literals, each table's
names, labels and class tags are encoded once before its rows are
formatted, and `_atomic_write` writes the bytes chunks it gets to a
binary file, so no text layer encodes a copy of each table.

`_rows` is the only table writer but one: `simulate`'s t column is
formatted once per run by "%.12g" itself and turned into slots once, since
nearly every default-grid time is outside the fast path below. `_rows`
lays each table out as one row of 4-byte words per line, with a fixed
slot per cell and per run of literal text, padded with 0xFF, a byte
UTF-8 never writes; one translate drops the padding. Every "%.12g" cell
has the bytes of CPython's correctly rounded "%.12g": most values in
[1e-4, 1) print from their 12 digits, looked up 4 at a time as words of
ASCII, and every other value, 0.2% of a default-grid series, is printed
by "%.12g" itself into its slot.
"""
from __future__ import annotations

import itertools
import json
import os
import platform
import re
import sys
import time

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, bondorder, ctqw, dtqw, graphs, metrics
from .errors import ComputationError

EXIT_CONFIG = 2
EXIT_COMPUTATION = 3


# the padding of a slot: UTF-8 never writes this byte
_PAD = b"\xff"
# a "%.12g" slot in 4-byte words: the longest "%.12g" of a double has 19 bytes
_G12_WORDS = 5
_DECADE_SCALES = np.array([1e12, 1e13, 1e14, 1e15])
# "0." and the decade's zeros, padded to two words: the first and the second
# word for each decade d of a fast cell
_PREFIX_WORDS = np.frombuffer(b"".join((b"0." + b"0" * d).ljust(8, _PAD) for d in range(4)),
                              np.uint32).reshape(4, 2).T.copy()


def _digit_words():
    """The 4 ASCII digits of 0-9999 as one word each, then the same words
    with their trailing zeros padded out, for the words that end a number."""
    words = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        words[..., k] = np.arange(48, 58).reshape((10,) + (1,) * (3 - k))
    words[1, ..., 0, 3] = words[1, ..., 0, 0, 2] = words[1, ..., 0, 0, 0, 1] = _PAD[0]
    words[1, 0, 0, 0, 0, 0] = _PAD[0]
    return words.view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _fast_cells(x):
    """Which values of the float array x print through their 12 digits, with
    each value's decade d and its digits m (as floats).

    A value x in [1e-4, 1) prints as "0." + "0" * d + the digits of m with
    their trailing zeros stripped, with d (0-3) the number of the bounds
    0.1, 0.01 and 0.001 that x lies below: each of those doubles lies above
    its power of ten, so the comparisons are exact. m = rint(x * 10**(12 +
    d)) stays below 10**12 < 2**40, so the product is within 2**-14 of the
    exact x * 10**(12 + d), and m holds %.12g's correctly rounded digits
    whenever the product's fraction is more than 1e-3 from 1/2. Every other
    value is not fast: values outside [1e-4, 1), NaN, -0.0, fractions within
    1e-3 of 1/2 and digits that carry to 10**12.
    """
    inside = (x >= 1e-4) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    d = (y < 0.1).astype(np.intp) + (y < 0.01) + (y < 0.001)
    scaled = y * _DECADE_SCALES[d]
    m = np.rint(scaled)
    return inside & (np.abs(scaled - m) < 0.499) & (m < 1e12), d, m


def _g12(x, out):
    """Write the "%.12g" text of each value of the float array x into its
    line's row of out, a (lines, 5) view of 4-byte words, padded with 0xFF.
    A fast cell (_fast_cells) is its decade's two prefix words and three
    words of its 12 digits, looked up 4 at a time; the words that end the
    number come from the table with trailing zeros padded out. Every other
    cell is printed by "%.12g" itself, left-justified in 20 bytes: "%.12g"
    writes no spaces, so the justifying spaces become padding."""
    fast, d, m = _fast_cells(x)
    high, low = np.divmod(np.where(fast, m, 1e11).astype(np.int64), 10_000)
    first, middle = np.divmod(high, 10_000)
    ends = low == 0
    for k, words in enumerate(_PREFIX_WORDS):
        out[:, k] = words[d]
    out[:, 2] = _DIGIT_WORDS[first + 10_000 * (ends & (middle == 0))]
    out[:, 3] = _DIGIT_WORDS[middle + 10_000 * ends]
    out[:, 4] = _DIGIT_WORDS[low + 10_000]
    (slow,) = np.nonzero(~fast)
    text = np.frombuffer(b"%-20.12g" * slow.size % tuple(x[slow].tolist()), np.uint8)
    out[slow] = np.where(text == ord(" "), _PAD[0], text).view(np.uint32).reshape(-1, _G12_WORDS)


def _slots(cells):
    """A column of bytes cells as a (lines, words) array of 4-byte words,
    each cell padded with 0xFF to the widest cell's whole words. A cell that
    holds 0xFF itself is a ValueError, since the padding would drop it. An
    array of words passes through, so a column shared by many tables is
    converted once."""
    if isinstance(cells, np.ndarray):
        return cells
    if _PAD in b"".join(cells):
        raise ValueError("a table cell holds byte 0xff, which the table writer drops")
    width = -(-max(map(len, cells), default=0) // 4) * 4
    return np.frombuffer(b"".join([cell.ljust(width, _PAD) for cell in cells]),
                         np.uint32).reshape(len(cells), width // 4)


def _rows(row, *columns):
    """CSV bytes of one line per entry of the columns, as a bytearray: the
    bytes %-format row of a single line, applied to each line's cells. A
    "%s" column holds bytes, encoded by the caller once per table (bytes %
    takes no str), or their _slots; "%d" writes str(int) and "%.12g" the
    bytes of CPython's "%.12g", through _g12. Each line is one row of a
    table of 4-byte words, with a slot for each cell and each run of
    literal text, padded with 0xFF; one translate drops the padding."""
    if _PAD in row:
        raise ValueError("a table row format holds byte 0xff, which the table writer drops")
    count, parts, k = len(columns[0]), [], 0
    for text, spec in re.findall(rb"((?:[^%]|%%)+)|(%\.12g|%[sd])", row):
        if text:
            parts.append(_slots([text.replace(b"%%", b"%")])[0])
            continue
        column = columns[k]
        k += 1
        parts.append(np.asarray(column, dtype=float) if spec == b"%.12g" else _slots(
            column if spec == b"%s" else [b"%d" % v for v in column]))
    # a float column takes a "%.12g" slot, which _g12 writes in place
    offsets = np.cumsum([0] + [_G12_WORDS if p.dtype == float else p.shape[-1] for p in parts])
    table = bytearray(4 * count * offsets[-1])
    words = np.frombuffer(table, np.uint32).reshape(count, offsets[-1])
    for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
        if part.dtype == float:
            _g12(part, words[:, start:stop])
        else:
            words[:, start:stop] = part
    return table.translate(None, _PAD)


def _atomic_write(path, chunks):
    """Write the bytes chunks, as they come, to a binary temporary file
    beside path, then rename it over path: a failure part-way, such as a
    str chunk (TypeError), leaves path as it was. The file gets mode 0o666
    less the umask, as open(path, "w") gives a new file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _blas_build():
    """The BLAS numpy was built with, as numpy reports it, or None where it
    cannot: show_config(mode="dicts") needs numpy 1.26. With blas_env it
    names the thread default that eigh's bits can depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def _load_manifest_config(path, command, keys):
    """The config a manifest of command recorded; its keys must be keys."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed manifest {path!r}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"malformed manifest {path!r}: expected a JSON object")
    if doc.get("command") != command:
        raise ValueError(
            f"manifest {path!r} records command {doc.get('command')!r}, not {command!r}"
        )
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"manifest {path!r} has no config mapping")
    if config.keys() != keys:
        raise ValueError(f"manifest {path!r} config has keys {sorted(config)}, "
                         f"expected {sorted(keys)}")
    return config


_OUT_OPTION = click.option(
    "--out", type=click.Path(file_okay=False), default=".", show_default=True,
    envvar="ARENEWALK_OUT",
    help="Output directory (env ARENEWALK_OUT overrides the default).",
)
_MOLECULE_OPTION = click.option("--molecule", "-m", default=None,
                                help="Catalog name or molecule file path.")
_GRID_OPTIONS = (
    click.option("--t-max", type=float, default=200.0, show_default=True,
                 help="Last sampled time."),
    click.option("--dt", type=float, default=0.01, show_default=True,
                 help="Sampling interval."),
)


class _Group(click.Group):
    """A command group whose invoke maps every subcommand's errors to an
    exit code; click's own usage errors pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.ClickException:
            raise
        except (ComputationError, np.linalg.LinAlgError) as exc:
            click.echo(f"computation error: {exc}", err=True)
            sys.exit(EXIT_COMPUTATION)
        except (ValueError, OSError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="arenewalk")
def main():
    """Quantum walks on bond-order-weighted aromatic hydrocarbon graphs.

    Molecules come from the built-in catalog (benzene, naphthalene,
    anthracene, phenanthrene) or from a YAML file with fields `name`
    (string), `nodes` (integer), `edges` (list of [i, j, weight] with
    1-based indices) and optional `classes` (list of lists of node
    indices marking symmetry-equivalent sites).
    """


def _writer(*options):
    """Declare a subcommand of main, with the options plus --out and
    --from-manifest, from its tables function: the command's name and help
    are the function's. tables gets the options' values, or the config
    replayed from --from-manifest, as cfg; it validates cfg, may fill in
    resolved values and returns {file name: iterable of bytes chunks}. It
    computes everything before it returns, so a bad config writes nothing;
    the chunks only format its results as each file and then manifest.json
    are written to out."""
    def declare(tables):
        command = tables.__name__

        def run(out, from_manifest, **cfg):
            if from_manifest:
                # a replay runs the recorded configuration and nothing else
                ctx = click.get_current_context()
                given = [p.opts[0] for p in ctx.command.params if p.name in cfg
                         and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
                if given:
                    raise click.UsageError(f"--from-manifest replays the recorded "
                                           f"configuration; drop {', '.join(given)}")
                cfg = _load_manifest_config(from_manifest, command, cfg.keys())
            started = time.perf_counter()
            files = tables(cfg)
            for name, chunks in files.items():
                _atomic_write(os.path.join(out, name), chunks)
            manifest = {
                "command": command,
                "package": {"name": "arenewalk", "version": __version__},
                "libraries": {"python": platform.python_version(), "numpy": np.__version__},
                # eigh's bits can depend on the BLAS thread count
                "blas_env": {k: v for k, v in sorted(os.environ.items())
                             if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
                "blas_build": _blas_build(),
                # the CPUs the process may run on, up to 4 of which
                # ctqw.evolve runs threads on: they set wall_time_s but no
                # CSV byte
                "cpus": ctqw._cpus(),
                "config": cfg,
                "outputs": list(files),
                "wall_time_s": round(time.perf_counter() - started, 6),
            }
            _atomic_write(os.path.join(out, "manifest.json"),
                          [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])
            click.echo(f"{command}: wrote {', '.join(files)}, manifest.json to {out}")

        replay = click.option("--from-manifest", type=click.Path(exists=True, dir_okay=False),
                              default=None, help="Replay the configuration of a previous run.")
        for option in reversed((*options, _OUT_OPTION, replay)):
            run = option(run)
        return main.command(command, help=tables.__doc__)(run)
    return declare


def _molecule(cfg):
    """The molecule cfg names; simulate and rank cannot run without one."""
    if cfg.get("molecule") is None:
        raise click.UsageError("--molecule is required (or use --from-manifest)")
    return graphs.load_molecule(cfg["molecule"])


@main.command("list")
def cmd_list():
    """List the catalog molecules with node, edge and class counts."""
    for name in graphs.CATALOG:
        g = graphs.load_molecule(name)
        click.echo(
            f"{name:<13} nodes={g.node_count:<3} edges={len(g.edges):<3} "
            f"classes={len(g.classes)}"
        )


@_writer(_MOLECULE_OPTION, *_GRID_OPTIONS)
def simulate(cfg):
    """Run the continuous-time walk and write MAXP/TRP series and means.

    Writes site_series.csv (molecule,node,t,maxp,trp), site_report.csv
    (molecule,node,class,maxp_mean,trp_mean) and manifest.json.
    """
    g = _molecule(cfg)
    prop = ctqw.propagator(ctqw.hamiltonian(g))
    obs = metrics.observe(prop, cfg.get("t_max"), cfg.get("dt"))
    reports = metrics.site_reports(g, obs)
    # t is formatted and slotted once; each node's block of rows is
    # formatted only as it is written, so one node's rows are held at a time
    times = _slots((b"%.12g\n" * len(obs.times) % tuple(obs.times.tolist())).splitlines())
    name = g.name.encode()
    prefix = name.replace(b"%", b"%%")
    series = (_rows(b"%s,%d,%%s,%%.12g,%%.12g\n" % (prefix, k + 1), times,
                    obs.maxp[:, k], obs.trp[:, k]) for k in range(g.node_count))
    report = _rows(b"%s,%d,%s,%.12g,%.12g\n", [name] * len(reports),
                   [r.node for r in reports], [r.class_id.encode() for r in reports],
                   [r.maxp_mean for r in reports], [r.trp_mean for r in reports])
    return {"site_series.csv": itertools.chain([b"molecule,node,t,maxp,trp\n"], series),
            "site_report.csv": [b"molecule,node,class,maxp_mean,trp_mean\n", report]}


@_writer(
    _MOLECULE_OPTION,
    click.option("--steps", type=int, default=None,
                 help="Walk length [default: 10 * N^2]."),
    click.option("--start", type=int, default=1, show_default=True,
                 help="Start node (1-based)."),
    click.option("--coin-degree", type=click.Choice(["unweighted", "weighted"]),
                 default="unweighted", show_default=True,
                 help="Degree notion used by the per-node coin."),
)
def rank(cfg):
    """Rank sites by reactivity with the directed graph walk.

    Writes ranks.csv (node,label,score,rank; rank 1 = most reactive) and
    manifest.json.
    """
    g = _molecule(cfg)
    ranking = dtqw.rank_nodes(g, steps=cfg.get("steps"), start=cfg.get("start"),
                              coin=cfg.get("coin_degree"))
    cfg["steps"] = ranking.steps
    return {"ranks.csv": [b"node,label,score,rank\n", _rows(
        b"%d,%s,%.12g,%d\n", ranking.nodes, [label.encode() for label in ranking.labels],
        ranking.scores, ranking.ranks)]}


@_writer(
    click.option("--molecule", "-m", "molecules", multiple=True,
                 help="Molecule to include; repeat the flag (at least twice)."),
    *_GRID_OPTIONS,
)
def stability(cfg):
    """Order molecules by overall mean TRP (most stable first).

    Writes stability.csv (molecule,mean_trp,rank); near-ties within 2%
    share a rank and print as '~' in the order line.
    """
    # click passes the repeated -m as a tuple, a replayed manifest as a list
    names = cfg.get("molecules", [])
    if not isinstance(names, (list, tuple)) or not all(isinstance(m, str) for m in names):
        raise ValueError(f"molecules must be a list of strings, got {names!r}")
    if len(names) < 2:
        raise click.UsageError("stability needs at least two --molecule flags")
    molecules = [graphs.load_molecule(name) for name in names]
    # a repeated molecule, or one too small for TRP, is rejected before
    # any evolution is paid for
    metrics._check_unique_names([g.name for g in molecules])
    for g in molecules:
        metrics._check_walkers(g.node_count)
    # every molecule's grid and phases are checked before any is evolved
    props = [ctqw.propagator(ctqw.hamiltonian(g)) for g in molecules]
    t_max, dt = cfg.get("t_max"), cfg.get("dt")
    ctqw._grid(t_max, dt, *props)
    # each molecule's TRP array is reduced to its entry, and dropped,
    # before the next molecule is evolved
    entries = [metrics.stability_entry(g, prop, t_max, dt) for g, prop in zip(molecules, props)]
    report = metrics.stability_order(entries)
    click.echo(report.order_string())
    rows = report.rows
    return {"stability.csv": [b"molecule,mean_trp,rank\n", _rows(
        b"%s,%.12g,%d\n", [r.molecule.encode() for r in rows], [r.mean_trp for r in rows],
        [r.rank for r in rows])]}


@main.command("bond-order")
@click.argument("k", type=float)
def cmd_bond_order(k):
    """Print the bond order for a local stretching force constant K."""
    click.echo(f"{bondorder.badger_bond_order(k):.6f}")


@main.command("export-graph")
@click.option("--molecule", "-m", required=True,
              help="Catalog name or molecule file path.")
@_OUT_OPTION
def export_graph(molecule, out):
    """Write a molecule's adjacency and Laplacian matrices as CSV."""
    g = graphs.load_molecule(molecule)
    labels = [label.encode() for label in g.labels]
    header = b",".join([b"label", *labels]) + b"\n"
    row = b"%s" + b",%.12g" * g.node_count + b"\n"
    for fname, M in (("adjacency.csv", g.adjacency),
                     ("laplacian.csv", ctqw.hamiltonian(g))):
        _atomic_write(os.path.join(out, fname), [header, _rows(row, labels, *M.T)])
    click.echo(f"export-graph: wrote adjacency.csv, laplacian.csv to {out}")


if __name__ == "__main__":
    main()
