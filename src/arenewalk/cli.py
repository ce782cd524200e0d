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

`_rows` is the only table writer but one: `simulate`'s t column is
formatted once by "%.12g" itself, since nearly every default-grid time
is outside the fast path below, where `_rows` took 1.7 times as long.
Every "%.12g" cell `_rows` writes has the bytes of CPython's correctly
rounded "%.12g". A value in [1e-4, 1)
prints as its 12 digits, an int rounded from the value scaled by a power
of ten: the scaled product is within 2**-14 of exact, so the int is right
whenever the product's fraction is more than 1e-3 from 1/2. Every other
value, and every fraction within that guard, is printed by "%.12g" in the
same single % call that formats the table.
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


# the spec of a "%.12g" cell by its _g12 code: the decade d of a fast cell, or 4
_G12_SPECS = ("0.%d", "0.0%d", "0.00%d", "0.000%d", "%.12g")
_DECADE_SCALES = np.array([1e12, 1e13, 1e14, 1e15])


def _g12(column):
    """Spec codes (into _G12_SPECS) and cells that print a float column as
    "%.12g" would, one cell per value.

    A value x in [1e-4, 1) prints through "0." + "0" * d + "%d", with d
    (0-3) the number of the bounds 0.1, 0.01 and 0.001 that x lies below:
    each of those doubles lies above its power of ten, so the comparisons
    are exact. The int is m = rint(x * 10**(12 + d)) with its trailing
    zeros stripped. The product stays below 10**12 < 2**40, so it is within
    2**-14 of the exact x * 10**(12 + d), and m holds %.12g's correctly
    rounded digits whenever the product's fraction is more than 1e-3 from
    1/2. Every other value keeps the spec "%.12g" and its float: values
    outside [1e-4, 1), NaN, -0.0, fractions within 1e-3 of 1/2 and digits
    that carry to 10**12. CPython prints a 12-digit int about three times
    faster than a float.
    """
    x = np.asarray(column, dtype=float)
    inside = (x >= 1e-4) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    d = (y < 0.1).astype(np.intp) + (y < 0.01) + (y < 0.001)
    scaled = y * _DECADE_SCALES[d]
    m = np.rint(scaled)
    codes = np.where(inside & (np.abs(scaled - m) < 0.499) & (m < 1e12), d, 4)
    m = m.astype(np.int64)
    (zeros,) = np.nonzero(m % 10 == 0)
    while zeros.size:
        m[zeros] //= 10
        zeros = zeros[m[zeros] % 10 == 0]
    cells = m.tolist()
    (fallback,) = np.nonzero(codes == 4)
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        cells[i] = value
    return codes, cells


def _rows(row, *columns):
    """CSV text of one line per entry of the columns: row is the %-format
    of a single line, applied once to all lines' interleaved cells. Each
    "%.12g" column takes per-line specs and cells from _g12, so the format
    is joined line by line: a 12-digit int where the scaled value, exact
    to 2**-14, is more than 1e-3 from a rounding tie, and "%.12g" itself
    for the rest, which writes the same bytes. "%d" writes str(int)."""
    count, width = len(columns[0]), len(columns)
    cells = [None] * (width * count)
    texts, codes, k = [""], [], 0  # the line's text around its "%.12g" specs
    for token in re.split(r"(%%|%\.12g|%[sd])", row):
        if token == "%.12g":
            code, cells[k::width] = _g12(columns[k])
            codes.append(code)
            texts.append("")
        else:
            texts[-1] += token
            if token in ("%s", "%d"):
                cells[k::width] = columns[k]
        k += token in ("%s", "%d", "%.12g")
    lines = np.empty((count, len(texts)), dtype=object)
    lines[:, 0] = texts[0]
    for j, (code, text) in enumerate(zip(codes, texts[1:]), 1):
        lines[:, j] = np.array([spec + text for spec in _G12_SPECS], dtype=object)[code]
    return "".join(lines.ravel().tolist()) % tuple(cells)


def _atomic_write(path, chunks):
    """Write the strings of chunks to a temporary file beside path, then
    rename it over path: a failure part-way leaves path as it was. The file
    gets mode 0o666 less the umask, as open(path, "w") gives a new file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
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
    click.option("--gamma-scale", type=float, default=1.0, show_default=True,
                 help="Global rate multiplier on the walk generator."),
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
    resolved values and returns {file name: iterable of text chunks}. It
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
                "config": cfg,
                "outputs": list(files),
                "wall_time_s": round(time.perf_counter() - started, 6),
            }
            _atomic_write(os.path.join(out, "manifest.json"),
                          [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
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
    prop = ctqw.propagator(ctqw.hamiltonian(g, cfg.get("gamma_scale")))
    obs = metrics.observe(prop, cfg.get("t_max"), cfg.get("dt"))
    reports = metrics.site_reports(g, obs)
    # t is formatted once; each node's block of rows is formatted only as
    # it is written, so one node's text is held at a time
    times = ("%.12g\n" * len(obs.times) % tuple(obs.times.tolist())).splitlines()
    prefix = g.name.replace("%", "%%")
    series = (_rows(f"{prefix},{k + 1},%s,%.12g,%.12g\n", times, obs.maxp[:, k], obs.trp[:, k])
              for k in range(g.node_count))
    report = _rows("%s,%d,%s,%.12g,%.12g\n", [g.name] * len(reports),
                   [r.node for r in reports], [r.class_id for r in reports],
                   [r.maxp_mean for r in reports], [r.trp_mean for r in reports])
    return {"site_series.csv": itertools.chain(["molecule,node,t,maxp,trp\n"], series),
            "site_report.csv": ["molecule,node,class,maxp_mean,trp_mean\n", report]}


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
    return {"ranks.csv": ["node,label,score,rank\n", _rows(
        "%d,%s,%.12g,%d\n", ranking.nodes, ranking.labels, ranking.scores, ranking.ranks)]}


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
    # a repeated molecule is rejected before any evolution is paid for
    metrics._check_unique_names([g.name for g in molecules])
    # every Hamiltonian is checked before any molecule is evolved
    props = [ctqw.propagator(ctqw.hamiltonian(g, cfg.get("gamma_scale"))) for g in molecules]
    t_max, dt = cfg.get("t_max"), cfg.get("dt")
    # each molecule's observables are reduced to its entry, and dropped,
    # before the next molecule is evolved
    entries = [metrics.stability_entry(g, metrics.observe(prop, t_max, dt), t_max, dt)
               for g, prop in zip(molecules, props)]
    report = metrics.stability_order(entries)
    click.echo(report.order_string())
    rows = report.rows
    return {"stability.csv": ["molecule,mean_trp,rank\n", _rows(
        "%s,%.12g,%d\n", [r.molecule for r in rows], [r.mean_trp for r in rows],
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
    header = ",".join(("label",) + g.labels) + "\n"
    row = "%s" + ",%.12g" * g.node_count + "\n"
    for fname, M in (("adjacency.csv", g.adjacency),
                     ("laplacian.csv", graphs.laplacian(g))):
        _atomic_write(os.path.join(out, fname), [header, _rows(row, g.labels, *M.T)])
    click.echo(f"export-graph: wrote adjacency.csv, laplacian.csv to {out}")


if __name__ == "__main__":
    main()
