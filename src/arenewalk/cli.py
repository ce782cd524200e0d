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
"""
from __future__ import annotations

import itertools
import json
import os
import platform
import sys
import tempfile
import time

import click
import numpy as np

from . import __version__, bondorder, ctqw, dtqw, graphs, metrics
from .errors import ComputationError

EXIT_CONFIG = 2
EXIT_COMPUTATION = 3


def _fmt(x):
    return format(float(x), ".12g")


def _rows(row, *columns):
    """CSV text of one line per entry of the columns: row is the %-format
    of a single line, applied once to all lines' interleaved cells.
    "%.12g" writes the same digits as _fmt, and "%d" as str(int)."""
    count = len(columns[0])
    cells = [None] * (len(columns) * count)
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return (row * count) % tuple(cells)


def _atomic_write(path, chunks):
    """Write the strings of chunks to a temporary file beside path, then
    rename it over path: a failure part-way leaves path as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_manifest_config(path, command):
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
                cfg = _load_manifest_config(from_manifest, command)
            started = time.perf_counter()
            files = tables(cfg)
            for name, chunks in files.items():
                _atomic_write(os.path.join(out, name), chunks)
            manifest = {
                "command": command,
                "package": {"name": "arenewalk", "version": __version__},
                "libraries": {"python": platform.python_version(), "numpy": np.__version__},
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
    times = [_fmt(t) for t in obs.times.tolist()]
    prefix = g.name.replace("%", "%%")
    series = (_rows(f"{prefix},{k + 1},%s,%.12g,%.12g\n",
                    times, obs.maxp[:, k].tolist(), obs.trp[:, k].tolist())
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
    entries = []
    for g, prop in zip(molecules, props):
        # obs stays alive through the next molecule's pass: freed earlier,
        # malloc hands its pages back to the OS and the next pass faults
        # them in again (4x the page faults, 15% slower on acenes 1-5)
        obs = metrics.observe(prop, t_max, dt)
        entries.append(metrics.stability_entry(g, obs, t_max, dt))
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
        _atomic_write(os.path.join(out, fname), [header, _rows(row, g.labels, *M.T.tolist())])
    click.echo(f"export-graph: wrote adjacency.csv, laplacian.csv to {out}")


if __name__ == "__main__":
    main()
