"""Command-line interface.

Subcommands: list, simulate, rank, stability, bond-order, export-graph.
Outputs are CSV files plus a manifest.json recording the exact
configuration and library versions; rerunning a command with the same
configuration (or via --from-manifest) reproduces the CSVs byte for
byte. Exit codes: 0 success, 2 configuration error, 3 computation error.
"""
from __future__ import annotations

import functools
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


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (ComputationError, np.linalg.LinAlgError) as exc:
            click.echo(f"computation error: {exc}", err=True)
            sys.exit(EXIT_COMPUTATION)
        except (ValueError, OSError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
    return wrapper


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(out_dir, command, config, outputs, wall_time):
    doc = {
        "command": command,
        "package": {"name": "arenewalk", "version": __version__},
        "libraries": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": config,
        "outputs": outputs,
        "wall_time_s": round(wall_time, 6),
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


def _run(command, cfg, out, from_manifest, tables):
    """Run a writing subcommand. cfg (or the config replayed from
    --from-manifest) goes to tables, which validates it, may fill in
    resolved values and returns {file name: CSV text}; only then are the
    files and manifest.json written to out and the "wrote" line printed."""
    if from_manifest:
        cfg = _load_manifest_config(from_manifest, command)
    started = time.perf_counter()
    files = tables(cfg)
    for name, text in files.items():
        _atomic_write(os.path.join(out, name), text)
    _write_manifest(out, command, cfg, list(files), time.perf_counter() - started)
    click.echo(f"{command}: wrote {', '.join(files)}, manifest.json to {out}")


_OUT_OPTION = click.option(
    "--out", type=click.Path(file_okay=False), default=".", show_default=True,
    envvar="ARENEWALK_OUT",
    help="Output directory (env ARENEWALK_OUT overrides the default).",
)


def _grid_options(command):
    """--t-max, --dt and --gamma-scale of the CTQW subcommands."""
    for option in reversed((
        click.option("--t-max", type=float, default=200.0, show_default=True,
                     help="Last sampled time."),
        click.option("--dt", type=float, default=0.01, show_default=True,
                     help="Sampling interval."),
        click.option("--gamma-scale", type=float, default=1.0, show_default=True,
                     help="Global rate multiplier on the walk generator."),
    )):
        command = option(command)
    return command


_FROM_MANIFEST_OPTION = click.option(
    "--from-manifest", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Replay the configuration of a previous run.",
)


@click.group()
@click.version_option(version=__version__, prog_name="arenewalk")
def main():
    """Quantum walks on bond-order-weighted aromatic hydrocarbon graphs.

    Molecules come from the built-in catalog (benzene, naphthalene,
    anthracene, phenanthrene) or from a YAML file with fields `name`
    (string), `nodes` (integer), `edges` (list of [i, j, weight] with
    1-based indices) and optional `classes` (list of lists of node
    indices marking symmetry-equivalent sites).
    """


@main.command("list")
@_guarded
def cmd_list():
    """List the catalog molecules with node, edge and class counts."""
    for name in graphs.CATALOG:
        g = graphs.load_molecule(name)
        classes = graphs.equivalence_classes(g)
        click.echo(
            f"{name:<13} nodes={g.node_count:<3} edges={len(g.edges):<3} "
            f"classes={len(classes)}"
        )


@main.command()
@click.option("--molecule", "-m", default=None,
              help="Catalog name or molecule file path.")
@_grid_options
@_OUT_OPTION
@_FROM_MANIFEST_OPTION
@_guarded
def simulate(molecule, t_max, dt, gamma_scale, out, from_manifest):
    """Run the continuous-time walk and write MAXP/TRP series and means.

    Writes site_series.csv (molecule,node,t,maxp,trp), site_report.csv
    (molecule,node,class,maxp_mean,trp_mean) and manifest.json.
    """
    cfg = {"molecule": molecule, "t_max": t_max, "dt": dt, "gamma_scale": gamma_scale}
    _run("simulate", cfg, out, from_manifest, _simulate_tables)


def _simulate_tables(cfg):
    if cfg.get("molecule") is None:
        raise click.UsageError("--molecule is required (or use --from-manifest)")
    g = graphs.load_molecule(cfg["molecule"])
    prop = ctqw.propagator(ctqw.hamiltonian(g, cfg.get("gamma_scale")))
    obs = metrics.observe(prop, cfg.get("t_max"), cfg.get("dt"))
    reports = metrics.site_reports(g, obs)
    # t is formatted once; one block of rows per node, joined with the
    # header in one pass (adding the header afterwards copies the whole text)
    times = [_fmt(t) for t in obs.times.tolist()]
    prefix = g.name.replace("%", "%%")
    series = "".join(["molecule,node,t,maxp,trp\n"] + [
        _rows(f"{prefix},{k + 1},%s,%.12g,%.12g\n",
              times, obs.maxp[:, k].tolist(), obs.trp[:, k].tolist())
        for k in range(g.node_count)])
    report = "molecule,node,class,maxp_mean,trp_mean\n" + _rows(
        "%s,%d,%s,%.12g,%.12g\n", [g.name] * len(reports), [r.node for r in reports],
        [r.class_id for r in reports], [r.maxp_mean for r in reports],
        [r.trp_mean for r in reports])
    return {"site_series.csv": series, "site_report.csv": report}


@main.command()
@click.option("--molecule", "-m", default=None,
              help="Catalog name or molecule file path.")
@click.option("--steps", type=int, default=None,
              help="Walk length [default: 10 * N^2].")
@click.option("--start", type=int, default=1, show_default=True,
              help="Start node (1-based).")
@click.option("--coin-degree", type=click.Choice(["unweighted", "weighted"]),
              default="unweighted", show_default=True,
              help="Degree notion used by the per-node coin.")
@_OUT_OPTION
@_FROM_MANIFEST_OPTION
@_guarded
def rank(molecule, steps, start, coin_degree, out, from_manifest):
    """Rank sites by reactivity with the directed graph walk.

    Writes ranks.csv (node,label,score,rank; rank 1 = most reactive) and
    manifest.json.
    """
    cfg = {"molecule": molecule, "steps": steps, "start": start, "coin_degree": coin_degree}
    _run("rank", cfg, out, from_manifest, _rank_tables)


def _rank_tables(cfg):
    if cfg.get("molecule") is None:
        raise click.UsageError("--molecule is required (or use --from-manifest)")
    g = graphs.load_molecule(cfg["molecule"])
    ranking = dtqw.rank_nodes(g, steps=cfg.get("steps"), start=cfg.get("start"),
                              coin=cfg.get("coin_degree"))
    cfg["steps"] = ranking.steps
    return {"ranks.csv": "node,label,score,rank\n" + _rows(
        "%d,%s,%.12g,%d\n", ranking.nodes, ranking.labels, ranking.scores, ranking.ranks)}


@main.command()
@click.option("--molecule", "-m", multiple=True,
              help="Molecule to include; repeat the flag (at least twice).")
@_grid_options
@_OUT_OPTION
@_FROM_MANIFEST_OPTION
@_guarded
def stability(molecule, t_max, dt, gamma_scale, out, from_manifest):
    """Order molecules by overall mean TRP (most stable first).

    Writes stability.csv (molecule,mean_trp,rank); near-ties within 2%
    share a rank and print as '~' in the order line.
    """
    cfg = {"molecules": list(molecule), "t_max": t_max, "dt": dt,
           "gamma_scale": gamma_scale}
    _run("stability", cfg, out, from_manifest, _stability_tables)


def _stability_tables(cfg):
    names = cfg.get("molecules", [])
    if not isinstance(names, list) or not all(isinstance(m, str) for m in names):
        raise ValueError(f"molecules must be a list of strings, got {names!r}")
    if len(names) < 2:
        raise click.UsageError("stability needs at least two --molecule flags")
    molecules = [graphs.load_molecule(name) for name in names]
    # a repeated molecule is rejected before any evolution is paid for
    metrics._check_unique_names([g.name for g in molecules])
    t_max, dt = cfg.get("t_max"), cfg.get("dt")
    entries = []
    for g in molecules:
        prop = ctqw.propagator(ctqw.hamiltonian(g, cfg.get("gamma_scale")))
        # obs stays alive through the next molecule's pass: freed earlier,
        # malloc hands its pages back to the OS and the next pass faults
        # them in again (4x the page faults, 15% slower on acenes 1-5)
        obs = metrics.observe(prop, t_max, dt)
        entries.append(metrics.stability_entry(g, obs, t_max, dt))
    report = metrics.stability_order(entries)
    click.echo(report.order_string())
    rows = report.rows
    return {"stability.csv": "molecule,mean_trp,rank\n" + _rows(
        "%s,%.12g,%d\n", [r.molecule for r in rows], [r.mean_trp for r in rows],
        [r.rank for r in rows])}


@main.command("bond-order")
@click.argument("k", type=float)
@_guarded
def cmd_bond_order(k):
    """Print the bond order for a local stretching force constant K."""
    click.echo(f"{bondorder.badger_bond_order(k):.6f}")


@main.command("export-graph")
@click.option("--molecule", "-m", required=True,
              help="Catalog name or molecule file path.")
@_OUT_OPTION
@_guarded
def export_graph(molecule, out):
    """Write a molecule's adjacency and Laplacian matrices as CSV."""
    g = graphs.load_molecule(molecule)
    header = ",".join(("label",) + g.labels) + "\n"
    row = "%s" + ",%.12g" * g.node_count + "\n"
    for fname, M in (("adjacency.csv", graphs.adjacency(g)),
                     ("laplacian.csv", graphs.laplacian(g))):
        _atomic_write(os.path.join(out, fname), header + _rows(row, g.labels, *M.T.tolist()))
    click.echo(f"export-graph: wrote adjacency.csv, laplacian.csv to {out}")


if __name__ == "__main__":
    main()
