"""Command-line interface.

Subcommands: list, simulate, rank, stability, bond-order, export-graph.
Outputs are CSV files plus a manifest.json recording the exact
configuration and library versions; rerunning a command with the same
configuration (or via --from-manifest) reproduces the CSVs byte for
byte. Exit codes: 0 success, 2 configuration error, 3 computation error.
"""
from __future__ import annotations

import functools
import io
import json
import numbers
import os
import platform
import sys
import tempfile
import time

import click
import numpy as np
import scipy

from . import __version__, bondorder, ctqw, dtqw, graphs, metrics
from .errors import ComputationError

EXIT_CONFIG = 2
EXIT_COMPUTATION = 3


def _fmt(x):
    return format(float(x), ".12g")


def _series_csv(name, obs):
    """site_series.csv text of a SiteObservables, one block of rows per node.

    The t column is formatted once. Each node's rows come from one
    %-format over its interleaved (t, maxp, trp) cells; "%.12g" writes the
    same digits as _fmt.
    """
    count = len(obs.times)
    cells = [None] * (3 * count)
    cells[0::3] = [_fmt(t) for t in obs.times.tolist()]
    prefix = name.replace("%", "%%")
    blocks = ["molecule,node,t,maxp,trp\n"]
    for k in range(obs.maxp.shape[1]):
        cells[1::3] = obs.maxp[:, k].tolist()
        cells[2::3] = obs.trp[:, k].tolist()
        blocks.append((f"{prefix},{k + 1},%s,%.12g,%.12g\n" * count) % tuple(cells))
    return "".join(blocks)


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


def _write_csv(path, header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    _atomic_write(path, buf.getvalue())


def _write_manifest(out_dir, command, config, outputs, wall_time):
    doc = {
        "command": command,
        "package": {"name": "arenewalk", "version": __version__},
        "libraries": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config": config,
        "outputs": outputs,
        "wall_time_s": round(wall_time, 6),
    }
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _load_manifest_config(path, command):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed manifest {path!r}: {exc}")
    if doc.get("command") != command:
        raise ValueError(
            f"manifest {path!r} records command {doc.get('command')!r}, not {command!r}"
        )
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"manifest {path!r} has no config mapping")
    return config


def _check_ctqw_config(cfg):
    """Raise ValueError unless a simulate or stability config holds real
    numbers for the grid and the rate, and a list of strings for
    stability's molecules; a replayed manifest reaches here unchecked.
    load_molecule checks a single molecule name."""
    for key in ("t_max", "dt", "gamma_scale"):
        value = cfg.get(key)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{key} must be a real number, got {value!r}")
    names = cfg.get("molecules", [])
    if not isinstance(names, list) or not all(isinstance(m, str) for m in names):
        raise ValueError(f"molecules must be a list of strings, got {names!r}")


_OUT_OPTION = click.option(
    "--out", type=click.Path(file_okay=False), default=".", show_default=True,
    envvar="ARENEWALK_OUT",
    help="Output directory (env ARENEWALK_OUT overrides the default).",
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
@click.option("--t-max", type=float, default=200.0, show_default=True,
              help="Last sampled time.")
@click.option("--dt", type=float, default=0.01, show_default=True,
              help="Sampling interval.")
@click.option("--gamma-scale", type=float, default=1.0, show_default=True,
              help="Global rate multiplier on the walk generator.")
@_OUT_OPTION
@click.option("--from-manifest", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Replay the configuration of a previous run.")
@_guarded
def simulate(molecule, t_max, dt, gamma_scale, out, from_manifest):
    """Run the continuous-time walk and write MAXP/TRP series and means.

    Writes site_series.csv (molecule,node,t,maxp,trp), site_report.csv
    (molecule,node,class,maxp_mean,trp_mean) and manifest.json.
    """
    if from_manifest:
        cfg = _load_manifest_config(from_manifest, "simulate")
    else:
        cfg = {"molecule": molecule, "t_max": t_max, "dt": dt,
               "gamma_scale": gamma_scale}
    if cfg.get("molecule") is None:
        raise click.UsageError("--molecule is required (or use --from-manifest)")
    _check_ctqw_config(cfg)
    started = time.perf_counter()
    g = graphs.load_molecule(cfg["molecule"])
    prop = ctqw.propagator(ctqw.hamiltonian(g, cfg["gamma_scale"]))
    obs = metrics.observe(prop, cfg["t_max"], cfg["dt"])
    reports = metrics.site_reports(g, obs)

    series_path = os.path.join(out, "site_series.csv")
    _atomic_write(series_path, _series_csv(g.name, obs))

    report_path = os.path.join(out, "site_report.csv")
    _write_csv(
        report_path,
        ("molecule", "node", "class", "maxp_mean", "trp_mean"),
        [(g.name, str(r.node), r.class_id, _fmt(r.maxp_mean), _fmt(r.trp_mean))
         for r in reports],
    )
    _write_manifest(out, "simulate", cfg, ["site_series.csv", "site_report.csv"],
                    time.perf_counter() - started)
    click.echo(f"simulate: wrote site_series.csv, site_report.csv, manifest.json to {out}")


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
@click.option("--from-manifest", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Replay the configuration of a previous run.")
@_guarded
def rank(molecule, steps, start, coin_degree, out, from_manifest):
    """Rank sites by reactivity with the directed graph walk.

    Writes ranks.csv (node,label,score,rank; rank 1 = most reactive) and
    manifest.json.
    """
    if from_manifest:
        cfg = _load_manifest_config(from_manifest, "rank")
    else:
        cfg = {"molecule": molecule, "steps": steps, "start": start,
               "coin_degree": coin_degree}
    if cfg.get("molecule") is None:
        raise click.UsageError("--molecule is required (or use --from-manifest)")
    started = time.perf_counter()
    g = graphs.load_molecule(cfg["molecule"])
    if cfg.get("steps") is None:
        cfg["steps"] = 10 * g.node_count ** 2
    ranking = dtqw.rank_nodes(g, steps=cfg["steps"], start=cfg.get("start"),
                              coin=cfg.get("coin_degree"))
    ranks_path = os.path.join(out, "ranks.csv")
    _write_csv(
        ranks_path,
        ("node", "label", "score", "rank"),
        [(str(n), lab, _fmt(sc), str(rk))
         for n, lab, sc, rk in zip(ranking.nodes, ranking.labels,
                                   ranking.scores, ranking.ranks)],
    )
    _write_manifest(out, "rank", cfg, ["ranks.csv"], time.perf_counter() - started)
    click.echo(f"rank: wrote ranks.csv, manifest.json to {out}")


@main.command()
@click.option("--molecule", "-m", multiple=True,
              help="Molecule to include; repeat the flag (at least twice).")
@click.option("--t-max", type=float, default=200.0, show_default=True)
@click.option("--dt", type=float, default=0.01, show_default=True)
@click.option("--gamma-scale", type=float, default=1.0, show_default=True)
@_OUT_OPTION
@click.option("--from-manifest", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Replay the configuration of a previous run.")
@_guarded
def stability(molecule, t_max, dt, gamma_scale, out, from_manifest):
    """Order molecules by overall mean TRP (most stable first).

    Writes stability.csv (molecule,mean_trp,rank); near-ties within 2%
    share a rank and print as '~' in the order line.
    """
    if from_manifest:
        cfg = _load_manifest_config(from_manifest, "stability")
    else:
        cfg = {"molecules": list(molecule), "t_max": t_max, "dt": dt,
               "gamma_scale": gamma_scale}
    _check_ctqw_config(cfg)
    if len(cfg.get("molecules", ())) < 2:
        raise click.UsageError("stability needs at least two --molecule flags")
    started = time.perf_counter()
    entries = []
    for name in cfg["molecules"]:
        g = graphs.load_molecule(name)
        prop = ctqw.propagator(ctqw.hamiltonian(g, cfg["gamma_scale"]))
        # obs stays alive through the next molecule's pass: freed earlier,
        # malloc hands its pages back to the OS and the next pass faults
        # them in again (4x the page faults, 15% slower on acenes 1-5)
        obs = metrics.observe(prop, cfg["t_max"], cfg["dt"])
        entries.append(metrics.stability_entry(g, obs, cfg["t_max"], cfg["dt"]))
    report = metrics.stability_order(entries)
    stability_path = os.path.join(out, "stability.csv")
    _write_csv(
        stability_path,
        ("molecule", "mean_trp", "rank"),
        [(row.molecule, _fmt(row.mean_trp), str(row.rank)) for row in report.rows],
    )
    _write_manifest(out, "stability", cfg, ["stability.csv"],
                    time.perf_counter() - started)
    click.echo(report.order_string())
    click.echo(f"stability: wrote stability.csv, manifest.json to {out}")


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
    A = graphs.adjacency(g)
    L = graphs.laplacian(g)
    header = ("label",) + g.labels
    for fname, M in (("adjacency.csv", A), ("laplacian.csv", L)):
        rows = [(g.labels[i],) + tuple(_fmt(v) for v in M[i])
                for i in range(g.node_count)]
        _write_csv(os.path.join(out, fname), header, rows)
    click.echo(f"export-graph: wrote adjacency.csv, laplacian.csv to {out}")


if __name__ == "__main__":
    main()
