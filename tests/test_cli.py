"""Command-line interface: subcommands, files, exit codes, manifests."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner
from conftest import every_matrix, g12, reference_layout

import arenewalk as aw
from arenewalk import ctqw, graphs, metrics
from arenewalk.cli import _atomic_write, main
from arenewalk.errors import ComputationError


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------- list

def test_list_names_catalog(runner):
    res = runner.invoke(main, ["list"])
    assert res.exit_code == 0
    for name in aw.CATALOG:
        assert name in res.output
    assert "14" in res.output  # anthracene/phenanthrene node count


# ---------------------------------------------------------------- simulate

def test_simulate_writes_expected_files(runner, tmp_path):
    out = str(tmp_path / "run")
    res = runner.invoke(
        main,
        ["simulate", "-m", "benzene", "--t-max", "1", "--dt", "0.5", "--out", out],
    )
    assert res.exit_code == 0, res.output
    rows = read_csv(os.path.join(out, "site_series.csv"))
    assert rows[0] == ["molecule", "node", "t", "maxp", "trp"]
    # 6 nodes x 3 samples
    assert len(rows) == 1 + 18
    assert rows[1][:3] == ["benzene", "1", "0"]
    assert float(rows[1][3]) == 1.0
    assert float(rows[1][4]) == 0.0

    report = read_csv(os.path.join(out, "site_report.csv"))
    assert report[0] == ["molecule", "node", "class", "maxp_mean", "trp_mean"]
    assert len(report) == 1 + 6
    assert {r[2] for r in report[1:]} == {"C1"}

    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "simulate"
    assert manifest["config"] == {
        "molecule": "benzene", "t_max": 1.0, "dt": 0.5, "gamma_scale": 1.0,
    }
    assert sorted(manifest["outputs"]) == ["site_report.csv", "site_series.csv"]
    assert manifest["package"]["name"] == "arenewalk"
    assert set(manifest["libraries"]) == {"python", "numpy"}


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: a fresh interpreter must not load it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, arenewalk.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_simulate_values_match_library(runner, tmp_path):
    out = str(tmp_path / "run")
    res = runner.invoke(
        main,
        ["simulate", "-m", "naphthalene", "--t-max", "2", "--dt", "1", "--out", out],
    )
    assert res.exit_code == 0, res.output
    g = aw.load_molecule("naphthalene")
    _, mats = every_matrix(aw.propagator(aw.hamiltonian(g)), t_max=2.0, dt=1.0)
    maxp, trp = aw.site_observables(mats)
    rows = read_csv(os.path.join(out, "site_series.csv"))[1:]
    for row in rows:
        node, t = int(row[1]), float(row[2])
        i = int(round(t / 1.0))
        npt.assert_allclose(float(row[3]), maxp[i, node - 1], atol=1e-10)
        npt.assert_allclose(float(row[4]), trp[i, node - 1], atol=1e-10)


GRID = ["--t-max", "2", "--dt", "0.25"]


@pytest.mark.parametrize("argv, config", [
    (["simulate", "-m", "benzene", *GRID],
     {"molecule": "benzene", "t_max": 2.0, "dt": 0.25, "gamma_scale": 1.0}),
    # rank records the steps it resolved, stability its molecules as a list
    (["rank", "-m", "naphthalene"],
     {"molecule": "naphthalene", "steps": 1000, "start": 1, "coin_degree": "unweighted"}),
    (["stability", "-m", "benzene", "-m", "naphthalene", *GRID],
     {"molecules": ["benzene", "naphthalene"], "t_max": 2.0, "dt": 0.25, "gamma_scale": 1.0}),
], ids=["simulate", "rank", "stability"])
def test_deterministic_and_replayable(runner, tmp_path, argv, config):
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert runner.invoke(main, argv + ["--out", out1]).exit_code == 0
    assert runner.invoke(main, argv + ["--out", out2]).exit_code == 0
    manifest = os.path.join(out1, "manifest.json")
    assert json.load(open(manifest))["config"] == config
    # replay from the recorded manifest reproduces the exact bytes
    res = runner.invoke(main, [argv[0], "--from-manifest", manifest, "--out", out3])
    assert res.exit_code == 0, res.output
    assert json.load(open(os.path.join(out3, "manifest.json")))["config"] == config
    tables = set(os.listdir(out1)) - {"manifest.json"}
    assert tables and set(os.listdir(out3)) - {"manifest.json"} == tables
    for fname in tables:
        assert read_bytes(os.path.join(out1, fname)) == read_bytes(os.path.join(out2, fname))
        assert read_bytes(os.path.join(out1, fname)) == read_bytes(os.path.join(out3, fname))


def test_simulate_requires_molecule(runner, tmp_path):
    res = runner.invoke(main, ["simulate", "--out", str(tmp_path / "x")])
    assert res.exit_code == 2


def test_simulate_rejects_unknown_molecule(runner, tmp_path):
    res = runner.invoke(
        main, ["simulate", "-m", "coronene", "--out", str(tmp_path / "x")]
    )
    assert res.exit_code == 2
    assert "configuration error" in res.output


def test_simulate_rejects_bad_grid(runner, tmp_path):
    res = runner.invoke(
        main,
        ["simulate", "-m", "benzene", "--t-max", "-5", "--out", str(tmp_path / "x")],
    )
    assert res.exit_code == 2


SIMULATE_BENZENE = ["simulate", "-m", "benzene"]
STABILITY_PAIR = ["stability", "-m", "benzene", "-m", "naphthalene"]


@pytest.mark.parametrize("argv, dt, message", [
    # 2e302 samples, refused by the ceiling; code without it would still
    # fail before allocating, in numpy's size check, so these runs are safe
    pytest.param(SIMULATE_BENZENE, "1e-300", "above the limit of 10000000", id="argv0"),
    pytest.param(STABILITY_PAIR, "1e-300", "above the limit of 10000000", id="argv1"),
    # an infinite step would put NaN on the grid and in every CSV
    pytest.param(SIMULATE_BENZENE, "inf", "dt must be finite", id="simulate-dt-inf"),
    pytest.param(STABILITY_PAIR, "inf", "dt must be finite", id="stability-dt-inf"),
])
def test_rejects_grid_above_sample_ceiling(runner, tmp_path, argv, dt, message):
    res = runner.invoke(main, [*argv, "--dt", dt, "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert "configuration error" in res.output
    assert message in res.output
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("argv", [
    # finite H, but t * lam overflows: every mean was nan with exit 0
    ["simulate", "-m", "benzene", "--gamma-scale", "1e306"],
    # gamma_scale * laplacian overflows to inf
    ["simulate", "-m", "benzene", "--gamma-scale", "1e308"],
    # a finite 10001-sample grid whose last t * lam overflows
    ["simulate", "-m", "benzene", "--t-max", "1e308", "--dt", "1e304"],
    ["stability", "-m", "benzene", "-m", "naphthalene", "--gamma-scale", "1e306"],
    ["stability", "-m", "benzene", "-m", "naphthalene", "--gamma-scale", "1e308"],
    # only the second molecule's Hamiltonian overflows; benzene is not evolved first
    ["stability", "-m", "benzene", "-m", "HEAVY", "--gamma-scale", "100"],
], ids=["simulate-phase", "simulate-scale", "simulate-grid", "stability-phase",
        "stability-scale", "stability-second-scale"])
def test_overflowing_walk_exits_2_before_any_block(runner, tmp_path, monkeypatch, argv):
    def no_block(*args):
        raise AssertionError("a block was evolved")

    monkeypatch.setattr(ctqw, "_unitaries", no_block)
    heavy = tmp_path / "heavy.yaml"
    heavy.write_text("name: heavy\nnodes: 3\nedges:\n  - [1, 2, 1.0e+307]\n"
                     "  - [2, 3, 1.0e+307]\n")
    argv = [str(heavy) if a == "HEAVY" else a for a in argv]
    out = tmp_path / "x"
    res = runner.invoke(main, [*argv, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "configuration error" in res.output
    assert not os.path.exists(out)


def test_simulate_rejects_infinite_weight(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("name: bad\nnodes: 3\nedges:\n  - [1, 2, .inf]\n  - [2, 3, 1.5]\n")
    out = tmp_path / "x"
    res = runner.invoke(
        main, ["simulate", "-m", str(path), "--t-max", "1", "--out", str(out)]
    )
    assert res.exit_code == 2
    assert "finite" in res.output
    assert not os.path.exists(out / "site_series.csv")


@pytest.mark.parametrize("command", ["simulate", "rank"])
def test_csv_breaking_name_exits_2(runner, tmp_path, command):
    path = tmp_path / "bad.yaml"
    path.write_text('name: "al,lyl"\nnodes: 3\nedges:\n  - [1, 2, 1.5]\n'
                    '  - [2, 3, 1.5]\nlabels: [Ca, "C,b", Cc]\n')
    out = tmp_path / "x"
    res = runner.invoke(main, [command, "-m", str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "configuration error" in res.output
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [["rank", "--steps", "1"], ["simulate", "--t-max", "0.01"],
                                  ["export-graph"]])
def test_molecule_over_node_ceiling_exits_2(runner, tmp_path, argv):
    n = graphs.MAX_NODES + 1
    path = tmp_path / "path.yaml"
    path.write_text(f"name: path\nnodes: {n}\nedges:\n"
                    + "".join(f"  - [{k}, {k + 1}, 1.5]\n" for k in range(1, n)))
    out = tmp_path / "x"
    res = runner.invoke(main, [argv[0], "-m", str(path), *argv[1:], "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"above the limit of {graphs.MAX_NODES}" in res.output
    assert not os.path.exists(out)


def write_csv_text(header, rows):
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def unstreamed_observables(g, t_max, dt):
    """The arithmetic simulate and stability used before streaming: B(t)
    from one product of the eigenvector pairs Q[j, l] Q[k, l] with the
    phases over the whole grid, MAXP/TRP series one site column at a time,
    and report means from the all-site reduction."""
    p = aw.propagator(aw.hamiltonian(g))
    times = np.arange(int(np.floor(t_max / dt + 1e-9)) + 1) * dt
    Q, n = p.eigenvectors, g.node_count
    phases = np.exp(-1j * np.outer(times, p.eigenvalues))
    pairs = np.array([np.outer(Q[:, l], Q[:, l]).ravel() for l in range(n)])
    B = np.abs((pairs.T @ phases.T).reshape(n, n, len(times)).transpose(2, 0, 1)) ** 2
    columns = []
    for k in range(n):
        col = B[:, :, k]
        columns.append((np.clip(col.max(axis=1), 0.0, 1.0), np.clip(
            (col.sum(axis=1) - col.max(axis=1) - col.min(axis=1)) / (n - 2), 0.0, 1.0)))
    mp_all = np.clip(B.max(axis=1), 0.0, 1.0)
    tp_all = np.clip((B.sum(axis=1) - B.max(axis=1) - B.min(axis=1)) / (n - 2), 0.0, 1.0)
    return times, columns, mp_all, tp_all


@pytest.mark.parametrize("molecule", ["anthracene", "percent"])
def test_simulate_bytes_match_unstreamed_rows(runner, tmp_path, molecule):
    if molecule == "percent":
        # a '%' in the name must reach the CSV verbatim
        g0 = aw.load_molecule("naphthalene")
        edges = "".join(f"  - [{i}, {j}, {w!r}]\n" for i, j, w in g0.edges)
        molecule = str(tmp_path / "percent.yaml")
        Path(molecule).write_text(f"name: 50%s-ring\nnodes: 10\nedges:\n{edges}")
    out = str(tmp_path / "run")
    res = runner.invoke(
        main, ["simulate", "-m", molecule, "--t-max", "5", "--dt", "0.01", "--out", out]
    )
    assert res.exit_code == 0, res.output
    g = aw.load_molecule(molecule)
    times, columns, mp_all, tp_all = unstreamed_observables(g, 5.0, 0.01)
    rows = [(g.name, str(k), g12(t), g12(mp), g12(tp))
            for k, (mp_col, tp_col) in enumerate(columns, start=1)
            for t, mp, tp in zip(times, mp_col, tp_col)]
    assert read_bytes(os.path.join(out, "site_series.csv")) == write_csv_text(
        ("molecule", "node", "t", "maxp", "trp"), rows)
    classes = {m: g.labels[c[0] - 1] for c in g.classes for m in c}
    report = [(g.name, str(k), classes[k], g12(mp), g12(tp))
              for k, mp, tp in zip(range(1, g.node_count + 1),
                                   mp_all.mean(axis=0), tp_all.mean(axis=0))]
    assert read_bytes(os.path.join(out, "site_report.csv")) == write_csv_text(
        ("molecule", "node", "class", "maxp_mean", "trp_mean"), report)


def test_simulate_memory_grows_by_less_than_1kb_per_sample(tmp_path):
    # 10000 more samples on anthracene. The observables take 16 * 14 = 224
    # bytes per sample; one node's rows of text add a few hundred more.
    # Joining every node's rows into one string measured 1724 bytes per
    # sample; streaming them node by node measured 232.
    def peak(t_max):
        tracemalloc.start()
        try:
            main(["simulate", "-m", "anthracene", "--t-max", t_max,
                  "--out", str(tmp_path / t_max)], standalone_mode=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak("200") - peak("100") < 10000 * 1024


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("previous\n")

    def chunks():
        yield "a,b\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _atomic_write(str(path), chunks())
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["table.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_honour_umask(runner, tmp_path, umask, mode):
    commands = [["simulate", "-m", "benzene", "--t-max", "1", "--dt", "0.5"],
                ["rank", "-m", "benzene", "--steps", "10"],
                ["stability", "-m", "benzene", "-m", "naphthalene", "--t-max", "1"],
                ["export-graph", "-m", "benzene"]]
    previous = os.umask(umask)
    try:
        for argv in commands:
            res = runner.invoke(main, [*argv, "--out", str(tmp_path / argv[0])])
            assert res.exit_code == 0, res.output
    finally:
        os.umask(previous)
    modes = {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
             for p in tmp_path.glob("*/*")}
    assert len(modes) == 9
    assert modes == dict.fromkeys(modes, oct(mode))


def test_readme_molecule_file_simulates(runner, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    out = str(tmp_path / "run")
    res = runner.invoke(
        main, ["simulate", "-m", str(path), "--t-max", "1", "--dt", "0.5", "--out", out]
    )
    assert res.exit_code == 0, res.output
    nodes = aw.load_molecule(str(path)).node_count
    assert nodes >= 3
    assert len(read_csv(os.path.join(out, "site_series.csv"))) == 1 + 3 * nodes


def test_out_env_var(runner, tmp_path):
    out = str(tmp_path / "envrun")
    res = runner.invoke(
        main,
        ["simulate", "-m", "benzene", "--t-max", "1", "--dt", "0.5"],
        env={"ARENEWALK_OUT": out},
    )
    assert res.exit_code == 0, res.output
    assert os.path.exists(os.path.join(out, "site_series.csv"))


# ---------------------------------------------------------------- rank

def test_rank_benzene_single_class(runner, tmp_path):
    out = str(tmp_path / "rank")
    res = runner.invoke(main, ["rank", "-m", "benzene", "--out", out])
    assert res.exit_code == 0, res.output
    rows = read_csv(os.path.join(out, "ranks.csv"))
    assert rows[0] == ["node", "label", "score", "rank"]
    assert len(rows) == 7
    assert {r[3] for r in rows[1:]} == {"1"}


def test_rank_start_within_class_identical_output(runner, tmp_path):
    out1, out5 = str(tmp_path / "s1"), str(tmp_path / "s5")
    assert runner.invoke(
        main, ["rank", "-m", "benzene", "--start", "1", "--out", out1]
    ).exit_code == 0
    assert runner.invoke(
        main, ["rank", "-m", "benzene", "--start", "5", "--out", out5]
    ).exit_code == 0
    assert read_bytes(os.path.join(out1, "ranks.csv")) == read_bytes(
        os.path.join(out5, "ranks.csv")
    )


def test_rank_rejects_fractional_class_member(runner, tmp_path):
    # int() would read 2.7 as node 2 and pool nodes 1 and 2
    path = tmp_path / "bad.yaml"
    path.write_text("name: allyl\nnodes: 3\nedges:\n  - [1, 2, 1.5]\n  - [2, 3, 1.2]\n"
                    "classes: [[1, 2.7], [3]]\n")
    out = tmp_path / "x"
    res = runner.invoke(main, ["rank", "-m", str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "non-integer" in res.output
    assert not os.path.exists(out)


CHAIN = "edges: [[1, 2, 1.5], [2, 3, 1.5]]"


@pytest.mark.parametrize("name, field", [
    pytest.param("allyl", "edges: [5, [2, 3, 1.0]]", id="scalar-edge"),
    pytest.param("allyl", "edges: [[1, 2, true], [2, 3, 1.5]]", id="bool-weight"),
    pytest.param("allyl", f"{CHAIN}\nclasses: 5", id="scalar-classes"),
    pytest.param("5", CHAIN, id="numeric-name"),
    pytest.param("allyl", f"{CHAIN}\nlabels: [1, 2, 3]", id="numeric-labels"),
    pytest.param("allyl", f"{CHAIN}\nlabels: [{{a: 1}}, b, c]", id="mapping-label"),
    pytest.param("allyl", "edges: [[1, 2, 1.5]", id="unclosed-flow-sequence"),
    pytest.param("allyl", f"\t{CHAIN}", id="tab-indented-key"),
    pytest.param("allyl", 'edges: !!python/object/apply:os.system ["true"]', id="python-tag"),
    pytest.param("allyl", f"{CHAIN}\nclases: [[1, 3], [2]]", id="misspelt-classes"),
    pytest.param("allyl", f"{CHAIN}\n7: x", id="integer-key"),
    pytest.param("allyl", f"{CHAIN}\nclasses: [[1, 3], [2]]\nclasses: [[1], [2], [3]]",
                 id="repeated-classes"),
    pytest.param("allyl", f"edges: [[1, 2, 1.5]]\n{CHAIN}", id="repeated-edges"),
])
def test_rank_rejects_malformed_molecule_file(runner, tmp_path, name, field):
    # each of these ended in a TypeError traceback, was read as weight 1.0,
    # or had its name or labels turned into strings by str(); the last three
    # are invalid or unsafe YAML, and libyaml words its errors differently from
    # PyYAML's own parser, so only the exit code and the prefix are matched
    path = tmp_path / "bad.yaml"
    path.write_text(f"name: {name}\nnodes: 3\n{field}\n")
    out = tmp_path / "x"
    res = runner.invoke(main, ["rank", "-m", str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "configuration error" in res.output
    assert not os.path.exists(out)


def test_absent_classes_write_the_bytes_of_singleton_classes(runner, tmp_path):
    # a symmetric chain, so pooling C1 with C3 would show in both files
    outputs = []
    for extra in ("", "classes: [[3], [1], [2]]\n"):
        path = tmp_path / f"allyl{len(outputs)}.yaml"
        path.write_text(f"name: allyl\nnodes: 3\n{CHAIN}\n{extra}")
        files = []
        for argv, fname in ((["simulate", "--t-max", "2", "--dt", "0.5"], "site_report.csv"),
                            (["rank", "--steps", "40"], "ranks.csv")):
            out = tmp_path / f"{argv[0]}{len(outputs)}"
            res = runner.invoke(main, [*argv, "-m", str(path), "--out", str(out)])
            assert res.exit_code == 0, res.output
            files.append(read_bytes(out / fname))
        outputs.append(files)
    assert outputs[0] == outputs[1]
    assert b",C1," in outputs[0][0] and b",C3," in outputs[0][0]


def test_rank_matches_library(runner, tmp_path):
    out = str(tmp_path / "rank")
    res = runner.invoke(
        main, ["rank", "-m", "naphthalene", "--steps", "500", "--out", out]
    )
    assert res.exit_code == 0, res.output
    lib = aw.rank_nodes(aw.load_molecule("naphthalene"), steps=500)
    rows = read_csv(os.path.join(out, "ranks.csv"))[1:]
    assert tuple(int(r[3]) for r in rows) == lib.ranks
    for row, score in zip(rows, lib.scores):
        npt.assert_allclose(float(row[2]), score, rtol=1e-11)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["steps"] == 500
    assert manifest["config"]["start"] == 1


def test_rank_manifest_records_resolved_steps(runner, tmp_path):
    out = str(tmp_path / "rank")
    res = runner.invoke(main, ["rank", "-m", "benzene", "--out", out])
    assert res.exit_code == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["steps"] == 10 * 6 * 6


def test_manifest_records_blas_thread_environment(runner, tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith(("OPENBLAS_", "OMP_", "MKL_")):
            monkeypatch.delenv(key)
    monkeypatch.setenv("BLAS_NUM_THREADS", "4")

    def run(name):
        out = str(tmp_path / name)
        res = runner.invoke(main, ["rank", "-m", "benzene", "--out", out])
        assert res.exit_code == 0, res.output
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        return manifest["blas_env"], Path(out, "ranks.csv").read_bytes()

    unset, csv_unset = run("unset")
    assert unset == {}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    found, csv_found = run("set")
    assert found == {"MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": "2",
                     "OPENBLAS_NUM_THREADS": "1"}
    assert csv_found == csv_unset


def test_manifest_records_blas_build(runner, tmp_path, monkeypatch):
    def run(name):
        out = str(tmp_path / name)
        res = runner.invoke(main, ["rank", "-m", "benzene", "--out", out])
        assert res.exit_code == 0, res.output
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        return manifest["blas_build"], Path(out, "ranks.csv").read_bytes()

    found, csv_found = run("found")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        assert found is None
    else:
        assert found["name"] == blas["name"] and found["version"] == blas.get("version")
        assert set(found) == {"name", "version", "configuration"}

    # numpy before 1.26 has a show_config without mode: the key stays, as null
    monkeypatch.setattr(np, "show_config", lambda: None)
    missing, csv_missing = run("missing")
    assert missing is None
    assert csv_missing == csv_found


def test_rank_weighted_coin_flag(runner, tmp_path):
    out = str(tmp_path / "rank")
    res = runner.invoke(
        main,
        ["rank", "-m", "phenanthrene", "--coin-degree", "weighted", "--out", out],
    )
    assert res.exit_code == 0, res.output
    rows = read_csv(os.path.join(out, "ranks.csv"))[1:]
    top = {int(r[0]) for r in rows if r[3] == "1"}
    assert top == {11, 12}


def complex_ranking(g, start, coin):
    """Pooled scores and ranks per node from the walk as it ran before
    amplitudes became real: complex128 stay/move through an inline
    coin-and-route loop."""
    ref = reference_layout(g, coin)
    n = g.node_count
    stay = np.zeros(ref.node_of.size, dtype=complex)
    move = np.zeros(ref.node_of.size, dtype=complex)
    d = ref.deg[start - 1]
    stay[ref.first[start - 1]:ref.first[start - 1] + d] = 1.0 / np.sqrt(d)
    occ = np.zeros(n)
    for _ in range(10 * n * n):
        c = ref.a * stay + ref.b * move
        m = ref.b * stay - ref.a * move
        stay = np.empty_like(c)
        move = np.empty_like(m)
        stay[ref.cyc_next] = c
        move[ref.cross] = m
        occ += np.bincount(ref.node_of, weights=np.abs(stay) ** 2 + np.abs(move) ** 2,
                           minlength=n)
    class_scores = np.array([occ[[m - 1 for m in cls]].mean() for cls in g.classes])
    scores, ranks = [0.0] * n, [0] * n
    for cls, cs, cr in zip(g.classes, class_scores, metrics._dense_ranks(class_scores)):
        for member in cls:
            scores[member - 1], ranks[member - 1] = float(cs), int(cr)
    return tuple(scores), tuple(ranks)


@pytest.mark.parametrize("coin", ["unweighted", "weighted"])
@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_rank_bytes_match_complex_walk(runner, tmp_path, molecule, coin):
    g = aw.load_molecule(molecule)
    for start in (1, g.node_count // 2, g.node_count):
        scores, ranks = complex_ranking(g, start, coin)
        # the real walk reproduces every bit of the scores, not only 12 digits
        assert aw.rank_nodes(g, start=start, coin=coin).scores == scores
        out = str(tmp_path / f"s{start}")
        res = runner.invoke(main, ["rank", "-m", molecule, "--coin-degree", coin,
                                   "--start", str(start), "--out", out])
        assert res.exit_code == 0, res.output
        rows = [(str(k), g.labels[k - 1], g12(scores[k - 1]), str(ranks[k - 1]))
                for k in range(1, g.node_count + 1)]
        assert read_bytes(os.path.join(out, "ranks.csv")) == write_csv_text(
            ("node", "label", "score", "rank"), rows)


MISSING = object()


def replay_malformed(runner, tmp_path, argv, key, value):
    """Run argv, set (or with MISSING delete) one key of its manifest's
    config and replay that; returns the replay's result and output dir."""
    out = str(tmp_path / "run")
    res = runner.invoke(main, [*argv, "--out", out])
    assert res.exit_code == 0, res.output
    path = os.path.join(out, "manifest.json")
    doc = json.load(open(path))
    if value is MISSING:
        del doc["config"][key]
    else:
        doc["config"][key] = value
    Path(path).write_text(json.dumps(doc))
    replay = str(tmp_path / "replay")
    return runner.invoke(main, [argv[0], "--from-manifest", path, "--out", replay]), replay


@pytest.mark.parametrize("key, value", [
    ("start", "3"), ("start", 2.0), ("steps", True), ("molecule", 5),
    pytest.param("start", MISSING, id="start-missing"),
    pytest.param("coin_degree", MISSING, id="coin_degree-missing"),
])
def test_rank_replay_rejects_malformed_config(runner, tmp_path, key, value):
    res, replay = replay_malformed(runner, tmp_path, ["rank", "-m", "benzene"], key, value)
    assert res.exit_code == 2, res.output
    assert "configuration error:" in res.output
    assert not os.path.exists(os.path.join(replay, "ranks.csv"))


CTQW_ARGV = {
    "simulate": ["simulate", "-m", "benzene", "--t-max", "1", "--dt", "0.5"],
    "stability": ["stability", "-m", "benzene", "-m", "naphthalene", "--t-max", "1",
                  "--dt", "0.5"],
}


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "t_max", "5"), ("simulate", "t_max", True), ("simulate", "dt", "0.5"),
    ("simulate", "dt", None), ("simulate", "gamma_scale", True),
    ("simulate", "gamma_scale", [1.0]), ("simulate", "molecule", 5),
    ("simulate", "molecule", ["benzene"]),
    pytest.param("simulate", "t_max", MISSING, id="simulate-t_max-missing"),
    ("stability", "t_max", "5"), ("stability", "dt", True),
    ("stability", "gamma_scale", True), ("stability", "gamma_scale", "2"),
    ("stability", "molecules", "benzene,naphthalene"),
    ("stability", "molecules", ["benzene", 6]),
    ("stability", "molecules", {"benzene": 1, "naphthalene": 2}),
    pytest.param("stability", "dt", MISSING, id="stability-dt-missing"),
])
def test_ctqw_replay_rejects_malformed_config(runner, tmp_path, command, key, value):
    res, replay = replay_malformed(runner, tmp_path, CTQW_ARGV[command], key, value)
    assert res.exit_code == 2, res.output
    assert "configuration error:" in res.output
    assert not os.path.exists(replay)


REPLAY_ARGV = {**CTQW_ARGV, "rank": ["rank", "-m", "benzene", "--steps", "50"]}


@pytest.mark.parametrize("command, options", [
    ("simulate", ["--t-max", "5", "--gamma-scale", "3"]),
    # an option given at its default value is still given
    ("simulate", ["--dt", "0.01"]),
    ("rank", ["--start", "2"]),
    ("stability", ["-m", "anthracene"]),
])
def test_replay_rejects_explicit_options(runner, tmp_path, command, options):
    # these were ignored without a word and the recorded grid rerun
    out = str(tmp_path / "run")
    assert runner.invoke(main, [*REPLAY_ARGV[command], "--out", out]).exit_code == 0
    replay = str(tmp_path / "replay")
    res = runner.invoke(main, [command, "--from-manifest", os.path.join(out, "manifest.json"),
                               *options, "--out", replay])
    assert res.exit_code == 2, res.output
    for flag in options[::2]:
        assert {"-m": "--molecule"}.get(flag, flag) in res.output
    assert not os.path.exists(replay)


@pytest.mark.parametrize("command", ["simulate", "rank", "stability"])
def test_replay_rejects_unknown_config_key(runner, tmp_path, command):
    res, replay = replay_malformed(runner, tmp_path, REPLAY_ARGV[command], "bogus", 1)
    assert res.exit_code == 2, res.output
    assert "configuration error:" in res.output and "bogus" in res.output
    assert not os.path.exists(replay)


@pytest.mark.parametrize("command", ["simulate", "rank", "stability"])
def test_replay_takes_out_from_option_or_environment(runner, tmp_path, command):
    out = str(tmp_path / "run")
    assert runner.invoke(main, [*REPLAY_ARGV[command], "--out", out]).exit_code == 0
    manifest = os.path.join(out, "manifest.json")
    by_option, by_env = str(tmp_path / "option"), str(tmp_path / "env")
    res = runner.invoke(main, [command, "--from-manifest", manifest, "--out", by_option])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [command, "--from-manifest", manifest],
                        env={"ARENEWALK_OUT": by_env})
    assert res.exit_code == 0, res.output
    tables = set(os.listdir(out)) - {"manifest.json"}
    assert tables
    for fname in tables:
        want = read_bytes(os.path.join(out, fname))
        assert read_bytes(os.path.join(by_option, fname)) == want
        assert read_bytes(os.path.join(by_env, fname)) == want


@pytest.mark.parametrize("command", ["simulate", "rank", "stability"])
@pytest.mark.parametrize("document", ["[1, 2]", '"simulate"', "null"])
def test_replay_rejects_non_object_manifest(runner, tmp_path, command, document):
    # these raised AttributeError on .get and exited 1
    path = tmp_path / "manifest.json"
    path.write_text(document)
    out = tmp_path / "replay"
    res = runner.invoke(main, [command, "--from-manifest", str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "expected a JSON object" in res.output
    assert not os.path.exists(out)


# ---------------------------------------------------------------- stability

def test_stability_orders_molecules(runner, tmp_path):
    out = str(tmp_path / "stab")
    res = runner.invoke(
        main,
        ["stability", "-m", "benzene", "-m", "anthracene",
         "--t-max", "5", "--dt", "0.1", "--out", out],
    )
    assert res.exit_code == 0, res.output
    assert "benzene > anthracene" in res.output
    rows = read_csv(os.path.join(out, "stability.csv"))
    assert rows[0] == ["molecule", "mean_trp", "rank"]
    assert rows[1][0] == "benzene" and rows[1][2] == "1"
    assert rows[2][0] == "anthracene" and rows[2][2] == "2"


def test_stability_bytes_match_unstreamed(runner, tmp_path):
    out = str(tmp_path / "stab")
    res = runner.invoke(main, ["stability", *[a for m in aw.CATALOG for a in ("-m", m)],
                               "--t-max", "5", "--dt", "0.01", "--out", out])
    assert res.exit_code == 0, res.output
    entries = []
    for name in aw.CATALOG:
        tp_all = unstreamed_observables(aw.load_molecule(name), 5.0, 0.01)[3]
        entries.append(aw.StabilityEntry(molecule=name, mean_trp=float(tp_all.mean()),
                                         t_max=5.0, dt=0.01))
    rows = [(r.molecule, g12(r.mean_trp), str(r.rank))
            for r in aw.stability_order(entries).rows]
    assert read_bytes(os.path.join(out, "stability.csv")) == write_csv_text(
        ("molecule", "mean_trp", "rank"), rows)


def test_stability_holds_one_molecules_observables(tmp_path):
    # MAXP and TRP of the largest molecule, 16 * N bytes per sample, plus
    # one block and 1 MiB for the rest; a second molecule's observables
    # would not fit
    samples = len(ctqw._grid(200.0, 0.01))
    largest = max(aw.load_molecule(name).node_count for name in aw.CATALOG)
    tracemalloc.start()
    try:
        main(["stability", *[a for m in aw.CATALOG for a in ("-m", m)],
              "--out", str(tmp_path)], standalone_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * largest * samples + ctqw.BLOCK_BYTES + (1 << 20)


@pytest.mark.parametrize("second", ["benzene", "catalog-name-file"])
def test_stability_rejects_repeated_molecule(runner, tmp_path, monkeypatch, second):
    # the repeat is caught before any molecule is evolved
    def no_evolution(*args, **kwargs):
        raise AssertionError("observe called before the repeat check")

    monkeypatch.setattr(metrics, "observe", no_evolution)
    if second == "catalog-name-file":
        # a file whose name: repeats a catalog molecule's name
        second = str(tmp_path / "ring.yaml")
        Path(second).write_text("name: benzene\nnodes: 3\n" + CHAIN + "\n")
    out = tmp_path / "x"
    res = runner.invoke(main, ["stability", "-m", "benzene", "-m", second,
                               "--t-max", "1", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "more than once" in res.output
    assert not os.path.exists(out)


def test_stability_help_describes_grid(runner):
    res = runner.invoke(main, ["stability", "--help"])
    assert res.exit_code == 0
    assert "Last sampled time." in res.output
    assert "Sampling interval." in res.output


def test_stability_needs_two_molecules(runner, tmp_path):
    res = runner.invoke(
        main,
        ["stability", "-m", "benzene", "--t-max", "5", "--dt", "0.1",
         "--out", str(tmp_path / "x")],
    )
    assert res.exit_code == 2


# ---------------------------------------------------------------- bond-order

def test_bond_order_prints_six_decimals(runner):
    res = runner.invoke(main, ["bond-order", "0"])
    assert res.exit_code == 0
    assert res.output.strip() == "0.000000"
    res = runner.invoke(main, ["bond-order", "4.0313"])
    assert res.exit_code == 0
    assert abs(float(res.output) - 1.0) < 1e-3


def test_bond_order_rejects_negative(runner):
    res = runner.invoke(main, ["bond-order", "--", "-2.0"])
    assert res.exit_code == 2
    assert "configuration error" in res.output


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_bond_order_rejects_non_finite(runner, k):
    # printed nan and inf with exit 0
    res = runner.invoke(main, ["bond-order", "--", k])
    assert res.exit_code == 2, res.output
    assert "finite real number" in res.output


# ---------------------------------------------------------------- export-graph

def test_export_graph_round_trip(runner, tmp_path):
    out = str(tmp_path / "graph")
    res = runner.invoke(main, ["export-graph", "-m", "naphthalene", "--out", out])
    assert res.exit_code == 0, res.output
    g = aw.load_molecule("naphthalene")
    rows = read_csv(os.path.join(out, "adjacency.csv"))
    assert rows[0] == ["label"] + list(g.labels)
    A = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    npt.assert_allclose(A, g.adjacency, atol=1e-12)
    rows = read_csv(os.path.join(out, "laplacian.csv"))
    L = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    npt.assert_allclose(L, aw.laplacian(g), atol=1e-12)


@pytest.mark.parametrize("molecule", [*aw.CATALOG, "long-digits"])
def test_export_graph_bytes(runner, tmp_path, molecule):
    if molecule == "long-digits":
        # catalog weights have at most 4 digits, so they would not catch a
        # writer that drops digits
        molecule = str(tmp_path / "thirds.yaml")
        Path(molecule).write_text(f"name: thirds\nnodes: 3\nedges:\n  - [1, 2, {1 / 3!r}]\n"
                                  f"  - [2, 3, {2 / 3!r}]\n")
    out = str(tmp_path / "graph")
    res = runner.invoke(main, ["export-graph", "-m", molecule, "--out", out])
    assert res.exit_code == 0, res.output
    g = aw.load_molecule(molecule)
    for fname, M in (("adjacency.csv", g.adjacency), ("laplacian.csv", aw.laplacian(g))):
        rows = [(g.labels[i], *(g12(v) for v in M[i])) for i in range(g.node_count)]
        assert read_bytes(os.path.join(out, fname)) == write_csv_text(
            ("label", *g.labels), rows)


# ---------------------------------------------------------------- exit codes

def test_computation_error_maps_to_exit_3(runner, tmp_path, monkeypatch):
    import arenewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise ComputationError("norm drifted")

    monkeypatch.setattr(cli_mod.dtqw, "rank_nodes", boom)
    res = runner.invoke(
        main, ["rank", "-m", "benzene", "--out", str(tmp_path / "x")]
    )
    assert res.exit_code == 3
    assert "computation error" in res.output


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_linalg_error_maps_to_exit_3(runner, tmp_path, monkeypatch, command):
    import arenewalk.cli as cli_mod

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh failed")

    monkeypatch.setattr(cli_mod.ctqw, "propagator", boom)
    res = runner.invoke(main, [*CTQW_ARGV[command], "--out", str(tmp_path / "x")])
    assert res.exit_code == 3
    assert "computation error" in res.output
