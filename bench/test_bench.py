"""Tests of the benchmark itself: input generator, output checks, smoke run.

Run with `python3 -m pytest bench`.
"""
import subprocess
import sys
import json
from pathlib import Path

import numpy as np
import pytest

import acenes
import checks
import run

cli = run.import_program()
from arenewalk import graphs  # noqa: E402  (importable once run put src/ on the path)


def _load(tmp_path, n, seed):
    return graphs.load_molecule(str(acenes.write_acene(tmp_path, n, seed)))


@pytest.mark.parametrize("n, catalog", [(2, "naphthalene"), (3, "anthracene")])
def test_acene_matches_catalog_topology(tmp_path, n, catalog):
    generated = _load(tmp_path, n, seed=7)
    reference = graphs.load_molecule(catalog)
    assert generated.node_count == reference.node_count == 4 * n + 2
    assert len(generated.edges) == len(reference.edges) == 5 * n + 1
    assert sorted(graphs.degrees(generated)) == sorted(graphs.degrees(reference))


def test_seed_changes_weights_not_topology(tmp_path):
    a = acenes.acene_edges(4, seed=1)
    b = acenes.acene_edges(4, seed=2)
    assert [e[:2] for e in a] == [e[:2] for e in b]
    assert [e[2] for e in a] != [e[2] for e in b]
    assert acenes.acene_edges(4, seed=1) == a
    low, high = acenes.WEIGHT_RANGE
    assert all(low <= w <= high for _, _, w in a)
    # the YAML round-trips the weights exactly
    assert _load(tmp_path, 4, seed=1).edges == tuple(a)


def _run_cli(argv):
    assert cli.main(argv, standalone_mode=False) is None


def test_checks_pass_good_output_and_flag_corruption(tmp_path):
    mol = acenes.write_acene(tmp_path, 2, seed=3)
    out = tmp_path / "out"
    _run_cli(["simulate", "-m", str(mol), "--t-max", "1", "--out", str(out)])
    assert checks.check_simulate(out, 10, 101).problems == []
    series = out / "site_series.csv"
    lines = series.read_text().splitlines(keepends=True)
    lines[5] = ",".join(lines[5].split(",")[:3] + ["1.5", "0.1\n"])
    series.write_text("".join(lines))
    problems = checks.check_simulate(out, 10, 101).problems
    assert any("outside [0, 1]" in p for p in problems)
    assert any("differs from the series mean" in p for p in problems)

    _run_cli(["rank", "-m", str(mol), "--steps", "50", "--out", str(out)])
    assert checks.check_rank(out, 10, 50).problems == []
    assert any("sum to" in p for p in checks.check_rank(out, 10, 60).problems)


def test_smoke_run_is_correct():
    done = subprocess.run([sys.executable, str(Path(run.__file__)), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(run.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
