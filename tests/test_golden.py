"""The byte oracle: the CLI's outputs on the catalog defaults and on the
benchmark's workloads against committed golden files.

tests/golden/ holds the small tables as the CLI writes them: per molecule
site_report.csv, ranks.csv with each coin (under unweighted/ and
weighted/), adjacency.csv and laplacian.csv, and the catalog's
stability.csv. tests/golden/bench/ holds the small tables of the
benchmark's three workloads at seed 1 (bench/run.py), and of simulate at
--t-max 5 on acenes 6, 16 and 24 (26, 66 and 98 nodes): the CTQW pass cuts
the eigenvector pairs into chunks from 26 nodes, runs one thread from 65
nodes and a block of one tile from 91 nodes, and the catalog reaches none
of those. Their molecules are the files in tests/golden/acenes/, which
bench/acenes.py wrote at seed 1; they are inputs, kept as committed
whatever that script later writes. build.json holds the sha256 of each
site_series.csv (44.6 MB for the catalog, too large to commit), and the
numpy version and BLAS build (cli._blas_build) the files were made with.
Each test writes its files and compares them.

The CTQW's bits belong to a BLAS build. Under the recorded numpy and
BLAS build every file is compared byte for byte. Under another,
site_report.csv and stability.csv are compared by value: each float cell
within 2 t_max lam_max eps, since each build's phases may sit t_max
lam_max eps from the exact ones at the last time, plus one unit of the
golden cell's 12th printed digit for the rounding of each print.
site_series.csv is then not compared. ranks.csv and the export-graph tables use no BLAS,
so they stay byte for byte in both modes.

A change that moves bytes on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names the moved files, with their max abs diff, in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import arenewalk as aw
from arenewalk import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ACENES = GOLDEN / "acenes"
COINS = ("unweighted", "weighted")
T_MAX = 200.0
# the columns that carry CTQW floats, compared by value off the recorded build
VALUE_COLUMNS = {"maxp_mean", "trp_mean", "mean_trp"}
# the start node bench/run.py draws for rank-acene12 at seed 1
RANK_START = 24


def run(*argv):
    res = CliRunner().invoke(cli.main, [str(a) for a in argv])
    assert res.exit_code == 0, res.output


def write_catalog(out):
    """Run every subcommand on the catalog defaults into out. Returns the
    paths, relative to out, of the small tables and of the series."""
    tables, series = ["stability.csv"], []
    for name in aw.CATALOG:
        run("simulate", "-m", name, "--out", str(out / name))
        run("export-graph", "-m", name, "--out", str(out / name))
        tables += [f"{name}/{f}" for f in ("site_report.csv", "adjacency.csv", "laplacian.csv")]
        series.append(f"{name}/site_series.csv")
        for coin in COINS:
            run("rank", "-m", name, "--coin-degree", coin, "--out", str(out / name / coin))
            tables.append(f"{name}/{coin}/ranks.csv")
    run("stability", *(a for name in aw.CATALOG for a in ("-m", name)), "--out", str(out))
    return tables, series


def write_bench(out):
    """Run the benchmark's workloads at seed 1, and simulate at --t-max 5
    on acenes 6, 16 and 24, into out/bench. Returns the paths, relative to
    out, of the small tables and of the series."""
    def acene(n):
        return ACENES / f"acene{n}.yaml"

    run("simulate", "-m", acene(3), "--out", out / "bench/simulate-acene3")
    run("stability", *(a for n in range(1, 6) for a in ("-m", acene(n))),
        "--out", out / "bench/stability-acenes1-5")
    run("rank", "-m", acene(12), "--start", RANK_START, "--out", out / "bench/rank-acene12")
    runs = ["simulate-acene3"] + [f"acene{n}-t5" for n in (6, 16, 24)]
    for n in (6, 16, 24):
        run("simulate", "-m", acene(n), "--t-max", 5, "--out", out / f"bench/acene{n}-t5")
    tables = ["bench/stability-acenes1-5/stability.csv", "bench/rank-acene12/ranks.csv"]
    tables += [f"bench/{name}/site_report.csv" for name in runs]
    return tables, [f"bench/{name}/site_series.csv" for name in runs]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_values(got, want, atol):
    """Whether two CSV tables hold the same cells, the VALUE_COLUMNS within
    atol plus one unit of the golden cell's 12th significant digit."""
    got, want = (list(csv.reader(io.StringIO(b.decode()))) for b in (got, want))
    if len(got) != len(want) or got[0] != want[0]:
        return False
    floats = [column in VALUE_COLUMNS for column in want[0]]
    for row, ref in zip(got[1:], want[1:]):
        if len(row) != len(ref):
            return False
        for is_float, a, b in zip(floats, row, ref):
            if not is_float:
                if a != b:
                    return False
                continue
            digit = 10.0 ** (np.floor(np.log10(max(abs(float(b)), 1e-300))) - 11)
            if not abs(float(a) - float(b)) <= atol + digit:
                return False
    return True


def assert_matches_golden(out, tables, series, digests, molecules):
    """Compare the files written to out with tests/golden by the rules
    above; digests names build.json's map of site_series.csv sha256, and
    molecules the loadable molecules whose largest eigenvalue sets the
    tolerance of value mode."""
    build = json.loads((GOLDEN / "build.json").read_text(encoding="utf-8"))
    exact = np.__version__ == build["numpy"] and cli._blas_build() == build["blas_build"]
    mode = "byte mode" if exact else (
        f"value mode: numpy {np.__version__} and BLAS {cli._blas_build()} are not the "
        f"recorded numpy {build['numpy']} and BLAS {build['blas_build']}")
    print(f"golden: {mode}")
    if not exact:
        warnings.warn(f"golden outputs compared in {mode}")
    lam_max = max(aw.propagator(aw.hamiltonian(aw.load_molecule(str(name)))).eigenvalues.max()
                  for name in molecules)
    atol = 2 * T_MAX * lam_max * np.finfo(float).eps
    differing = []
    for name in tables:
        got, want = (out / name).read_bytes(), (GOLDEN / name).read_bytes()
        by_value = not exact and name.endswith(("site_report.csv", "stability.csv"))
        if not (same_values(got, want, atol) if by_value else got == want):
            differing.append(name)
    assert sorted(build[digests]) == sorted(series)
    if exact:
        differing += [name for name in series if sha256(out / name) != build[digests][name]]
    assert not differing, f"{mode}: these files differ from tests/golden: {differing}"


def test_catalog_outputs_match_golden(tmp_path):
    assert_matches_golden(tmp_path, *write_catalog(tmp_path), "site_series_sha256", aw.CATALOG)


def test_bench_outputs_match_golden(tmp_path):
    assert_matches_golden(tmp_path, *write_bench(tmp_path), "bench_site_series_sha256",
                          sorted(ACENES.glob("*.yaml")))


def regenerate():
    """Rewrite tests/golden, but for its input molecules, from the CLI's
    outputs under this numpy and BLAS."""
    build = {"numpy": np.__version__, "blas_build": cli._blas_build()}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for path in GOLDEN.iterdir():
            if path == ACENES:
                continue
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        for digests, write in (("site_series_sha256", write_catalog),
                               ("bench_site_series_sha256", write_bench)):
            tables, series = write(out)
            for name in tables:
                (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / name, GOLDEN / name)
            build[digests] = {name: sha256(out / name) for name in series}
            print(f"wrote {len(tables)} tables to {GOLDEN}", file=sys.stderr)
    (GOLDEN / "build.json").write_text(json.dumps(build, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    regenerate()
