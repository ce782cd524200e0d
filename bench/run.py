"""Benchmark of the arenewalk command line, run in-process.

    python3 bench/run.py --workload simulate-acene3 --seed 1 --seconds 33 --trace 0
    python3 bench/run.py              # every workload in turn
    python3 bench/run.py --smoke      # every workload on a tiny grid, a few seconds

Each workload generates seeded linear acenes (bench/acenes.py), writes them
as molecule files and calls `arenewalk.cli.main([...], standalone_mode=False)`
in this process: one warm-up invocation, then invocations back to back
(closed loop, one client) until --seconds have passed. Every invocation's
CSVs are checked (bench/checks.py); a failed check, a non-zero exit or an
exception counts as a failed invocation and never stops the run.

--trace 0 reports the end-to-end metrics: the median over invocations of
each invocation's wall time divided by the time of a fixed calibration
kernel timed just before and just after it (wall_calib), this process's
peak RSS and the median time a fresh interpreter takes to import
arenewalk.cli (timed before the warm-up and after the timed loop). The raw
wall time per invocation is reported beside wall_calib but not gated: a
CPU share of a shared host can change speed by 1.5x over seconds to
minutes, which moves raw medians of whole runs by more than any useful
bound, while the calibration kernel slows with it. --trace 1 alternates
untraced and traced invocations and reports per-layer self times and work
counts (bench/tracing.py).
--smoke runs every workload on a tiny grid in both modes.

Human-readable lines, CSV digests and provenance go to stdout and to
.bench_out/results/; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The program is imported from src/
of the checkout that holds this file, never from an installed copy.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import pkgutil
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import acenes
import checks
from tracing import COMPUTED_COUNTS, Tracer, public_functions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_RUNS = 13
CALIB_LOOP = 200_000
CALIB_PHASE = np.linspace(0.0, 50.0, 1 << 17)
SMOKE_T_MAX = 1.0
SMOKE_STEPS = 100
DEFAULT_T_MAX, DEFAULT_DT = 200.0, 0.01


@dataclass
class Job:
    """One workload instance: CLI arguments and the check of its outputs."""

    argv: list
    check: object  # callable(out_dir) -> checks.Outcome
    dominant: str  # the layer predicted to take most of the traced wall time


def _grid(smoke):
    t_max = SMOKE_T_MAX if smoke else DEFAULT_T_MAX
    samples = int(np.floor(t_max / DEFAULT_DT + 1e-9)) + 1
    return (["--t-max", repr(t_max)] if smoke else []), samples


def simulate_acene3(seed, smoke, inputs, out):
    n = 2 if smoke else 3
    grid, samples = _grid(smoke)
    path = acenes.write_acene(inputs, n, seed)
    return Job(["simulate", "-m", str(path), *grid, "--out", str(out)],
               lambda d: checks.check_simulate(d, 4 * n + 2, samples), "cli")


def stability_acenes1_5(seed, smoke, inputs, out):
    rings = range(1, 3 if smoke else 6)
    grid, _ = _grid(smoke)
    molecules = [a for n in rings for a in ("-m", str(acenes.write_acene(inputs, n, seed)))]
    names = [f"acene{n}" for n in rings]
    return Job(["stability", *molecules, *grid, "--out", str(out)],
               lambda d: checks.check_stability(d, names), "ctqw")


def rank_acene12(seed, smoke, inputs, out):
    n = 2 if smoke else 12
    nodes = 4 * n + 2
    steps = SMOKE_STEPS if smoke else 10 * nodes ** 2
    # stream [seed, 0] is free: acenes.acene_edges uses [seed, n] with n >= 1
    start = int(np.random.default_rng([seed, 0]).integers(1, nodes + 1))
    path = acenes.write_acene(inputs, n, seed)
    argv = ["rank", "-m", str(path), "--start", str(start), "--out", str(out)]
    if smoke:
        argv += ["--steps", str(steps)]
    return Job(argv, lambda d: checks.check_rank(d, nodes, steps), "dtqw")


# Why each workload exists, and every metric's name and unit, are in
# BENCHMARK.json at the repository root; load_spec() reads them from there.
WORKLOADS = {
    "simulate-acene3": simulate_acene3,
    "stability-acenes1-5": stability_acenes1_5,
    "rank-acene12": rank_acene12,
}


def load_spec():
    """Workload reasons and metric units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def import_program():
    """Import arenewalk.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "arenewalk" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'arenewalk'}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("arenewalk.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported {cli.__file__}, not the checkout's copy")
    return cli


def program_layers():
    """Every arenewalk module except the CLI that defines public functions."""
    import arenewalk
    modules = {m.name: importlib.import_module(f"arenewalk.{m.name}")
               for m in pkgutil.iter_modules(arenewalk.__path__) if m.name != "cli"}
    return {name: mod for name, mod in sorted(modules.items()) if public_functions(mod)}


class Runner:
    """Invokes one job repeatedly, checking every invocation's outputs."""

    def __init__(self, cli, job, out):
        self.cli, self.job, self.out = cli, job, out
        self.attempted = 0
        self.failures = []
        self.digests = None
        self.last = None

    def invoke(self):
        """One checked invocation; returns its wall time in seconds."""
        for stale in self.out.iterdir():
            stale.unlink()
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(self.job.argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # every program error is a counted failure
            code = repr(exc)
        elapsed = perf_counter() - start
        self.attempted += 1
        outcome = self.job.check(self.out)
        problems = list(outcome.problems)
        if code not in (None, 0):
            problems.insert(0, f"exit {code!r}: {sink.getvalue().strip()[-200:]}")
        if self.digests is None and not problems:
            self.digests = outcome.digests
        elif self.digests is not None and outcome.digests != self.digests:
            problems.append("output bytes differ from the run's first invocation")
        if problems:
            self.failures.append(problems)
        self.last = outcome
        return elapsed


def measure_setup(runs):
    """Seconds each of `runs` fresh interpreters takes to import arenewalk.cli."""
    code = ("import time; s = time.perf_counter(); import arenewalk.cli; "
            "print(repr(time.perf_counter() - s))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def calibrate():
    """Seconds one fixed kernel takes: a Python integer loop, then numpy
    complex exponentials, the two kinds of work the program's layers do."""
    start = perf_counter()
    total = 0
    for i in range(CALIB_LOOP):
        total += i * i
    for k in range(1, 7):
        x = np.exp(1j * k * CALIB_PHASE)
        total += float((x * x.conj()).real.sum())
    return perf_counter() - start


def timed_loop(seconds, step):
    """Call step() until `seconds` have passed, at least once."""
    began = perf_counter()
    step()
    while perf_counter() - began < seconds:
        step()


def summarize(samples):
    """Median, quartiles, count and the highest percentile with 10 samples beyond."""
    values = np.asarray(samples)
    tail = [p for p in (50, 75, 90, 95, 99) if len(values) * (100 - p) / 100 >= 10]
    return {
        "median": float(np.median(values)),
        "p25": float(np.percentile(values, 25)),
        "p75": float(np.percentile(values, 75)),
        "n": len(values),
        "tail_percentile": tail[-1] if tail else None,
        "tail_value": float(np.percentile(values, tail[-1])) if tail else None,
    }


def run_untraced(runner, seconds, setup, setup_after):
    walls, calibs = [], [calibrate()]

    def step():
        walls.append(runner.invoke())
        calibs.append(calibrate())

    timed_loop(seconds, step)
    setup = setup + measure_setup(setup_after)
    # each invocation against the mean of the calibrations on either side of it
    ratios = [w / (before + after) * 2 for w, before, after in zip(walls, calibs, calibs[1:])]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {"wall_calib": float(np.median(ratios)), "peak_rss_mb": peak_mb,
              "setup_s": float(np.median(setup)), "wall_s": float(np.median(walls))}
    detail = {"wall_calib": summarize(ratios), "wall_s": summarize(walls),
              "calib_s": summarize(calibs), "setup_s": summarize(setup),
              "wall_samples": walls, "calib_samples": calibs, "setup_samples": setup}
    return values, detail


def run_traced(runner, seconds, layers):
    plain, traced, summaries, outcomes = [], [], [], []
    tracer = Tracer(layers)

    def pair():
        plain.append(runner.invoke())
        with tracer:
            traced.append(runner.invoke())
        summaries.append(tracer.summary())
        outcomes.append(runner.last)

    timed_loop(seconds, pair)

    def med(values):
        return float(np.median(values))

    values = {
        "cli.self_s": med([w - s["inside_s"] for w, s in zip(traced, summaries)]),
        "cli.rows_written": med([o.rows for o in outcomes]),
        "cli.bytes_written": med([o.bytes for o in outcomes]),
        "trace.wall_s": med(traced),
        "trace.overhead_s": med(traced) - med(plain),
    }
    for layer in layers:
        values[f"{layer}.self_s"] = med([s["layers"][layer]["self_s"] for s in summaries])
        values[f"{layer}.calls"] = med([s["layers"][layer]["calls"] for s in summaries])
    for key in COMPUTED_COUNTS:
        values[key] = med([s["counts"].get(key, 0) for s in summaries])
    # cli.self_s is the wall time outside every layer span, so the layers' self
    # times plus cli.self_s equal the wall time when the self times add up to
    # the time spent inside the outermost spans
    closure = max(abs(sum(layer["self_s"] for layer in s["layers"].values()) - s["inside_s"])
                  for s in summaries)
    detail = {
        "traced_walls": traced, "untraced_walls": plain,
        "closure_max_abs_s": closure,
        "functions": summaries[-1]["functions"],
        # (layer, function, start, end, parent index) per traced invocation,
        # times in seconds from the invocation's first span
        "spans": [s["spans"] for s in summaries],
        "counter_errors": tracer.counter_errors,
    }
    return values, detail


def provenance(seed, out):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{lib: importlib.metadata.version(lib) for lib in ("numpy", "scipy", "click", "PyYAML")},
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_"))},
        "git_commit": commit,
        "source_sha256": _source_digest(),
        "seed": seed,
        "output_filesystem": _filesystem(out),
    }


def _source_digest():
    """sha256 over src/, naming the program's code where git is not available."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            hasher.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _filesystem(path):
    """Type of the filesystem mounted closest above `path`, from /proc/self/mounts."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_workload(cli, spec, name, seed, seconds, trace, smoke):
    work = WORK / f"{name}-{os.getpid()}"
    inputs, out = work / "in", work / "out"
    for d in (inputs, out):
        d.mkdir(parents=True, exist_ok=True)
    try:
        job = WORKLOADS[name](seed, smoke, inputs, out)
        runner = Runner(cli, job, out)
        # set-up is timed in two halves, before the warm-up and after the
        # timed loop, so that the host's slow and fast spells in a run weigh alike
        after = 0 if smoke else SETUP_RUNS // 2
        setup = [] if trace else measure_setup(1 if smoke else SETUP_RUNS - after)
        runner.invoke()  # warm-up: checked and counted, not timed
        if trace:
            values, detail = run_traced(runner, seconds, program_layers())
            units = spec["per_layer"]
        else:
            values, detail = run_untraced(runner, seconds, setup, after)
            units = spec["end_to_end"]
        prov = provenance(seed, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name, "why": spec["why"][name], "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "argv": job.argv, "result": result, "all_metrics": values,
        "detail": detail, "digests": runner.digests, "failures": runner.failures[:10],
        "predicted_dominant_layer": job.dominant, "provenance": prov,
    }
    report(record)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    (results / tag).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def report(record):
    """Human-readable lines: every metric with its unit and sample count."""
    r, d = record["result"], record["detail"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}"
          f"{' smoke' if record['smoke'] else ''}: {record['why']}")
    print(f"  failed_frac  {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} invocations, warm-up included)")
    for problems in record["failures"]:
        print(f"    failure: {'; '.join(problems)}")
    if not record["trace"]:
        for key, unit, label in (("wall_calib", "calib", "invocations"),
                                 ("wall_s", "s", "invocations, raw, not gated"),
                                 ("calib_s", "s", "calibrations, not gated"),
                                 ("setup_s", "s", "fresh interpreters")):
            s = d[key]
            tail = (f"p{s['tail_percentile']} {s['tail_value']:.6g} {unit}"
                    if s["tail_percentile"] else "no percentile has 10 samples beyond it")
            print(f"  {key:<12} median {s['median']:.6g} {unit}, quartiles {s['p25']:.6g}.."
                  f"{s['p75']:.6g}, {tail}; n={s['n']} {label}")
        print(f"  peak_rss_mb  {r['metrics']['peak_rss_mb']['value']:.6g} MB "
              f"(this process's peak, n=1)")
    else:
        values = record["all_metrics"]
        n = len(d["traced_walls"])
        for key, m in r["metrics"].items():
            note = " (computed)" if key in COMPUTED_COUNTS else ""
            print(f"  {key:<18} {m['value']:.6g} {m['unit']}{note}; median of n={n}")
        selfs = {k.split(".")[0]: v for k, v in values.items() if k.endswith(".self_s")}
        dominant = max(selfs, key=selfs.get)
        predicted = record["predicted_dominant_layer"]
        verdict = ("smoke grid, prediction not compared" if record["smoke"] else
                   "as predicted" if dominant == predicted else f"MISMATCH: predicted {predicted}")
        print(f"  dominant layer {dominant} ({selfs[dominant] / values['trace.wall_s']:.0%} "
              f"of traced wall), {verdict}")
        print(f"  layer self times + cli.self_s = traced wall per invocation, "
              f"max residual {d['closure_max_abs_s']:.3g} s")
        if d["counter_errors"]:
            print(f"  counter errors: {d['counter_errors'][:3]}")
    for fname, digest in sorted((record["digests"] or {}).items()):
        print(f"  sha256 {fname} {digest}")
    p = record["provenance"]
    print(f"  provenance: nproc {p['nproc']}, python {p['python']}, numpy {p['numpy']}, "
          f"scipy {p['scipy']}, click {p['click']}, thread env {p['thread_env'] or 'unset'}, "
          f"commit {p['git_commit']}, src sha256 {p['source_sha256'][:16]}, output fs {p['output_filesystem']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload [default: every workload in turn]")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run [default: BENCHMARK.json run_seconds]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid, both trace modes, one timed invocation by default")
    args = parser.parse_args(argv)
    cli = import_program()
    spec = load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (0, 1) if args.smoke else (args.trace,)
    seconds = args.seconds if args.seconds is not None else \
        0.0 if args.smoke else spec["run_seconds"]
    results = [run_workload(cli, spec, name, args.seed, seconds, trace, args.smoke)
               for name in names for trace in traces]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
