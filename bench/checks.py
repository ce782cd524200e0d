"""Output checks run on every benchmark invocation.

Each check reads the CSVs an invocation wrote and returns the problems it
found; it never raises for a bad output, so a failed check is counted, not
fatal. The large site series is read in blocks, so checking does not raise
the worker's peak memory above the program's own.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

BLOCK_BYTES = 1 << 20


@dataclass
class Outcome:
    """What one invocation wrote and what was wrong with it."""

    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    rows: int = 0
    bytes: int = 0


def _blocks(path, hasher):
    """Yield (header, None) then whole-line byte blocks, hashing as it reads."""
    with open(path, "rb") as fh:
        header = fh.readline()
        hasher.update(header)
        yield header
        rest = b""
        while block := fh.read(BLOCK_BYTES):
            hasher.update(block)
            block = rest + block
            cut = block.rfind(b"\n") + 1
            rest = block[cut:]
            if cut:
                yield block[:cut]
        if rest:
            yield rest


def _read_small(path, outcome):
    """Header and rows of a small CSV, recording its digest and size."""
    data = path.read_bytes()
    outcome.digests[path.name] = hashlib.sha256(data).hexdigest()
    outcome.bytes += len(data)
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    outcome.rows += max(len(rows) - 1, 0)
    return (rows[0], rows[1:]) if rows else ([], [])


def _floats(rows, col, outcome, name):
    try:
        values = np.array([float(r[col]) for r in rows])
    except (ValueError, IndexError) as exc:
        outcome.problems.append(f"{name}: unparsable value ({exc})")
        return None
    if not np.isfinite(values).all():
        outcome.problems.append(f"{name}: non-finite value")
        return None
    return values


def _ints(rows, col, outcome, name):
    try:
        return np.array([int(r[col]) for r in rows])
    except (ValueError, IndexError) as exc:
        outcome.problems.append(f"{name}: unparsable integer ({exc})")
        return None


def _dense(ranks):
    """Ranks in row order start at 1 and step by 0 or 1."""
    return ranks[0] == 1 and bool(np.isin(np.diff(ranks), (0, 1)).all())


def check_simulate(out, nodes, samples):
    """site_series.csv and site_report.csv of one molecule."""
    outcome = Outcome()
    series = out / "site_series.csv"
    report = out / "site_report.csv"
    for path in (series, report):
        if not path.is_file():
            outcome.problems.append(f"{path.name}: missing")
    if outcome.problems:
        return outcome

    hasher = hashlib.sha256()
    count = np.zeros(nodes + 1)
    sum_maxp = np.zeros(nodes + 1)
    sum_trp = np.zeros(nodes + 1)
    t0_rows = 0
    blocks = _blocks(series, hasher)
    header = next(blocks)
    outcome.bytes += len(header)
    if header != b"molecule,node,t,maxp,trp\n":
        outcome.problems.append("site_series.csv: wrong header")
    for block in blocks:
        outcome.bytes += len(block)
        try:
            a = np.loadtxt(io.StringIO(block.decode("utf-8")), delimiter=",",
                           usecols=(1, 2, 3, 4), ndmin=2)
        except ValueError as exc:
            outcome.problems.append(f"site_series.csv: unparsable block ({exc})")
            continue
        node, t, maxp, trp = a.T
        if not np.isfinite(a).all():
            outcome.problems.append("site_series.csv: non-finite value")
            continue
        k = node.astype(int)
        if (k != node).any() or k.min() < 1 or k.max() > nodes:
            outcome.problems.append("site_series.csv: node outside 1..N")
            continue
        if ((maxp < 0) | (maxp > 1) | (trp < 0) | (trp > 1)).any():
            outcome.problems.append("site_series.csv: maxp or trp outside [0, 1]")
        # B(t) is bistochastic, so some walker holds at least 1/N of each site
        if (maxp < 1.0 / nodes - 1e-12).any():
            outcome.problems.append("site_series.csv: maxp below 1/N")
        start = t == 0
        t0_rows += int(start.sum())
        if (np.abs(maxp[start] - 1) > 1e-12).any() or (np.abs(trp[start]) > 1e-12).any():
            outcome.problems.append("site_series.csv: t = 0 row is not maxp 1, trp 0")
        count += np.bincount(k, minlength=nodes + 1)
        sum_maxp += np.bincount(k, weights=maxp, minlength=nodes + 1)
        sum_trp += np.bincount(k, weights=trp, minlength=nodes + 1)
    outcome.digests[series.name] = hasher.hexdigest()
    rows = int(count.sum())
    outcome.rows += rows
    if rows != nodes * samples or (count[1:] != samples).any():
        outcome.problems.append(
            f"site_series.csv: {rows} rows, expected {nodes} nodes x {samples} samples")
    if t0_rows != nodes:
        outcome.problems.append(f"site_series.csv: {t0_rows} rows at t = 0, expected {nodes}")

    header, body = _read_small(report, outcome)
    if header != ["molecule", "node", "class", "maxp_mean", "trp_mean"]:
        outcome.problems.append("site_report.csv: wrong header")
    if len(body) != nodes:
        outcome.problems.append(f"site_report.csv: {len(body)} rows, expected {nodes}")
        return outcome
    k = _ints(body, 1, outcome, "site_report.csv")
    means = [_floats(body, c, outcome, "site_report.csv") for c in (3, 4)]
    if k is None or any(m is None for m in means):
        return outcome
    if sorted(k) != list(range(1, nodes + 1)):
        outcome.problems.append("site_report.csv: nodes are not 1..N")
        return outcome
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = (sum_maxp[k] / count[k], sum_trp[k] / count[k])
    for name, got, want in zip(("maxp_mean", "trp_mean"), means, expected):
        if not (np.abs(got - want) <= 1e-9).all():
            outcome.problems.append(f"site_report.csv: {name} differs from the series mean")
    return outcome


def check_stability(out, molecules):
    """stability.csv: one row per molecule, best first, dense ranks."""
    outcome = Outcome()
    path = out / "stability.csv"
    if not path.is_file():
        outcome.problems.append("stability.csv: missing")
        return outcome
    header, body = _read_small(path, outcome)
    if header != ["molecule", "mean_trp", "rank"]:
        outcome.problems.append("stability.csv: wrong header")
    if sorted(r[0] for r in body if r) != sorted(molecules):
        outcome.problems.append("stability.csv: rows are not one per molecule")
        return outcome
    mean = _floats(body, 1, outcome, "stability.csv")
    ranks = _ints(body, 2, outcome, "stability.csv")
    if mean is None or ranks is None:
        return outcome
    if ((mean < 0) | (mean > 1)).any():
        outcome.problems.append("stability.csv: mean_trp outside [0, 1]")
    if (np.diff(mean) > 0).any():
        outcome.problems.append("stability.csv: mean_trp not in descending order")
    if not _dense(ranks):
        outcome.problems.append("stability.csv: ranks are not dense")
    return outcome


def check_rank(out, nodes, steps):
    """ranks.csv with singleton classes: scores sum to the step count."""
    outcome = Outcome()
    path = out / "ranks.csv"
    if not path.is_file():
        outcome.problems.append("ranks.csv: missing")
        return outcome
    header, body = _read_small(path, outcome)
    if header != ["node", "label", "score", "rank"]:
        outcome.problems.append("ranks.csv: wrong header")
    if len(body) != nodes:
        outcome.problems.append(f"ranks.csv: {len(body)} rows, expected {nodes}")
        return outcome
    k = _ints(body, 0, outcome, "ranks.csv")
    score = _floats(body, 2, outcome, "ranks.csv")
    ranks = _ints(body, 3, outcome, "ranks.csv")
    if k is None or score is None or ranks is None:
        return outcome
    if sorted(k) != list(range(1, nodes + 1)):
        outcome.problems.append("ranks.csv: nodes are not 1..N")
    if (score < 0).any():
        outcome.problems.append("ranks.csv: negative score")
    # each step's occupancies sum to 1, so the scores sum to the walk length
    if not math.isclose(float(score.sum()), steps, rel_tol=1e-9):
        outcome.problems.append(f"ranks.csv: scores sum to {score.sum()!r}, not {steps}")
    order = np.argsort(ranks, kind="stable")
    if not _dense(ranks[order]):
        outcome.problems.append("ranks.csv: ranks are not dense")
    top = {r: score[ranks == r].max() for r in np.unique(ranks)}
    low = {r: score[ranks == r].min() for r in np.unique(ranks)}
    if any(top[r] >= low[r + 1] for r in top if r + 1 in low):
        outcome.problems.append("ranks.csv: ranks are not ordered by score")
    return outcome
