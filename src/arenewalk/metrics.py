"""Site observables over walker-occupancy series.

MAXP(k, t) is the largest occupancy any walker has at site k and time t;
a high time mean marks localization (double-bond character). TRP(k, t)
is the mean occupancy after dropping exactly one maximum and one minimum
across walkers; a high time mean marks participation in the delocalized
cloud, and its all-site average orders molecules by stability.

SiteObservables holds both per (sample, site); one site's series is a
column of it. observe streams it from a propagator without keeping B(t);
the site reports and the stability score read it, and reduce a full
EvolutionSeries to it first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ctqw, graphs

# Relative mean-TRP gap at or below which adjacent molecules share a rank.
TIE_BAND = 0.02


def _dense_ranks(values, rel_tol=1e-6):
    """Ascending dense ranks with adjacent values merged inside rel_tol: the
    tie rule of both the site ranking and the stability order."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values)[order]
    new = np.ones(len(v), dtype=bool)
    new[1:] = np.abs(np.diff(v)) > rel_tol * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    ranks = np.empty(len(v), dtype=int)
    ranks[order] = np.cumsum(new)
    return ranks


@dataclass(frozen=True, eq=False)
class SiteObservables:
    """MAXP and TRP per (sample, site) on a time grid: times is
    (samples,), maxp and trp are (samples, sites)."""

    times: np.ndarray
    maxp: np.ndarray
    trp: np.ndarray


@dataclass(frozen=True)
class SiteReport:
    """Time means for one site, tagged with its equivalence class."""

    node: int
    maxp_mean: float
    trp_mean: float
    class_id: str | None = None


def site_observables(mats):
    """MAXP and TRP per (sample, site) of occupancy matrices shaped
    (samples, walkers, sites): the max over walkers, and the walker mean
    after dropping one max and one min. Both arrays are (samples, sites)."""
    n = mats.shape[1]
    if n < 3:
        raise ValueError(f"TRP needs at least 3 walkers, got {n}")
    top = mats.max(axis=1)
    # clip absorbs 1e-16-scale roundoff; the exact values lie in [0, 1]
    trimmed = (mats.sum(axis=1) - top - mats.min(axis=1)) / (n - 2)
    return np.clip(top, 0.0, 1.0), np.clip(trimmed, 0.0, 1.0)


def observe(p, t_max=200.0, dt=0.01):
    """SiteObservables of a propagator on the grid t = 0, dt, 2*dt, ... up
    to t_max inclusive, reduced block by block as B(t) is evolved."""
    times, (mp, tp) = ctqw.evolve(p, t_max, dt, site_observables)
    return SiteObservables(times, mp, tp)


def _observables(g, series):
    """A SiteObservables as is, or the reduction of an EvolutionSeries;
    either must have one site per node of g."""
    if not isinstance(series, SiteObservables):
        series = SiteObservables(series.times, *site_observables(series.matrices))
    if series.maxp.shape[1] != g.node_count:
        raise ValueError(f"series has {series.maxp.shape[1]} sites, "
                         f"molecule {g.name!r} has {g.node_count} nodes")
    return series


def site_reports(g, series):
    """Time-mean report per site, class-tagged by the smallest class member."""
    obs = _observables(g, series)
    if len(obs.times) == 0:
        raise ValueError("empty series")
    class_of = {m: g.labels[cls[0] - 1] for cls in g.classes for m in cls}
    mp = obs.maxp.mean(axis=0)
    tp = obs.trp.mean(axis=0)
    return tuple(
        SiteReport(node=k, maxp_mean=float(mp[k - 1]), trp_mean=float(tp[k - 1]),
                   class_id=class_of[k])
        for k in range(1, g.node_count + 1)
    )


def detect_period(series, revival_tol=1e-3):
    """Revival time of an EvolutionSeries, or None.

    The series deviation from its t = 0 sample is scanned for a departure
    (first sample above revival_tol) followed by a return below it; the
    return time is the period. A series that never departs is constant at
    this tolerance and reports the first positive sample. revival_tol must
    be a finite real number > 0.
    """
    if not (graphs._is_real(revival_tol) and 0 < revival_tol < np.inf):
        raise ValueError(f"revival_tol must be a finite number > 0, got {revival_tol!r}")
    times, mats = series.times, series.matrices
    if len(times) < 2:
        return None
    dev = np.abs(mats - mats[0]).max(axis=(1, 2))
    above = np.nonzero(dev[1:] > revival_tol)[0]
    if above.size == 0:
        return float(times[1])
    depart = int(above[0]) + 1
    back = np.nonzero(dev[depart:] < revival_tol)[0]
    if back.size == 0:
        return None
    return float(times[depart + int(back[0])])


@dataclass(frozen=True)
class StabilityEntry:
    molecule: str
    mean_trp: float
    t_max: float
    dt: float


def stability_entry(g, series, t_max, dt):
    """Stability score for one molecule: TRP averaged over every site and
    sample. series must be sampled on the grid that t_max and dt define."""
    if not np.array_equal(series.times, ctqw._grid(t_max, dt)):
        raise ValueError(f"series is not sampled on the grid t_max={t_max!r}, dt={dt!r}")
    return StabilityEntry(molecule=g.name, mean_trp=float(_observables(g, series).trp.mean()),
                          t_max=float(t_max), dt=float(dt))


@dataclass(frozen=True)
class StabilityRow:
    molecule: str
    mean_trp: float
    rank: int
    tied_with_previous: bool


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple

    def order_string(self):
        parts = [self.rows[0].molecule]
        for row in self.rows[1:]:
            parts.append(" ~ " if row.tied_with_previous else " > ")
            parts.append(row.molecule)
        return "".join(parts)


def _check_unique_names(names):
    """Raise ValueError if a molecule name appears more than once."""
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"molecules listed more than once: {repeated}")


def stability_order(entries):
    """Sort molecules by mean TRP descending; near-ties share a rank.

    Adjacent entries whose relative gap is at most TIE_BAND are flagged as
    tied. All entries must share one sampling grid, no molecule name may
    appear twice, and every mean TRP must be finite.
    """
    entries = list(entries)
    if len(entries) < 2:
        raise ValueError("stability ordering needs at least 2 molecules")
    names = [e.molecule for e in entries]
    _check_unique_names(names)
    grids = {(e.t_max, e.dt) for e in entries}
    if len(grids) != 1:
        raise ValueError(f"mismatched sampling grids: {sorted(grids)}")
    scores = np.array([e.mean_trp for e in entries], dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError(f"mean TRP must be finite, got {dict(zip(names, scores.tolist()))}")
    order = np.argsort(-scores, kind="stable")
    ranks = _dense_ranks(-scores, TIE_BAND)[order]
    return StabilityReport(rows=tuple(
        StabilityRow(molecule=entries[i].molecule, mean_trp=entries[i].mean_trp,
                     rank=int(r), tied_with_previous=k > 0 and bool(r == ranks[k - 1]))
        for k, (i, r) in enumerate(zip(order, ranks))))


@dataclass(frozen=True)
class ModePattern:
    """One candidate delocalization pattern: the sites that carry a
    localized double bond under it."""

    mode_id: str
    endpoints: frozenset
    description: str


MODE_CATALOG = {
    "benzene": (
        ModePattern("fully-delocalized", frozenset(),
                    "single aromatic ring, no fixed double bonds"),
    ),
    "naphthalene": (
        ModePattern("fully-delocalized", frozenset(),
                    "delocalization spread over the whole perimeter"),
        ModePattern("perimeter-localized", frozenset({1, 2, 3, 5, 6, 7, 8, 10}),
                    "double bonds fixed at (2,3), (5,6), (7,8), (1,10); central bond single"),
    ),
    "anthracene": (
        ModePattern("central-localized-a", frozenset({4, 5, 12, 13}),
                    "double bonds at (4,5) and (12,13) flanking the middle ring"),
        ModePattern("outer-localized", frozenset({1, 2, 3, 7, 8, 9, 10, 14}),
                    "double bonds on the strong outer bonds (2,3), (7,8), (9,10), (1,14)"),
        ModePattern("central-localized-b", frozenset({5, 6, 11, 12}),
                    "double bonds at (5,6) and (11,12) flanking the middle ring"),
    ),
    "phenanthrene": (
        ModePattern("fully-delocalized", frozenset(),
                    "delocalization spread over all three rings"),
        ModePattern("outer-localized", frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14}),
                    "delocalization confined to the two outer rings"),
        ModePattern("bridged-biphenyl", frozenset({11, 12}),
                    "biphenyl-like outer rings joined through the localized (11,12) bond"),
    ),
}


@dataclass(frozen=True)
class ModeReport:
    molecule: str
    high: tuple
    low: tuple
    matched: tuple
    method: str
    threshold: float


def _two_means_threshold(values):
    """Best 1-D two-cluster split by within-cluster sum of squares.

    Returns the midpoint threshold, or None when the values are all equal
    (no meaningful split).
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v[-1] - v[0] <= 1e-9 * max(abs(v[-1]), abs(v[0]), 1e-300):
        return None
    best_ss = None
    best_thr = None
    for k in range(1, v.size):
        lo, hi = v[:k], v[k:]
        ss = float(((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum())
        if best_ss is None or ss < best_ss:
            best_ss = ss
            best_thr = (v[k - 1] + v[k]) / 2.0
    return best_thr


def _jaccard(a, b):
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def classify_modes(reports, g):
    """Split sites into high/low maxp_mean buckets and match the high set
    against the molecule's candidate patterns by endpoint overlap.

    The split is a two-cluster partition of the means; when all means
    agree the molecule-wide median is used instead (every site lands in
    the low bucket). Ties between equally matching patterns keep catalog
    order. Molecules without catalog patterns get an empty match. reports
    is a sequence with one report per site.
    """
    by_node = {r.node: r.maxp_mean for r in reports}
    if len(reports) != g.node_count or sorted(by_node) != list(range(1, g.node_count + 1)):
        raise ValueError("reports must cover every site exactly once")
    values = np.array([by_node[k] for k in range(1, g.node_count + 1)])
    thr = _two_means_threshold(values)
    if thr is None:
        # all means equal at tolerance: single bucket, nothing above the median
        thr = float(np.median(values))
        cut = thr + 1e-9 * max(abs(values).max(), 1e-300)
        method = "median"
    else:
        cut = thr
        method = "two-means"
    high = frozenset(k for k in range(1, g.node_count + 1) if values[k - 1] > cut)
    low = tuple(sorted(set(range(1, g.node_count + 1)) - high))
    patterns = MODE_CATALOG.get(g.name, ())
    matched = ()
    if patterns:
        scores = [_jaccard(high, p.endpoints) for p in patterns]
        best = max(scores)
        matched = tuple(p.mode_id for p, s in zip(patterns, scores)
                        if abs(s - best) < 1e-12)
    return ModeReport(
        molecule=g.name,
        high=tuple(sorted(high)),
        low=low,
        matched=matched,
        method=method,
        threshold=float(thr),
    )
