"""Site observables over walker-occupancy series.

MAXP(k, t) is the largest occupancy any walker has at site k and time t;
a high time mean marks localization (double-bond character). TRP(k, t)
is the mean occupancy after dropping exactly one maximum and one minimum
across walkers; a high time mean marks participation in the delocalized
cloud, and its all-site average orders molecules by stability.

SiteObservables holds both per (sample, site); one site's series is a
column of it. observe streams it from a propagator without keeping B(t),
and the site reports read it. stability_entry streams its own pass for
the TRP array alone; detect_period reads only the spectrum.
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
    class_id: str


def _check_walkers(n):
    """Raise ValueError unless n >= 3: TRP drops one max and one min of
    the n walkers and averages the rest."""
    if n < 3:
        raise ValueError(f"TRP needs at least 3 walkers, got {n}")


def site_observables(mats):
    """MAXP and TRP per (sample, site) of occupancy matrices shaped
    (samples, walkers, sites): the max over walkers, and the walker mean
    after dropping one max and one min. Both arrays are (samples, sites)."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[1]
    _check_walkers(n)
    # ufuncs called directly, each result written in place: fewer Python
    # calls and allocations per block, so evolve's threads trade the GIL
    # less often
    top = np.maximum.reduce(mats, axis=1)
    trimmed = np.add.reduce(mats, axis=1)
    np.subtract(trimmed, top, out=trimmed)
    np.subtract(trimmed, np.minimum.reduce(mats, axis=1), out=trimmed)
    np.divide(trimmed, n - 2, out=trimmed)
    # clip absorbs 1e-16-scale roundoff; the exact values lie in [0, 1]
    np.clip(top, 0.0, 1.0, out=top)
    np.clip(trimmed, 0.0, 1.0, out=trimmed)
    return top, trimmed


def observe(p, t_max=200.0, dt=0.01):
    """SiteObservables of a propagator on the grid t = 0, dt, 2*dt, ... up
    to t_max inclusive, reduced block by block as B(t) is evolved."""
    n = len(p.eigenvalues)
    # checked here too, so that no block is evolved for a walk without TRP
    _check_walkers(n)
    times = ctqw._grid(t_max, dt, p)
    maxp, trp = np.empty((len(times), n)), np.empty((len(times), n))

    def sink(start, stop, B):
        maxp[start:stop], trp[start:stop] = site_observables(B)

    ctqw.evolve(p, times, sink)
    return SiteObservables(times, maxp, trp)


def site_reports(g, series):
    """Time-mean report per site, class-tagged by the smallest class member.
    series is the molecule's SiteObservables, one site per node of g."""
    if series.maxp.shape[1] != g.node_count:
        raise ValueError(f"series has {series.maxp.shape[1]} sites, "
                         f"molecule {g.name!r} has {g.node_count} nodes")
    if len(series.times) == 0:
        raise ValueError("empty series")
    class_of = {m: g.labels[cls[0] - 1] for cls in g.classes for m in cls}
    mp = series.maxp.mean(axis=0)
    tp = series.trp.mean(axis=0)
    return tuple(
        SiteReport(node=k, maxp_mean=float(mp[k - 1]), trp_mean=float(tp[k - 1]),
                   class_id=class_of[k])
        for k in range(1, g.node_count + 1)
    )


def detect_period(p, t_max=200.0, dt=0.01, revival_tol=1e-3):
    """Revival time of the walk of a propagator on the grid t = 0, dt,
    2*dt, ... up to t_max inclusive, or None.

    revival_tol, a finite real number > 0, bounds the phase spread s(t) =
    max_l |exp(-i (lam_l - lam_0) t) - 1|: the period is the first return
    below it after a departure above it. A walk that never departs is
    constant at this tolerance and reports the first positive sample. At a
    period max|B - I| <= 2 revival_tol, as U exp(i lam_0 t) - I has 2-norm
    s: |U_jk| <= s off the diagonal and |U_jj| >= 1 - s. Equal phases give
    B = I; they are also necessary when the generator's off-diagonal
    support is connected, as a MoleculeGraph's is.
    """
    if not (graphs._is_real(revival_tol) and 0 < revival_tol < np.inf):
        raise ValueError(f"revival_tol must be a finite number > 0, got {revival_tol!r}")
    times = ctqw._grid(t_max, dt, p)
    if len(times) < 2:
        return None
    # |exp(i x) - 1| = 2 |sin(x / 2)|; halving first keeps lam_l - lam_0 finite
    dev = np.zeros(len(times))
    for shift in p.eigenvalues[1:] / 2 - p.eigenvalues[0] / 2:
        np.maximum(dev, 2 * np.abs(np.sin(shift * times)), out=dev)
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


def stability_entry(g, p, t_max=200.0, dt=0.01):
    """Stability score for molecule g from its propagator p: TRP averaged
    over every site and sample of the grid t = 0, dt, 2*dt, ... up to t_max
    inclusive. B(t) is streamed, and only the (samples, N) TRP array is
    kept: the array observe returns as trp, with the same bits."""
    n = len(p.eigenvalues)
    if n != g.node_count:
        raise ValueError(f"propagator has {n} sites, "
                         f"molecule {g.name!r} has {g.node_count} nodes")
    _check_walkers(n)
    times = ctqw._grid(t_max, dt, p)
    trp = np.empty((len(times), n))

    def sink(start, stop, B):
        trp[start:stop] = site_observables(B)[1]

    ctqw.evolve(p, times, sink)
    return StabilityEntry(molecule=g.name, mean_trp=float(trp.mean()),
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
class _ModePattern:
    """One candidate delocalization pattern: the sites that carry a
    localized double bond under it."""

    mode_id: str
    endpoints: frozenset


_MODE_CATALOG = {
    "benzene": (
        _ModePattern("fully-delocalized", frozenset()),
    ),
    "naphthalene": (
        _ModePattern("fully-delocalized", frozenset()),
        _ModePattern("perimeter-localized", frozenset({1, 2, 3, 5, 6, 7, 8, 10})),
    ),
    "anthracene": (
        _ModePattern("central-localized-a", frozenset({4, 5, 12, 13})),
        _ModePattern("outer-localized", frozenset({1, 2, 3, 7, 8, 9, 10, 14})),
        _ModePattern("central-localized-b", frozenset({5, 6, 11, 12})),
    ),
    "phenanthrene": (
        _ModePattern("fully-delocalized", frozenset()),
        _ModePattern("outer-localized", frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14})),
        _ModePattern("bridged-biphenyl", frozenset({11, 12})),
    ),
}


@dataclass(frozen=True)
class ModeReport:
    """The high-maxp_mean sites, ascending, and the ids of the catalog
    patterns that match them best."""

    high: tuple
    matched: tuple


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
    """Pick the sites of high maxp_mean and match them against the
    molecule's candidate patterns by endpoint overlap.

    The high sites are those above the two-cluster split of the means;
    when all means agree there is no split and no high site. Ties between
    equally matching patterns keep catalog order. Molecules without
    catalog patterns get an empty match. reports is a sequence with one
    report per site.
    """
    by_node = {r.node: r.maxp_mean for r in reports}
    if len(reports) != g.node_count or sorted(by_node) != list(range(1, g.node_count + 1)):
        raise ValueError("reports must cover every site exactly once")
    values = np.array([by_node[k] for k in range(1, g.node_count + 1)])
    thr = _two_means_threshold(values)
    high = frozenset(k for k in range(1, g.node_count + 1)
                     if thr is not None and values[k - 1] > thr)
    patterns = _MODE_CATALOG.get(g.name, ())
    matched = ()
    if patterns:
        scores = [_jaccard(high, p.endpoints) for p in patterns]
        best = max(scores)
        matched = tuple(p.mode_id for p, s in zip(patterns, scores)
                        if abs(s - best) < 1e-12)
    return ModeReport(high=tuple(sorted(high)), matched=matched)
