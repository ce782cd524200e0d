"""Occupancy metrics, revival detection, stability order, mode matching."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from conftest import connected_graphs, every_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk import ctqw, metrics
from arenewalk.graphs import MoleculeGraph
from arenewalk.metrics import _two_means_threshold


def first_columns(*cols):
    """Occupancy matrices, one per given column, each with that column
    first and zeros elsewhere."""
    n = len(cols[0])
    mats = np.zeros((len(cols), n, n))
    for t, col in enumerate(cols):
        mats[t, :, 0] = col
    return mats


# ---------------------------------------------------------------- maxp / trp

def test_maxp_simple_column():
    mp, _ = aw.metrics.site_observables(first_columns([0.2, 0.3, 0.5]))
    npt.assert_allclose(mp[:, 0], [0.5])


def test_trp_drops_one_max_one_min():
    # N = 3: drop 0.5 and 0.2, divide the remainder by N - 2
    _, tp = aw.metrics.site_observables(first_columns([0.2, 0.3, 0.5]))
    npt.assert_allclose(tp[:, 0], [0.3])


def test_uniform_column_pins_both_metrics():
    n = 5
    mp, tp = aw.metrics.site_observables(np.full((1, n, n), 1.0 / n))
    npt.assert_allclose(mp[:, 2], [1.0 / n], atol=1e-15)
    npt.assert_allclose(tp[:, 2], [1.0 / n], atol=1e-15)


def test_initial_sample_extremes(full_series):
    # at t = 0 the walker sits on its start: maxp 1, trimmed rest 0
    _, _, s = full_series["benzene"]
    npt.assert_allclose(s.maxp[0, 1], 1.0, atol=1e-15)
    npt.assert_allclose(s.trp[0, 1], 0.0, atol=1e-15)


def test_metric_bounds_and_order(full_series):
    _, _, s = full_series["naphthalene"]
    maxp, trp = s.maxp, s.trp
    for node in (1, 4, 9):
        mp = maxp[:, node - 1]
        tp = trp[:, node - 1]
        assert mp.min() >= 0.0 and mp.max() <= 1.0
        assert tp.min() >= 0.0 and tp.max() <= 1.0
        assert np.all(tp <= mp + 1e-12)
        # a column of a bistochastic matrix always has a max >= the mean
        assert mp.min() >= 1.0 / 10 - 1e-12


def test_metrics_match_brute_force(full_series):
    _, p, _ = full_series["benzene"]
    _, mats = every_matrix(p, t_max=1.99, dt=0.01)
    maxp, trp = aw.metrics.site_observables(mats)
    for node in (1, 4):
        for i in range(len(mats)):
            col = [mats[i][j, node - 1] for j in range(6)]
            npt.assert_allclose(maxp[i, node - 1], max(col), atol=1e-12)
            npt.assert_allclose(
                trp[i, node - 1], (sum(col) - max(col) - min(col)) / 4.0, atol=1e-12
            )


def assert_trp_identity(p, obs, t_max, dt, atol):
    """Every column of B(t) sums to 1, so TRP = (1 - MAXP - MIN) / (N - 2),
    with MIN the smallest occupancy of the column. obs is p's
    SiteObservables on the grid of t_max and dt."""
    _, mats = every_matrix(p, t_max, dt)
    n = mats.shape[1]
    npt.assert_allclose(obs.trp, (1.0 - obs.maxp - mats.min(axis=1)) / (n - 2),
                        rtol=0, atol=atol)


def test_trp_unitarity_identity_catalog(full_series):
    # the largest gap measured on the catalog at the default grid is 5.6e-16
    # (benzene)
    for _, p, obs in full_series.values():
        assert_trp_identity(p, obs, 200.0, 0.01, atol=1e-15)


@settings(max_examples=10, deadline=None)
@given(connected_graphs())
def test_trp_unitarity_identity_random(g):
    # the largest gap measured over 500 random graphs at t <= 5 is 1.8e-15
    p = aw.propagator(aw.hamiltonian(g))
    assert_trp_identity(p, aw.observe(p, 5.0, 0.1), 5.0, 0.1, atol=4e-15)


def test_metrics_need_three_sites():
    with pytest.raises(ValueError):
        aw.metrics.site_observables(np.eye(2)[np.newaxis])


@settings(max_examples=10, deadline=None)
@given(connected_graphs(), st.data())
def test_relabelling_permutes_observables(g, data):
    # node k becomes node perm[k - 1]; site k's series must follow it
    perm = np.array(data.draw(st.permutations(range(1, g.node_count + 1))))
    h = dataclasses.replace(g, edges=tuple(
        (int(perm[i - 1]), int(perm[j - 1]), w) for i, j, w in g.edges))
    a = aw.observe(aw.propagator(aw.hamiltonian(g)), t_max=5.0, dt=0.1)
    b = aw.observe(aw.propagator(aw.hamiltonian(h)), t_max=5.0, dt=0.1)
    npt.assert_allclose(b.maxp[:, perm - 1], a.maxp, rtol=0, atol=1e-12)
    npt.assert_allclose(b.trp[:, perm - 1], a.trp, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- reports

def test_benzene_site_means_frozen(full_series):
    g, _, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    mp = [r.maxp_mean for r in reports]
    tp = [r.trp_mean for r in reports]
    assert max(mp) - min(mp) < 1e-8
    assert max(tp) - min(tp) < 1e-8
    npt.assert_allclose(mp[0], 0.52496083, atol=1e-7)
    npt.assert_allclose(tp[0], 0.11433948, atol=1e-7)
    assert all(r.class_id == "C1" for r in reports)


def test_naphthalene_three_site_families(full_series):
    g, _, s = full_series["naphthalene"]
    reports = aw.site_reports(g, s)
    # equal means inside each symmetry class
    for cls in g.classes:
        vals = [reports[m - 1].maxp_mean for m in cls]
        assert max(vals) - min(vals) < 1e-10
    distinct = {round(r.maxp_mean, 6) for r in reports}
    assert len(distinct) == 3
    # class tags name the smallest member
    assert reports[0].class_id == "C1"
    assert reports[4 - 1].class_id == "C4"
    assert reports[9 - 1].class_id == "C4"


# ---------------------------------------------------------------- revivals

def test_benzene_revival_time(full_series):
    _, p, _ = full_series["benzene"]
    T = aw.detect_period(p)
    assert T is not None
    # the first grid sample after the exact period 2 pi / 1.468 = 4.2801
    assert abs(T - 4.28) < 1e-9
    # deviation at the detected revival really is below the tolerance
    dev = np.abs(aw.evolve_ensemble(p, T) - aw.evolve_ensemble(p, 0.0)).max()
    assert dev < 1e-3


def test_fused_molecules_never_revive(full_series):
    for name in ("naphthalene", "anthracene", "phenanthrene"):
        _, p, _ = full_series[name]
        assert aw.detect_period(p, revival_tol=0.05) is None


def test_constant_series_reports_first_sample():
    # the zero generator never moves a walker
    p = aw.propagator(np.zeros((4, 4)))
    assert aw.detect_period(p, t_max=1.0, dt=0.25) == pytest.approx(0.25)


def test_departed_series_without_return():
    # benzene's walkers leave their starts at once and first return at 4.28
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    assert aw.detect_period(p, t_max=4.0, dt=0.25) is None


def test_single_sample_has_no_period():
    # t_max < dt: the grid is t = 0 alone
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    assert aw.detect_period(p, t_max=0.5, dt=1.0) is None


# grids that are not positive, not real numbers, have non-finite phases
# on benzene or are above the sample ceiling
BAD_GRIDS = [(0.0, 0.01), (-1.0, 0.5), (1.0, 0.0), (1.0, float("inf")), (float("nan"), 0.5),
             (1.0, "0.5"), (True, 0.5), (1e308, 1e307), (1e8, 1e-3)]


@pytest.mark.parametrize("t_max, dt", BAD_GRIDS)
def test_detect_period_rejects_bad_grid(t_max, dt):
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))
    with pytest.raises(ValueError):
        aw.detect_period(p, t_max=t_max, dt=dt)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 0, True, "0.01", None])
def test_detect_period_rejects_bad_revival_tol(monkeypatch, tol):
    # nan read every sample as "never departed" and reported t = dt as the
    # period; a negative tolerance read every sample as departed and never back
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("benzene")))

    def no_grid(*args):
        raise AssertionError("read the grid before checking revival_tol")

    # rejected before the grid is built
    monkeypatch.setattr(ctqw, "_grid", no_grid)
    with pytest.raises(ValueError, match="revival_tol"):
        aw.detect_period(p, revival_tol=tol)


# K_3 at weight 1 never comes back below 1e-3 on this grid
@pytest.mark.parametrize("n, w", [(3, 1.0), (4, 1.468), (5, 1.0), (7, 1.2)])
@pytest.mark.parametrize("tol", [1e-3, 0.05])
def test_complete_graph_revival(n, w, tol):
    # K_n with weight w has the spectrum {0, n w}, so its phase spread is
    # 2 |sin(n w t / 2)|: the period is the first sample after the first
    # departure above tol where that is back below tol
    edges = tuple((i, j, w) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    p = aw.propagator(aw.hamiltonian(MoleculeGraph(name="complete", node_count=n, edges=edges)))
    times = np.arange(2001) * 0.01
    spread = 2 * np.abs(np.sin(n * w * times / 2))
    depart = 1 + np.nonzero(spread[1:] > tol)[0][0]
    back = np.nonzero(spread[depart:] < tol)[0]
    expected = times[depart + back[0]] if back.size else None
    assert aw.detect_period(p, t_max=20.0, dt=0.01, revival_tol=tol) == expected


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_revival_bounds_occupancy_deviation(g):
    # U(T) exp(i lam_0 T) - I has 2-norm s(T) <= revival_tol, so off the
    # diagonal B(T) <= s^2 and on it B(T) >= (1 - s)^2: B(T) is within
    # 2 revival_tol of I
    p = aw.propagator(aw.hamiltonian(g))
    for tol in (1e-3, 0.05, 0.3, 1.0, 1.9):
        T = aw.detect_period(p, t_max=50.0, dt=0.01, revival_tol=tol)
        if T is not None:
            assert np.abs(aw.evolve_ensemble(p, T) - np.eye(g.node_count)).max() <= 2 * tol


def test_detect_period_memory_bounded():
    # the scan keeps one phase spread per sample: it never holds a
    # (samples, N) array, which on phenanthrene's default grid takes
    # 20001 * 14 * 8 bytes = 2.24 MB (its full B(t) stack would take 31 MB)
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("phenanthrene")))
    tracemalloc.start()
    try:
        aw.detect_period(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20001 * 14 * 8


# ---------------------------------------------------------------- stability

def test_overall_mean_trp_matches_reports(full_series):
    g, p, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    got = aw.stability_entry(g, p, t_max=200.0, dt=0.01).mean_trp
    npt.assert_allclose(got, np.mean([r.trp_mean for r in reports]), atol=1e-12)


def test_stability_entry_memory_bounded_by_outputs():
    # doubling the grid adds 20000 samples, and the pass keeps 8 (N + 1)
    # bytes for each: its time and one TRP per site, 2.4 MB on phenanthrene.
    # A quarter of slack is 0.6 MB; keeping MAXP as well would add 2.24 MB,
    # and a materialised B(t) stack 31 MB
    g = aw.load_molecule("phenanthrene")
    p = aw.propagator(aw.hamiltonian(g))

    def peak(t_max):
        tracemalloc.start()
        try:
            aw.stability_entry(g, p, t_max, 0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400.0) - peak(200.0) < 1.25 * 20000 * 8 * (g.node_count + 1)


def test_stability_order_full_catalog(full_series):
    entries = [
        aw.stability_entry(g, p, t_max=200.0, dt=0.01)
        for g, p, _ in (full_series[n] for n in aw.CATALOG)
    ]
    means = {e.molecule: e.mean_trp for e in entries}
    npt.assert_allclose(means["benzene"], 0.1143394773, atol=1e-8)
    npt.assert_allclose(means["naphthalene"], 0.0826256515, atol=1e-8)
    npt.assert_allclose(means["phenanthrene"], 0.0614567693, atol=1e-8)
    npt.assert_allclose(means["anthracene"], 0.0613484041, atol=1e-8)

    report = aw.stability_order(entries)
    assert [r.molecule for r in report.rows] == [
        "benzene", "naphthalene", "phenanthrene", "anthracene",
    ]
    assert [r.rank for r in report.rows] == [1, 2, 3, 3]
    assert [r.tied_with_previous for r in report.rows] == [
        False, False, False, True,
    ]
    assert report.order_string() == "benzene > naphthalene > phenanthrene ~ anthracene"


def test_stability_zero_band_breaks_tie(full_series, monkeypatch):
    entries = [
        aw.stability_entry(g, p, t_max=200.0, dt=0.01)
        for g, p, _ in (full_series[n] for n in aw.CATALOG)
    ]
    monkeypatch.setattr(metrics, "TIE_BAND", 0.0)
    report = aw.stability_order(entries)
    assert [r.rank for r in report.rows] == [1, 2, 3, 4]


def test_stability_exact_duplicate_ties(full_series):
    g, p, _ = full_series["benzene"]
    e = aw.stability_entry(g, p, t_max=200.0, dt=0.01)
    report = aw.stability_order([e, dataclasses.replace(e, molecule="benzene-copy")])
    assert [r.rank for r in report.rows] == [1, 1]
    assert report.rows[1].tied_with_previous


def test_stability_rejects_repeated_molecule():
    a = aw.StabilityEntry(molecule="benzene", mean_trp=0.11, t_max=1.0, dt=0.5)
    b = aw.StabilityEntry(molecule="naphthalene", mean_trp=0.08, t_max=1.0, dt=0.5)
    with pytest.raises(ValueError, match=r"more than once: \['benzene'\]"):
        aw.stability_order([a, b, a])


def test_stability_requires_matching_grids(full_series):
    g, p, _ = full_series["benzene"]
    a = aw.stability_entry(g, p, t_max=200.0, dt=0.01)
    b = aw.StabilityEntry(molecule="naphthalene", mean_trp=0.08, t_max=100.0, dt=0.01)
    with pytest.raises(ValueError, match="mismatched sampling grids"):
        aw.stability_order([a, b])
    with pytest.raises(ValueError):
        aw.stability_order([a])


def test_stability_entry_equals_observe_trp_mean(full_series):
    # the streamed score is the mean of the very array observe returns as
    # trp, so stability.csv keeps its bytes
    for g, p, obs in full_series.values():
        assert aw.stability_entry(g, p, 200.0, 0.01).mean_trp == float(obs.trp.mean())


@settings(max_examples=10, deadline=None)
@given(connected_graphs())
def test_stability_entry_equals_observe_trp_mean_random(g):
    p = aw.propagator(aw.hamiltonian(g))
    for t_max, dt in ((2.0, 0.01), (0.005, 0.01)):
        entry = aw.stability_entry(g, p, t_max, dt)
        assert entry.mean_trp == float(aw.observe(p, t_max, dt).trp.mean())
        assert (entry.t_max, entry.dt) == (t_max, dt)


@pytest.mark.parametrize("t_max, dt", BAD_GRIDS)
def test_stability_entry_rejects_bad_grid(monkeypatch, t_max, dt):
    # the entry evaluates the grid it records, so a grid that evolve rejects
    # (not positive, not a real number, non-finite phases, above the sample
    # ceiling) fails before any block is evolved
    g = aw.load_molecule("benzene")
    p = aw.propagator(aw.hamiltonian(g))

    def no_block(*args):
        raise AssertionError("a block was evolved")

    monkeypatch.setattr(ctqw, "_unitaries", no_block)
    with pytest.raises(ValueError):
        aw.stability_entry(g, p, t_max=t_max, dt=dt)


def test_stability_entry_rejects_propagator_of_another_molecule(monkeypatch):
    # naphthalene's walk must not be scored as benzene's; caught before evolving
    benzene = aw.load_molecule("benzene")
    p = aw.propagator(aw.hamiltonian(aw.load_molecule("naphthalene")))

    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before the size check")

    monkeypatch.setattr(ctqw, "evolve", no_evolution)
    with pytest.raises(ValueError, match="propagator has 10 sites, molecule 'benzene' has 6"):
        aw.stability_entry(benzene, p, 2.0, 0.1)


def test_two_walkers_rejected_before_evolving(monkeypatch):
    # observe evolved a whole block before site_observables rejected it
    pair = MoleculeGraph(name="pair", node_count=2, edges=((1, 2, 1.0),))
    p = aw.propagator(aw.hamiltonian(pair))

    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before the walker check")

    monkeypatch.setattr(ctqw, "evolve", no_evolution)
    for run in (lambda: aw.observe(p, 2.0, 0.1), lambda: aw.stability_entry(pair, p, 2.0, 0.1)):
        with pytest.raises(ValueError, match="TRP needs at least 3 walkers, got 2"):
            run()


def test_readers_reject_series_of_another_molecule():
    # naphthalene's first 6 site columns were reported as benzene's sites
    benzene = aw.load_molecule("benzene")
    series = aw.observe(aw.propagator(aw.hamiltonian(aw.load_molecule("naphthalene"))), 2.0, 0.1)
    with pytest.raises(ValueError, match="series has 10 sites, molecule 'benzene' has 6"):
        aw.site_reports(benzene, series)


@pytest.mark.parametrize("bad",[float("nan"), float("inf")])
def test_stability_rejects_non_finite_mean_trp(bad):
    # neither ranking a NaN first nor tying it with its neighbour is right
    entries = [aw.StabilityEntry("a", bad, 1.0, 0.1), aw.StabilityEntry("b", 0.5, 1.0, 0.1),
               aw.StabilityEntry("c", 0.49, 1.0, 0.1)]
    with pytest.raises(ValueError, match="must be finite"):
        aw.stability_order(entries)


# ---------------------------------------------------------------- modes

def test_mode_classification_benzene(full_series):
    g, _, s = full_series["benzene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ("fully-delocalized",)
    assert rep.high == ()


def test_mode_classification_naphthalene(full_series):
    g, _, s = full_series["naphthalene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ("perimeter-localized",)


def test_mode_classification_anthracene(full_series):
    g, _, s = full_series["anthracene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.high == (5, 12)
    # (5,12) overlaps the two central patterns equally; both are reported
    assert rep.matched == ("central-localized-a", "central-localized-b")


def test_mode_classification_phenanthrene(full_series):
    g, _, s = full_series["phenanthrene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.high == (11, 12)
    assert rep.matched == ("bridged-biphenyl",)


def test_mode_buckets_partition_sites(full_series):
    for name in aw.CATALOG:
        g, _, s = full_series[name]
        rep = aw.classify_modes(aw.site_reports(g, s), g)
        assert list(rep.high) == sorted(set(rep.high))
        assert set(rep.high) <= set(range(1, g.node_count + 1))


def test_mode_classification_uncataloged_molecule():
    g = MoleculeGraph(name="triangle", node_count=3,
                      edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))
    p = aw.propagator(aw.hamiltonian(g))
    s = aw.observe(p, t_max=5.0, dt=0.1)
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ()


def test_mode_classification_requires_full_coverage(full_series):
    g, _, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    with pytest.raises(ValueError):
        aw.classify_modes(reports[:-1], g)


def test_mode_classification_rejects_repeated_site(full_series):
    # a second report for node 4 used to overwrite the first in the
    # coverage check and put node 4 alone in the high bucket
    g, _, s = full_series["naphthalene"]
    reports = aw.site_reports(g, s)
    extra = dataclasses.replace(reports[3], maxp_mean=1.0)
    for bad in (reports + (extra,), (extra,) + reports):
        with pytest.raises(ValueError, match="exactly once"):
            aw.classify_modes(bad, g)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=12,
    )
)
def test_two_means_threshold_matches_exhaustive_split(vals):
    values = np.array(vals)
    spread = values.max() - values.min()
    thr = _two_means_threshold(values)
    if spread <= 1e-9 * max(abs(values).max(), 1e-300):
        assert thr is None
        return
    # brute force: best boundary between sorted neighbors by within-group SS
    v = np.sort(values)
    best_ss, best_thr = None, None
    for cut in range(1, len(v)):
        lo, hi = v[:cut], v[cut:]
        ss = ((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum()
        if best_ss is None or ss < best_ss - 1e-15:
            best_ss, best_thr = ss, 0.5 * (v[cut - 1] + v[cut])
    lo_got = values[values <= thr]
    hi_got = values[values > thr]
    lo_want = values[values <= best_thr]
    hi_want = values[values > best_thr]
    got_ss = ((lo_got - lo_got.mean()) ** 2).sum() if lo_got.size else 0.0
    got_ss += ((hi_got - hi_got.mean()) ** 2).sum() if hi_got.size else 0.0
    assert got_ss <= best_ss + 1e-12
