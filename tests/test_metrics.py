"""Occupancy metrics, revival detection, stability order, mode matching."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from conftest import connected_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk import metrics
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
    mp, _ = aw.site_observables(first_columns([0.2, 0.3, 0.5]))
    npt.assert_allclose(mp[:, 0], [0.5])


def test_trp_drops_one_max_one_min():
    # N = 3: drop 0.5 and 0.2, divide the remainder by N - 2
    _, tp = aw.site_observables(first_columns([0.2, 0.3, 0.5]))
    npt.assert_allclose(tp[:, 0], [0.3])


def test_uniform_column_pins_both_metrics():
    n = 5
    mp, tp = aw.site_observables(np.full((1, n, n), 1.0 / n))
    npt.assert_allclose(mp[:, 2], [1.0 / n], atol=1e-15)
    npt.assert_allclose(tp[:, 2], [1.0 / n], atol=1e-15)


def test_initial_sample_extremes(full_series):
    # at t = 0 the walker sits on its start: maxp 1, trimmed rest 0
    _, s = full_series["benzene"]
    mp, tp = aw.site_observables(s.matrices[:1])
    npt.assert_allclose(mp[0, 1], 1.0, atol=1e-15)
    npt.assert_allclose(tp[0, 1], 0.0, atol=1e-15)


def test_metric_bounds_and_order(full_series):
    _, s = full_series["naphthalene"]
    maxp, trp = aw.site_observables(s.matrices)
    for node in (1, 4, 9):
        mp = maxp[:, node - 1]
        tp = trp[:, node - 1]
        assert mp.min() >= 0.0 and mp.max() <= 1.0
        assert tp.min() >= 0.0 and tp.max() <= 1.0
        assert np.all(tp <= mp + 1e-12)
        # a column of a bistochastic matrix always has a max >= the mean
        assert mp.min() >= 1.0 / 10 - 1e-12


def test_metrics_match_brute_force(full_series):
    _, s = full_series["benzene"]
    mats = s.matrices[:200]
    maxp, trp = aw.site_observables(mats)
    for node in (1, 4):
        for i in range(len(mats)):
            col = [mats[i][j, node - 1] for j in range(6)]
            npt.assert_allclose(maxp[i, node - 1], max(col), atol=1e-12)
            npt.assert_allclose(
                trp[i, node - 1], (sum(col) - max(col) - min(col)) / 4.0, atol=1e-12
            )


def test_metrics_need_three_sites():
    with pytest.raises(ValueError):
        aw.site_observables(np.eye(2)[np.newaxis])


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
    g, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    mp = [r.maxp_mean for r in reports]
    tp = [r.trp_mean for r in reports]
    assert max(mp) - min(mp) < 1e-8
    assert max(tp) - min(tp) < 1e-8
    npt.assert_allclose(mp[0], 0.52496083, atol=1e-7)
    npt.assert_allclose(tp[0], 0.11433948, atol=1e-7)
    assert all(r.class_id == "C1" for r in reports)


def test_naphthalene_three_site_families(full_series):
    g, s = full_series["naphthalene"]
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
    _, s = full_series["benzene"]
    T = aw.detect_period(s)
    assert T is not None
    assert abs(T - 4.27) < 1e-9
    # deviation at the detected revival really is below the tolerance
    i = int(round(T / 0.01))
    dev = np.abs(s.matrices[i] - s.matrices[0]).max()
    assert dev < 1e-3


def test_fused_molecules_never_revive(full_series):
    for name in ("naphthalene", "anthracene", "phenanthrene"):
        _, s = full_series[name]
        assert aw.detect_period(s, revival_tol=0.05) is None


def test_constant_series_reports_first_sample():
    p = aw.propagator(np.zeros((4, 4)))
    s = aw.time_series(p, t_max=1.0, dt=0.25)
    assert aw.detect_period(s) == pytest.approx(0.25)


def test_departed_series_without_return():
    mats = np.stack([np.eye(3), np.full((3, 3), 1.0 / 3)])
    assert aw.detect_period(aw.EvolutionSeries(np.array([0.0, 1.0]), mats)) is None


def test_single_sample_has_no_period():
    assert aw.detect_period(aw.EvolutionSeries(np.zeros(1), np.eye(3)[np.newaxis])) is None
    # an empty series raised IndexError reading its first sample
    assert aw.detect_period(aw.EvolutionSeries(np.zeros(0), np.zeros((0, 3, 3)))) is None


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 0, True, "0.01", None])
def test_detect_period_rejects_bad_revival_tol(tol):
    # nan read every sample as "never departed" and reported t = dt as the
    # period; a negative tolerance read every sample as departed and never back
    s = aw.EvolutionSeries(np.array([0.0, 0.01]), np.stack([np.eye(3), np.eye(3)]))
    with pytest.raises(ValueError, match="revival_tol"):
        aw.detect_period(s, revival_tol=tol)
    with pytest.raises(ValueError, match="revival_tol"):
        aw.detect_period(aw.EvolutionSeries(np.zeros(0), np.zeros((0, 3, 3))), revival_tol=tol)


# ---------------------------------------------------------------- stability

def test_overall_mean_trp_matches_reports(full_series):
    g, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    got = aw.stability_entry(g, s, t_max=200.0, dt=0.01).mean_trp
    npt.assert_allclose(got, np.mean([r.trp_mean for r in reports]), atol=1e-12)


def test_stability_entry_memory_bounded_by_outputs():
    # doubling the grid adds 20000 samples; the per-site outputs grow by
    # about 4.5 MB, a materialised B(t) stack would grow by 31 MB
    g = aw.load_molecule("phenanthrene")
    p = aw.propagator(aw.hamiltonian(g))

    def peak(t_max):
        tracemalloc.start()
        try:
            aw.stability_entry(g, aw.observe(p, t_max, 0.01), t_max, 0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400.0) - peak(200.0) < 20000 * g.node_count ** 2 * 8 / 2


def test_stability_order_full_catalog(full_series):
    entries = [
        aw.stability_entry(g, s, t_max=200.0, dt=0.01)
        for g, s in (full_series[n] for n in aw.CATALOG)
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
        aw.stability_entry(g, s, t_max=200.0, dt=0.01)
        for g, s in (full_series[n] for n in aw.CATALOG)
    ]
    monkeypatch.setattr(metrics, "TIE_BAND", 0.0)
    report = aw.stability_order(entries)
    assert [r.rank for r in report.rows] == [1, 2, 3, 4]


def test_stability_exact_duplicate_ties(full_series):
    g, s = full_series["benzene"]
    e = aw.stability_entry(g, s, t_max=200.0, dt=0.01)
    report = aw.stability_order([e, dataclasses.replace(e, molecule="benzene-copy")])
    assert [r.rank for r in report.rows] == [1, 1]
    assert report.rows[1].tied_with_previous


def test_stability_rejects_repeated_molecule():
    a = aw.StabilityEntry(molecule="benzene", mean_trp=0.11, t_max=1.0, dt=0.5)
    b = aw.StabilityEntry(molecule="naphthalene", mean_trp=0.08, t_max=1.0, dt=0.5)
    with pytest.raises(ValueError, match=r"more than once: \['benzene'\]"):
        aw.stability_order([a, b, a])


def test_stability_requires_matching_grids(full_series):
    g, s = full_series["benzene"]
    a = aw.stability_entry(g, s, t_max=200.0, dt=0.01)
    b = aw.StabilityEntry(molecule="naphthalene", mean_trp=0.08, t_max=100.0, dt=0.01)
    with pytest.raises(ValueError, match="mismatched sampling grids"):
        aw.stability_order([a, b])
    with pytest.raises(ValueError):
        aw.stability_order([a])


@pytest.mark.parametrize("t_max, dt", [(200.0, 0.01), (1.0, 0.25), (2.0, 0.5), (1.0, "0.5")])
def test_stability_entry_rejects_other_grid(t_max, dt):
    # a 3-sample series must not be ranked as if it covered another grid
    g = aw.load_molecule("benzene")
    obs = aw.observe(aw.propagator(aw.hamiltonian(g)), 1.0, 0.5)
    with pytest.raises(ValueError):
        aw.stability_entry(g, obs, t_max=t_max, dt=dt)


@pytest.mark.parametrize("reader", [aw.observe, aw.time_series])
def test_readers_reject_series_of_another_molecule(reader):
    # naphthalene's first 6 site columns were reported as benzene's sites
    benzene = aw.load_molecule("benzene")
    series = reader(aw.propagator(aw.hamiltonian(aw.load_molecule("naphthalene"))), 2.0, 0.1)
    with pytest.raises(ValueError, match="series has 10 sites, molecule 'benzene' has 6"):
        aw.site_reports(benzene, series)
    with pytest.raises(ValueError, match="series has 10 sites, molecule 'benzene' has 6"):
        aw.stability_entry(benzene, series, 2.0, 0.1)


@pytest.mark.parametrize("bad",[float("nan"), float("inf")])
def test_stability_rejects_non_finite_mean_trp(bad):
    # neither ranking a NaN first nor tying it with its neighbour is right
    entries = [aw.StabilityEntry("a", bad, 1.0, 0.1), aw.StabilityEntry("b", 0.5, 1.0, 0.1),
               aw.StabilityEntry("c", 0.49, 1.0, 0.1)]
    with pytest.raises(ValueError, match="must be finite"):
        aw.stability_order(entries)


# ---------------------------------------------------------------- modes

def test_mode_classification_benzene(full_series):
    g, s = full_series["benzene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ("fully-delocalized",)
    assert rep.high == ()
    assert rep.method == "median"
    assert set(rep.low) == set(range(1, 7))


def test_mode_classification_naphthalene(full_series):
    g, s = full_series["naphthalene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ("perimeter-localized",)
    assert rep.method == "two-means"


def test_mode_classification_anthracene(full_series):
    g, s = full_series["anthracene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.high == (5, 12)
    # (5,12) overlaps the two central patterns equally; both are reported
    assert rep.matched == ("central-localized-a", "central-localized-b")


def test_mode_classification_phenanthrene(full_series):
    g, s = full_series["phenanthrene"]
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.high == (11, 12)
    assert rep.matched == ("bridged-biphenyl",)


def test_mode_buckets_partition_sites(full_series):
    for name in aw.CATALOG:
        g, s = full_series[name]
        rep = aw.classify_modes(aw.site_reports(g, s), g)
        both = set(rep.high) | set(rep.low)
        assert both == set(range(1, g.node_count + 1))
        assert not set(rep.high) & set(rep.low)


def test_mode_classification_uncataloged_molecule():
    g = MoleculeGraph(name="triangle", node_count=3,
                      edges=((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))
    p = aw.propagator(aw.hamiltonian(g))
    s = aw.time_series(p, t_max=5.0, dt=0.1)
    rep = aw.classify_modes(aw.site_reports(g, s), g)
    assert rep.matched == ()


def test_mode_classification_requires_full_coverage(full_series):
    g, s = full_series["benzene"]
    reports = aw.site_reports(g, s)
    with pytest.raises(ValueError):
        aw.classify_modes(reports[:-1], g)


def test_mode_classification_rejects_repeated_site(full_series):
    # a second report for node 4 used to overwrite the first in the
    # coverage check and put node 4 alone in the high bucket
    g, s = full_series["naphthalene"]
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
