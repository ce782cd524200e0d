"""Directed discrete-time walk: coin, steps, rankings."""

import dataclasses
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from conftest import connected_graphs
from hypothesis import given, settings

import arenewalk as aw
from arenewalk import dtqw
from arenewalk.errors import ComputationError
from arenewalk.graphs import MoleculeGraph


def star(d):
    """Hub of degree d with leaf spokes."""
    return MoleculeGraph(
        name=f"star{d}",
        node_count=d + 1,
        edges=tuple((1, k, 1.0) for k in range(2, d + 2)),
    )


def reference_step(lay, stay, move):
    """Coin then route, as two arrays: the step the gather reproduces."""
    c = lay.a * stay + lay.b * move
    m = lay.b * stay - lay.a * move
    stay_new = np.empty_like(c)
    move_new = np.empty_like(m)
    stay_new[lay.cyc_next] = c
    move_new[lay.cross] = m
    return stay_new, move_new


def start_state(lay, start):
    """Stay and move amplitudes of a walker on `start`: the start node's
    slots share the stay amplitude equally."""
    stay = np.zeros(lay.nsub)
    base, d = lay.first[start - 1], lay.deg[start - 1]
    stay[base:base + d] = 1.0 / math.sqrt(d)
    return stay, np.zeros(lay.nsub)


def walk(lay, v, steps):
    """[stay | move] after `steps` steps of the walk's own step."""
    src, coef = dtqw._gather(lay)
    for _ in range(steps):
        v = dtqw._step(v, src, coef)
    return v


def reference_occupancy(g, steps, start=1, coin="unweighted"):
    """Per-node occupancy summed over `steps` steps, one bincount per step."""
    lay = dtqw._ArcLayout(g, coin)
    stay, move = start_state(lay, start)
    occ = np.zeros(g.node_count)
    for _ in range(steps):
        stay, move = reference_step(lay, stay, move)
        occ += np.bincount(lay.node_of, weights=stay**2 + move**2, minlength=g.node_count)
    return occ


# ---------------------------------------------------------------- coin

def coin_coefficients(g, node, coin="unweighted"):
    """(a, b) of the coin [[a, b], [b, -a]] at every arc slot of `node`."""
    lay = dtqw._ArcLayout(g, coin)
    slots = lay.node_of == node - 1
    return lay.a[slots], lay.b[slots]


def test_degree_coin_benzene_balanced():
    # all sites degree 2: alpha = 1 gives the balanced +-matrix
    lay = dtqw._ArcLayout(aw.load_molecule("benzene"))
    r = math.sqrt(0.5)
    npt.assert_allclose(lay.a, r, atol=1e-12)
    npt.assert_allclose(lay.b, r, atol=1e-12)


def test_degree_coin_branch_site():
    # degree 3: alpha = 1.5, stay weight sqrt(1/2.5), move weight sqrt(1.5/2.5)
    a, b = coin_coefficients(aw.load_molecule("naphthalene"), 4)
    assert a.size == 3
    npt.assert_allclose(a, math.sqrt(0.4), atol=1e-12)
    npt.assert_allclose(b, math.sqrt(0.6), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 11))
def test_degree_coin_orthogonal_all_degrees(d):
    a, b = coin_coefficients(star(d), 1)
    assert a.size == d
    npt.assert_allclose(a**2 + b**2, 1.0, atol=1e-12)
    npt.assert_allclose(b / a, math.sqrt(d / 2.0), atol=1e-12)


def test_degree_coin_weighted_kind():
    g = aw.load_molecule("naphthalene")
    a, b = coin_coefficients(g, 4, coin="weighted")
    alpha = aw.weighted_degrees(g)[3] / 2.0
    npt.assert_allclose(a, math.sqrt(1.0 / (alpha + 1.0)), atol=1e-12)
    npt.assert_allclose(b, math.sqrt(alpha / (alpha + 1.0)), atol=1e-12)
    npt.assert_allclose(a**2 + b**2, 1.0, atol=1e-12)


def test_degree_coin_validation():
    with pytest.raises(ValueError):
        dtqw._ArcLayout(aw.load_molecule("benzene"), coin="nonsense")


# ---------------------------------------------------------------- graph walk

def test_arc_order_ascending_neighbors():
    # the slots of node x hold its neighbors in ascending order; the walk's
    # stay route cycles through them in that order
    def order(name, x):
        lay = dtqw._ArcLayout(aw.load_molecule(name))
        return tuple(int(lay.node_of[lay.cross[lay.first[x - 1] + i]]) + 1
                     for i in range(lay.deg[x - 1]))

    assert order("naphthalene", 4) == (3, 5, 9)
    assert order("naphthalene", 1) == (2, 10)
    assert order("benzene", 6) == (1, 5)


def test_directed_step_exactly_unitary_long_run():
    lay = dtqw._ArcLayout(aw.load_molecule("benzene"))
    v = walk(lay, np.concatenate(start_state(lay, 1)), 100_000)
    npt.assert_allclose((v**2).sum(), 1.0, atol=1e-11)


@settings(max_examples=5, deadline=None)
@given(connected_graphs())
def test_directed_step_norm_on_random_graphs(g):
    for coin in ("unweighted", "weighted"):
        lay = dtqw._ArcLayout(g, coin)
        v = walk(lay, np.concatenate(start_state(lay, 1)), 10_000)
        assert v.dtype == np.float64
        npt.assert_allclose((v**2).sum(), 1.0, atol=1e-11)


@pytest.mark.parametrize("coin", ["unweighted", "weighted"])
@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_directed_step_equals_coin_then_route(molecule, coin):
    g = aw.load_molecule(molecule)
    lay = dtqw._ArcLayout(g, coin)
    src, coef = dtqw._gather(lay)
    for start in (1, g.node_count):
        stay, move = start_state(lay, start)
        v = np.concatenate((stay, move))
        for _ in range(40):
            v = dtqw._step(v, src, coef)
            stay, move = reference_step(lay, stay, move)
            assert np.array_equal(v, np.concatenate((stay, move)))


def test_directed_step_spreads_probability():
    g = aw.load_molecule("naphthalene")
    lay = dtqw._ArcLayout(g)
    v = walk(lay, np.concatenate(start_state(lay, 1)), 3)
    probs = np.bincount(lay.node_of, weights=v[:lay.nsub]**2 + v[lay.nsub:]**2)
    assert (probs > 1e-12).sum() > 1
    npt.assert_allclose(probs.sum(), 1.0, atol=1e-12)


# ---------------------------------------------------------------- rankings

def test_rank_nodes_benzene_all_equivalent():
    r = aw.rank_nodes(aw.load_molecule("benzene"), steps=1000)
    assert r.ranks == (1, 1, 1, 1, 1, 1)
    assert len(set(r.scores)) == 1


def test_rank_nodes_frozen_orders():
    naph = aw.rank_nodes(aw.load_molecule("naphthalene"))
    assert naph.ranks == (2, 2, 1, 3, 1, 2, 2, 1, 3, 1)
    anth = aw.rank_nodes(aw.load_molecule("anthracene"))
    assert anth.ranks == (4, 4, 2, 3, 1, 3, 2, 4, 4, 2, 3, 1, 3, 2)
    phen = aw.rank_nodes(aw.load_molecule("phenanthrene"))
    assert phen.ranks == (6, 3, 2, 7, 7, 2, 3, 6, 4, 5, 1, 1, 5, 4)


def test_rank_nodes_default_step_budget():
    g = aw.load_molecule("naphthalene")
    r = aw.rank_nodes(g)
    assert r.steps == 10 * g.node_count**2
    assert r.start == 1
    assert r.coin == "unweighted"


def test_rank_one_sites():
    # most reactive: naphthalene alpha sites, anthracene meso, phenanthrene bridge
    naph = aw.rank_nodes(aw.load_molecule("naphthalene"))
    assert {n for n, k in zip(naph.nodes, naph.ranks) if k == 1} == {3, 5, 8, 10}
    anth = aw.rank_nodes(aw.load_molecule("anthracene"))
    assert {n for n, k in zip(anth.nodes, anth.ranks) if k == 1} == {5, 12}
    phen = aw.rank_nodes(aw.load_molecule("phenanthrene"))
    assert {n for n, k in zip(phen.nodes, phen.ranks) if k == 1} == {11, 12}


def test_rank_nodes_weighted_coin_same_top_sites():
    naph = aw.rank_nodes(aw.load_molecule("naphthalene"), coin="weighted")
    assert {n for n, k in zip(naph.nodes, naph.ranks) if k == 1} == {3, 5, 8, 10}
    anth = aw.rank_nodes(aw.load_molecule("anthracene"), coin="weighted")
    assert {n for n, k in zip(anth.nodes, anth.ranks) if k == 1} == {5, 12}
    phen = aw.rank_nodes(aw.load_molecule("phenanthrene"), coin="weighted")
    assert {n for n, k in zip(phen.nodes, phen.ranks) if k == 1} == {11, 12}


def test_rank_scores_pooled_within_classes():
    g = aw.load_molecule("anthracene")
    r = aw.rank_nodes(g)
    for cls in g.classes:
        assert len({r.scores[n - 1] for n in cls}) == 1
        assert len({r.ranks[n - 1] for n in cls}) == 1


def assert_blocked_walk_exact(g, coin):
    # steps around the history block length, from node 1 and from the last
    # node; unpooled scores are the occupancy
    rows = dtqw._block_rows(dtqw._ArcLayout(g).nsub)
    unpooled = dataclasses.replace(g, classes=None)
    for start in (1, g.node_count):
        for steps in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            occ = reference_occupancy(g, steps, start, coin)
            ranking = aw.rank_nodes(unpooled, steps=steps, start=start, coin=coin)
            assert np.array_equal(ranking.scores, occ)
            pooled = aw.rank_nodes(g, steps=steps, start=start, coin=coin).scores
            for cls in aw.equivalence_classes(g):
                mean = occ[[m - 1 for m in cls]].mean()
                assert all(pooled[m - 1] == mean for m in cls)


@pytest.mark.parametrize("coin", ["unweighted", "weighted"])
@pytest.mark.parametrize("molecule", aw.CATALOG)
def test_rank_nodes_blocked_equals_per_step_loop(molecule, coin):
    assert_blocked_walk_exact(aw.load_molecule(molecule), coin)


@settings(max_examples=5, deadline=None)
@given(connected_graphs())
def test_rank_nodes_blocked_equals_per_step_loop_random_graphs(g):
    for coin in ("unweighted", "weighted"):
        assert_blocked_walk_exact(g, coin)


def test_rank_nodes_history_memory_bounded():
    g = aw.load_molecule("naphthalene")
    nsub = dtqw._ArcLayout(g).nsub
    rows = dtqw._block_rows(nsub)

    def peak(steps):
        tracemalloc.start()
        try:
            aw.rank_nodes(g, steps=steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40 * rows) - peak(2 * rows) < rows * 2 * nsub * 8


def test_rank_nodes_deterministic():
    a = aw.rank_nodes(aw.load_molecule("naphthalene"), steps=500)
    b = aw.rank_nodes(aw.load_molecule("naphthalene"), steps=500)
    assert a.scores == b.scores
    assert a.ranks == b.ranks


def test_rank_nodes_start_within_class_stable():
    # moving the start around inside one symmetry class keeps the ranking
    g = aw.load_molecule("naphthalene")
    base = aw.rank_nodes(g, start=3)
    for start in (5, 8, 10):
        assert aw.rank_nodes(g, start=start).ranks == base.ranks
    g = aw.load_molecule("phenanthrene")
    assert aw.rank_nodes(g, start=11).ranks == aw.rank_nodes(g, start=12).ranks


@pytest.mark.xfail(
    reason="occupation averages depend on the start class; only the ranking "
    "within a class is stable",
    strict=True,
)
def test_rank_nodes_start_across_classes_identical_scores():
    g = aw.load_molecule("naphthalene")
    a = aw.rank_nodes(g, start=1)
    b = aw.rank_nodes(g, start=4)
    npt.assert_allclose(a.scores, b.scores, rtol=1e-6)


@pytest.mark.xfail(
    reason="each node's cyclic arc order is its neighbours in ascending number, "
    "so renumbering the nodes changes the walk itself: reversed naphthalene "
    "moves the unpooled scores by up to 1.45%",
    strict=True,
)
def test_rank_nodes_relabelling_equivariance():
    # node k becomes node N + 1 - k, and the start moves with it
    g = dataclasses.replace(aw.load_molecule("naphthalene"), classes=None)
    n = g.node_count
    rev = dataclasses.replace(
        g, edges=tuple((n + 1 - i, n + 1 - j, w) for i, j, w in g.edges))
    a = aw.rank_nodes(g, start=1)
    b = aw.rank_nodes(rev, start=n)
    npt.assert_allclose(b.scores[::-1], a.scores, rtol=1e-9)


def test_rank_nodes_validation():
    g = aw.load_molecule("benzene")
    with pytest.raises(ValueError):
        aw.rank_nodes(g, steps=0)
    with pytest.raises(ValueError):
        aw.rank_nodes(g, steps=2.5)
    with pytest.raises(ValueError):
        aw.rank_nodes(g, steps=True)
    for start in (0, 7, 99):
        with pytest.raises(ValueError, match="outside"):
            aw.rank_nodes(g, start=start)
    for start in ("3", 2.0, True):
        with pytest.raises(ValueError, match="integer"):
            aw.rank_nodes(g, start=start)
    with pytest.raises(ValueError):
        aw.rank_nodes(g, coin="bogus")
    # steps are checked first, then the coin, then the start
    with pytest.raises(ValueError, match="steps"):
        aw.rank_nodes(g, steps=0, start=99, coin="bogus")
    with pytest.raises(ValueError, match="coin"):
        aw.rank_nodes(g, start=99, coin="bogus")


def test_rank_nodes_norm_guard(monkeypatch):
    # corrupt the coin so the walk leaks norm; the drift check must trip
    real = dtqw._gather

    def leaky(lay):
        lay.a = lay.a * 0.999
        return real(lay)

    monkeypatch.setattr(dtqw, "_gather", leaky)
    with pytest.raises(ComputationError):
        aw.rank_nodes(aw.load_molecule("benzene"), steps=50)
