"""Shared fixtures, hypothesis strategies and reference constructions.

The default-grid site observables (t_max=200, dt=0.01) are expensive
enough to be worth computing once per molecule and sharing across the
whole run.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk import ctqw
from arenewalk.graphs import MoleculeGraph


@st.composite
def connected_graphs(draw):
    """Connected graphs on 3-12 nodes, weights in [1, 2]: a random spanning
    tree plus random extra edges."""
    n = draw(st.integers(min_value=3, max_value=12))
    weight = st.floats(min_value=1.0, max_value=2.0)
    edges = {(draw(st.integers(1, k - 1)), k): draw(weight) for k in range(2, n + 1)}
    extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])
    for pair in draw(st.lists(extra, max_size=n)):
        edges.setdefault(pair, draw(weight))
    return MoleculeGraph(
        name="random", node_count=n, edges=tuple((i, j, w) for (i, j), w in edges.items())
    )


def g12(x):
    """x as "%.12g" prints it, through format() rather than the CLI's table
    writer, so byte tests do not check the writer against itself."""
    return format(float(x), ".12g")


def reference_layout(g, coin="unweighted"):
    """The arc slots built node by node: each node's neighbour list, the
    stay route to the next slot around the node and the partner slot
    found by one searchsorted per slot. Independent of dtqw._ArcTable."""
    n = g.node_count
    A = g.adjacency
    nbrs = [np.nonzero(A[x])[0] for x in range(n)]
    deg = np.array([nb.size for nb in nbrs])
    first = np.concatenate(([0], np.cumsum(deg)))[:n]
    nsub = int(deg.sum())
    cyc_next = np.empty(nsub, dtype=np.intp)
    cross = np.empty(nsub, dtype=np.intp)
    for x in range(n):
        base = first[x]
        for i, y in enumerate(nbrs[x]):
            cyc_next[base + i] = base + (i + 1) % deg[x]
            cross[base + i] = first[y] + int(np.searchsorted(nbrs[y], x))
    node_of = np.repeat(np.arange(n), deg)
    alpha = (aw.graphs.weighted_degrees(g) if coin == "weighted" else deg) / 2.0
    return SimpleNamespace(
        node_of=node_of, first=first, deg=deg, cyc_next=cyc_next, cross=cross,
        a=np.sqrt(1.0 / (alpha + 1.0))[node_of], b=np.sqrt(alpha / (alpha + 1.0))[node_of])


def stream_rows(p, t_max, dt, reduce, shape=()):
    """The grid times and reduce's rows over them: one ctqw.evolve pass on
    the validated grid, whose sink stores reduce(B) of each (samples, N, N)
    block of B(t) as its rows, each of the given shape."""
    times = ctqw._grid(t_max, dt, p)
    rows = np.empty((len(times),) + shape)

    def sink(start, stop, B):
        rows[start:stop] = reduce(B)

    ctqw.evolve(p, times, sink)
    return times, rows


def every_matrix(p, t_max, dt):
    """The grid times and every B(t) on them, shaped (samples, N, N): the
    full evolution that tests compare streamed reductions against."""
    n = len(p.eigenvalues)
    return stream_rows(p, t_max, dt, lambda B: B, (n, n))


@pytest.fixture(scope="session")
def full_series():
    """Map molecule name -> (graph, propagator, default-grid SiteObservables)."""
    out = {}
    for name in aw.CATALOG:
        graph = aw.load_molecule(name)
        prop = aw.propagator(aw.hamiltonian(graph))
        out[name] = (graph, prop, aw.observe(prop))
    return out
