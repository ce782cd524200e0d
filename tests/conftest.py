"""Shared fixtures and hypothesis strategies.

The full default-grid evolution series (t_max=200, dt=0.01) is expensive
enough to be worth computing once per molecule and sharing across the
whole run.
"""

import pytest
from hypothesis import strategies as st

import arenewalk as aw
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


@pytest.fixture(scope="session")
def full_series():
    """Map molecule name -> (graph, default-grid EvolutionSeries)."""
    out = {}
    for name in aw.CATALOG:
        graph = aw.load_molecule(name)
        prop = aw.propagator(aw.hamiltonian(graph))
        out[name] = (graph, aw.time_series(prop))
    return out
