"""Molecule graph construction, validation, and matrix builders."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from conftest import connected_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

import arenewalk as aw
from arenewalk import graphs
from arenewalk.graphs import MoleculeGraph


def edge_weight(graph, i, j):
    key = (min(i, j), max(i, j))
    for a, b, w in graph.edges:
        if (a, b) == key:
            return w
    raise KeyError(key)


def loop_adjacency(g):
    """A filled in one edge at a time: the reference for the matrix the
    graph builds while validating its bonds."""
    A = np.zeros((g.node_count, g.node_count))
    for i, j, w in g.edges:
        A[i - 1, j - 1] = w
        A[j - 1, i - 1] = w
    return A


def loop_degrees(g):
    d = np.zeros(g.node_count, dtype=int)
    for i, j, _ in g.edges:
        d[i - 1] += 1
        d[j - 1] += 1
    return d


def dfs_connected(n, edges):
    """Connectivity by depth-first search over a neighbour dict."""
    adj = {k: [] for k in range(1, n + 1)}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


@st.composite
def any_graphs(draw):
    """(n, edges) on 1-8 nodes with unit weights, often disconnected."""
    n = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])
    pairs = draw(st.sets(pair, max_size=n * (n - 1) // 2))
    return n, tuple((i, j, 1.0) for i, j in sorted(pairs))


# ---------------------------------------------------------------- catalog

def test_catalog_names():
    assert aw.CATALOG == ("benzene", "naphthalene", "anthracene", "phenanthrene")


@pytest.mark.parametrize(
    "name,nodes,edges,nclasses",
    [
        ("benzene", 6, 6, 1),
        ("naphthalene", 10, 11, 3),
        ("anthracene", 14, 16, 4),
        ("phenanthrene", 14, 16, 7),
    ],
)
def test_catalog_shapes(name, nodes, edges, nclasses):
    g = aw.load_molecule(name)
    assert g.name == name
    assert g.node_count == nodes
    assert len(g.edges) == edges
    assert len(g.classes) == nclasses


def test_catalog_reads_as_utf8_under_any_locale():
    # a read without an explicit encoding would take the locale's, which
    # warn_default_encoding reports and -W error turns into a failure
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c",
         "import arenewalk as aw; [aw.load_molecule(name) for name in aw.CATALOG]"],
        env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_benzene_uniform_weights():
    g = aw.load_molecule("benzene")
    assert all(w == 1.468 for _, _, w in g.edges)


def test_weight_spot_values():
    naph = aw.load_molecule("naphthalene")
    assert edge_weight(naph, 4, 9) == 1.288
    assert edge_weight(naph, 1, 10) == 1.603
    anth = aw.load_molecule("anthracene")
    assert edge_weight(anth, 4, 13) == 1.246
    assert edge_weight(anth, 6, 11) == 1.246
    phen = aw.load_molecule("phenanthrene")
    assert edge_weight(phen, 11, 12) == 1.762
    assert edge_weight(phen, 4, 5) == 1.204
    # the 11-12 bridge bond is the strongest bond in the whole catalog
    top = max(w for name in aw.CATALOG for _, _, w in aw.load_molecule(name).edges)
    assert top == 1.762


def test_class_partitions():
    naph = aw.load_molecule("naphthalene")
    assert naph.classes == ((1, 2, 6, 7), (3, 5, 8, 10), (4, 9))
    anth = aw.load_molecule("anthracene")
    assert anth.classes == (
        (1, 2, 8, 9),
        (3, 7, 10, 14),
        (4, 6, 11, 13),
        (5, 12),
    )
    phen = aw.load_molecule("phenanthrene")
    assert phen.classes == (
        (1, 8),
        (2, 7),
        (3, 6),
        (4, 5),
        (9, 14),
        (10, 13),
        (11, 12),
    )


def test_classes_cover_every_node_once():
    for name in aw.CATALOG:
        g = aw.load_molecule(name)
        members = [n for cls in g.classes for n in cls]
        assert sorted(members) == list(range(1, g.node_count + 1))


def test_default_labels():
    g = aw.load_molecule("benzene")
    assert g.labels == ("C1", "C2", "C3", "C4", "C5", "C6")


# ---------------------------------------------------------------- matrices

def test_adjacency_benzene():
    g = aw.load_molecule("benzene")
    A = g.adjacency
    npt.assert_array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    # node 1 bonds to 2 and 6 only
    row = A[0]
    assert row[1] == 1.468 and row[5] == 1.468
    assert row[[0, 2, 3, 4]].sum() == 0


def test_adjacency_single_edge():
    g = MoleculeGraph(name="pair", node_count=2, edges=((1, 2, 0.7),))
    npt.assert_array_equal(g.adjacency, [[0.0, 0.7], [0.7, 0.0]])


def assert_matrices_match_edge_loops(g):
    A = loop_adjacency(g)
    for got, want in ((g.adjacency, A), (aw.hamiltonian(g), np.diag(A.sum(axis=1)) - A),
                      (aw.graphs.degrees(g), loop_degrees(g)),
                      (aw.graphs.weighted_degrees(g), A.sum(axis=1))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_matrices_match_edge_loops_catalog():
    for name in aw.CATALOG:
        assert_matrices_match_edge_loops(aw.load_molecule(name))


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_matrices_match_edge_loops_random_graphs(g):
    assert_matrices_match_edge_loops(g)


@settings(max_examples=200, deadline=None)
@given(any_graphs())
def test_connectivity_matches_dfs(graph):
    n, edges = graph
    if dfs_connected(n, edges):
        MoleculeGraph(name="g", node_count=n, edges=edges)
    else:
        with pytest.raises(ValueError, match="not connected"):
            MoleculeGraph(name="g", node_count=n, edges=edges)


def test_adjacency_is_read_only():
    A = aw.load_molecule("benzene").adjacency
    with pytest.raises(ValueError, match="read-only"):
        A[0, 1] = 5.0


def test_graph_from_lists_equals_graph_from_tuples():
    lists = MoleculeGraph(name="allyl", node_count=3, edges=[[1, 2, 1.5], [3, 2, 1.25]],
                          classes=[[3, 1], [2]], labels=["Ca", "Cb", "Cc"])
    tuples = MoleculeGraph(name="allyl", node_count=3, edges=((1, 2, 1.5), (2, 3, 1.25)),
                           classes=((1, 3), (2,)), labels=("Ca", "Cb", "Cc"))
    for field in ("edges", "classes", "labels"):
        assert getattr(lists, field) == getattr(tuples, field)
        assert type(getattr(lists, field)) is tuple
    assert all(type(e) is tuple for e in lists.edges)
    assert all(type(c) is tuple for c in lists.classes)
    assert np.array_equal(lists.adjacency, tuples.adjacency)


@pytest.mark.parametrize("fields", [{"edges": 5}, {"classes": 5}, {"labels": 5},
                                    {"edges": ({1, 2, 3},)}, {"classes": ((1, 2), {3})}])
def test_non_sequence_fields_rejected(fields):
    # iterating over 5 raised TypeError
    kwargs = {"name": "allyl", "node_count": 3, "edges": ((1, 2, 1.5), (2, 3, 1.5)), **fields}
    with pytest.raises(ValueError, match="must be a list"):
        MoleculeGraph(**kwargs)


@pytest.mark.parametrize("n", [graphs.MAX_NODES + 1, 2000])
def test_node_ceiling_checked_before_allocation(n):
    edges = tuple((k, k + 1, 1.0) for k in range(1, n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"above the limit of {graphs.MAX_NODES}"):
            MoleculeGraph(name="path", node_count=n, edges=edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the N x N adjacency alone would take 8 N^2 bytes (32 MB at N = 2000)
    assert peak < 1 << 20


def test_node_ceiling_boundary():
    n = graphs.MAX_NODES
    g = MoleculeGraph(name="path", node_count=n, edges=tuple((k, k + 1, 1.0) for k in range(1, n)))
    assert aw.graphs.degrees(g).sum() == 2 * (n - 1)


def test_weighted_degree_spot_value():
    # anthracene node 4: bonds 3-4 (1.304), 4-5 (1.452), 4-13 (1.246)
    g = aw.load_molecule("anthracene")
    npt.assert_allclose(aw.graphs.weighted_degrees(g)[3], 1.304 + 1.452 + 1.246,
                        rtol=0, atol=1e-12)


def test_degrees_vs_weighted_degrees():
    g = aw.load_molecule("naphthalene")
    assert list(aw.graphs.degrees(g)) == [2, 2, 2, 3, 2, 2, 2, 2, 3, 2]
    assert aw.graphs.degrees(g).sum() == 2 * len(g.edges)
    npt.assert_allclose(aw.graphs.weighted_degrees(g).sum(), 2 * sum(w for _, _, w in g.edges))


def test_laplacian_naphthalene_fusion_diagonal():
    # node 9 carries bonds 4-9 (1.288), 8-9 (1.335), 9-10 (1.335)
    g = aw.load_molecule("naphthalene")
    L = aw.hamiltonian(g)
    npt.assert_allclose(L[8, 8], 1.288 + 1.335 + 1.335, atol=1e-12)


def test_laplacian_psd_and_connected():
    for name in aw.CATALOG:
        g = aw.load_molecule(name)
        evals = np.linalg.eigvalsh(aw.hamiltonian(g))
        assert evals[0] > -1e-10
        npt.assert_allclose(evals[0], 0, atol=1e-10)
        # multiplicity one for the zero mode on a connected graph
        assert evals[1] > 1e-6


def test_equivalence_classes_of_loaded_graph():
    g = aw.load_molecule("naphthalene")
    assert g.classes == ((1, 2, 6, 7), (3, 5, 8, 10), (4, 9))


def test_equivalence_classes_default_singletons():
    g = MoleculeGraph(name="tri", node_count=3, edges=((1, 2, 1.0), (2, 3, 1.0)))
    assert g.classes == ((1,), (2,), (3,))
    # replacing the classes with None reads the sites unpooled again
    unpooled = dataclasses.replace(aw.load_molecule("naphthalene"), classes=None)
    assert unpooled.classes == tuple((k,) for k in range(1, 11))


# ---------------------------------------------------------------- loading

def test_load_molecule_from_file(tmp_path):
    doc = {
        "name": "pair",
        "nodes": 2,
        "edges": [[1, 2, 1.5]],
        "labels": ["Ca", "Cb"],
        "classes": [[1, 2]],
    }
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(doc))
    g = aw.load_molecule(str(path))
    assert g.name == "pair"
    assert g.edges == ((1, 2, 1.5),)
    assert g.labels == ("Ca", "Cb")
    assert g.classes == ((1, 2),)


def test_load_molecule_unknown_name():
    with pytest.raises(ValueError):
        aw.load_molecule("coronene")
    for name in (0, True, ["benzene"]):
        with pytest.raises(ValueError, match="name or a path"):
            aw.load_molecule(name)


def test_load_molecule_missing_field(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"name": "bad", "nodes": 2}))
    with pytest.raises(ValueError):
        aw.load_molecule(str(path))


def test_load_molecule_rejects_unknown_fields(tmp_path):
    # a misspelt `classes` was dropped, so the sites were silently unpooled
    path = tmp_path / "typo.yaml"
    path.write_text("name: allyl\nnodes: 3\nedges: [[1, 2, 1.5], [2, 3, 1.5]]\n"
                    "clases: [[1, 3], [2]]\n3: x\n")
    with pytest.raises(ValueError, match=r"unknown fields: \[3, 'clases'\]"):
        aw.load_molecule(str(path))


def test_load_molecule_rejects_repeated_fields(tmp_path):
    # YAML kept the last `classes`, so the pooled sites were silently unpooled
    path = tmp_path / "twice.yaml"
    path.write_text("name: allyl\nnodes: 3\nedges: [[1, 2, 1.5], [2, 3, 1.5]]\n"
                    "classes: [[1, 3], [2]]\nclasses: [[1], [2], [3]]\nnodes: 3\n")
    with pytest.raises(ValueError, match=r"repeats fields: \['classes', 'nodes'\]"):
        aw.load_molecule(str(path))


@pytest.mark.parametrize("fields", [
    # the explicit `classes` won over the merged one, so the sites were unpooled
    pytest.param("edges: [[1, 2, 1.5], [2, 3, 1.5]]\n<<: {classes: [[1, 3], [2]]}\n"
                 "classes: [[1], [2], [3]]\n", id="overridden-classes"),
    # the required `edges` was supplied only through the merge
    pytest.param("<<: {edges: [[1, 2, 1.5], [2, 3, 1.5]]}\n", id="merged-edges"),
])
def test_load_molecule_rejects_merge_key(tmp_path, fields):
    path = tmp_path / "merged.yaml"
    path.write_text(f"name: allyl\nnodes: 3\n{fields}")
    with pytest.raises(ValueError, match="merge key '<<'"):
        aw.load_molecule(str(path))


def test_load_molecule_without_libyaml_reports_unreadable_text(tmp_path, monkeypatch):
    # the pure-Python loader rejects a control character as it is made
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "bad.yaml"
    path.write_text("name: a\x07\n")
    with pytest.raises(ValueError, match="malformed molecule file"):
        aw.load_molecule(str(path))


@pytest.mark.parametrize("fields", [
    {"edges": 5},
    {"edges": [5, [2, 3, 1.0]]},
    {"classes": 5},
    {"classes": [[1, 2], 3]},
    {"labels": 5},
])
def test_load_molecule_rejects_non_list_entries(tmp_path, fields):
    # tuple() on these raised TypeError before the graph was validated
    doc = {"name": "allyl", "nodes": 3, "edges": [[1, 2, 1.5], [2, 3, 1.5]], **fields}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="must be a list"):
        aw.load_molecule(str(path))


@pytest.mark.parametrize("fields", [
    {"name": 5},
    {"labels": [1, 2, 3]},
    {"labels": [{"a": 1}, "b", "c"]},
])
def test_load_molecule_rejects_non_string_text(tmp_path, fields):
    # str() turned these into the name "5" and labels "1" or "{'a': 1}"
    doc = {"name": "allyl", "nodes": 3, "edges": [[1, 2, 1.5], [2, 3, 1.5]], **fields}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match="name and labels must be strings"):
        aw.load_molecule(str(path))


@pytest.mark.parametrize(
    "edges",
    [
        ((1, 1, 1.0),),                  # self loop
        ((1, 2, 0.0),),                  # nonpositive weight
        ((1, 2, -1.0),),
        ((1, 3, 1.0),),                  # endpoint out of range
        ((1, 2, 1.0), (2, 1, 1.2)),      # duplicate bond
        ((1, 2, float("inf")),),         # infinite weight
        ((True, 2, 1.0),),               # bool endpoint, which counts as node 1
        ((1, 2.0, 1.0),),                # float endpoint
        ((1, 2, True),),                 # bool weight, which float() reads as 1.0
        ((1, 2, "1.5"),),                # quoted weight
    ],
)
def test_invalid_edges_rejected(edges):
    with pytest.raises(ValueError):
        MoleculeGraph(name="bad", node_count=2, edges=edges)


@pytest.mark.parametrize("weight", [1e308, float(np.finfo(float).max)])
def test_overflowing_weighted_degree_rejected(weight):
    # node 2 sums to weight + 1.0, which rounds to the finite weight; node
    # 3 sums to 2 * weight, inf. Tier-1 turns numpy's overflow
    # RuntimeWarning into an error, so none may fire
    edges = ((1, 2, 1.0), (2, 3, weight), (3, 4, weight))
    with pytest.raises(ValueError, match="weighted degree of node 3 overflows"):
        MoleculeGraph(name="heavy", node_count=4, edges=edges)


def test_largest_finite_weighted_degree_accepted():
    # node 2 sums to 1.6e308, just below the largest double (1.8e308), so
    # the Laplacian and the Hamiltonian are finite
    g = MoleculeGraph(name="heavy", node_count=3, edges=((1, 2, 8e307), (2, 3, 8e307)))
    assert np.isfinite(aw.hamiltonian(g)).all()
    assert aw.graphs.weighted_degrees(g)[1] == 1.6e308


def test_integer_weights_and_numpy_indices_accepted():
    g = MoleculeGraph(name="pair", node_count=np.int64(2), edges=((np.int64(1), 2, 2),))
    assert g.edges == ((1, 2, 2.0),)


@pytest.mark.parametrize("count", [True, 2.0, "2"])
def test_non_integer_node_count_rejected(count):
    with pytest.raises(ValueError, match="node_count"):
        MoleculeGraph(name="bad", node_count=count, edges=((1, 2, 1.0),))


@pytest.mark.parametrize(
    "classes",
    [
        ((1, 2.7), (3,)),                # int() would truncate 2.7 to node 2
        ((True, 2), (3,)),
        ((1, 2), ("3",)),
    ],
)
def test_non_integer_class_members_rejected(classes):
    with pytest.raises(ValueError, match="non-integer"):
        MoleculeGraph(name="bad", node_count=3,
                      edges=((1, 2, 1.0), (2, 3, 1.0)), classes=classes)


@pytest.mark.parametrize(
    "name, labels",
    [
        ("al,lyl", ()),
        ('al"lyl', ()),
        ("al\rlyl", ()),
        ("al\nlyl", ()),
        ("allyl", ("Ca", "C,b", "Cc")),
        ("allyl", ("Ca", "Cb", "C\nc")),
        (5, ()),
        ("allyl", ("Ca", 2, "Cc")),
    ],
)
def test_csv_breaking_text_rejected(name, labels):
    with pytest.raises(ValueError, match="name and labels"):
        MoleculeGraph(name=name, node_count=3,
                      edges=((1, 2, 1.0), (2, 3, 1.0)), labels=labels)


def test_csv_safe_punctuation_accepted():
    g = MoleculeGraph(name="50%s-ring (1;2)", node_count=3,
                      edges=((1, 2, 1.0), (2, 3, 1.0)), labels=("C'a", "C b", "C%c"))
    assert g.name == "50%s-ring (1;2)"
    assert g.labels == ("C'a", "C b", "C%c")


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        MoleculeGraph(
            name="bad", node_count=4, edges=((1, 2, 1.0), (3, 4, 1.0))
        )


def test_bad_class_partition_rejected():
    with pytest.raises(ValueError):
        MoleculeGraph(
            name="bad",
            node_count=2,
            edges=((1, 2, 1.0),),
            classes=((1,),),  # node 2 uncovered
        )
    with pytest.raises(ValueError):
        MoleculeGraph(
            name="bad",
            node_count=2,
            edges=((1, 2, 1.0),),
            classes=((1, 2), (2,)),  # node 2 twice
        )
    # an empty list is not the absent key: it still fails to partition
    with pytest.raises(ValueError, match="partition"):
        MoleculeGraph(name="bad", node_count=2, edges=((1, 2, 1.0),), classes=[])
