"""Bond-order-weighted molecular graphs and the built-in molecule catalog.

Nodes are the carbon sites of a conjugated system, numbered from 1. Edge
weights are dimensionless relative bond strength orders. A MoleculeGraph
owns what is derived from its input: the weighted adjacency matrix, built
once while the bonds are validated and kept read-only (degrees and
weighted_degrees read it), and the symmetry partition `classes`.
Graphs are frozen after construction and safe to share between threads.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

CATALOG = ("benzene", "naphthalene", "anthracene", "phenanthrene")
# Largest node count accepted, checked before anything N-sized is allocated.
# The CTQW's peak memory grows as about 4 N^3 bytes (81 MB beyond its
# outputs for an observe pass at 256, traced by tracemalloc); 256 is 5x the
# largest benchmarked molecule (N = 50).
MAX_NODES = 256
# Characters that would split or quote a CSV cell the CLI writes unquoted.
_CSV_BREAKING = frozenset(',"\r\n')


def _is_int(x):
    """An integer (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x):
    """A real number (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class MoleculeGraph:
    """Connected undirected graph with finite positive edge weights whose
    sum at each node, the weighted degree, is finite.

    edges hold (i, j, weight) with 1-based node indices, stored with i < j.
    classes partition the nodes into symmetry-equivalent groups, stored
    sorted; observables must agree within a class. None (the default)
    stores one singleton class per node: the sites are read unpooled.
    labels default to C1..CN when empty or None. edges, each edge, classes,
    each class and labels may be lists or tuples and are stored as tuples.
    adjacency is the read-only weighted adjacency matrix.
    """

    name: str
    node_count: int
    edges: tuple
    classes: tuple | None = None
    labels: tuple = field(default=())
    adjacency: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.node_count
        if not _is_int(n) or n < 1:
            raise ValueError(f"node_count must be a positive integer, got {n!r}")
        if n > MAX_NODES:
            raise ValueError(f"node_count {n} is above the limit of {MAX_NODES}")
        A = np.zeros((n, n))
        canon = []
        for edge in _as_tuple(self.edges, "edges"):
            edge = _as_tuple(edge, "each edge")
            if len(edge) != 3:
                raise ValueError(f"edge {edge!r} is not an (i, j, weight) triple")
            i, j, w = edge
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge {edge!r} has non-integer endpoints")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {edge!r} endpoint outside [1, {n}]")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not _is_real(w):
                raise ValueError(f"edge ({i}, {j}) weight must be a number, got {w!r}")
            w = float(w)
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({i}, {j}) weight must be finite and > 0, got {w}")
            if A[i - 1, j - 1]:
                raise ValueError(f"duplicate edge ({i}, {j})")
            A[i - 1, j - 1] = A[j - 1, i - 1] = w
            canon.append((min(i, j), max(i, j), w))
        # the row sums are the weighted degrees and the Laplacian's diagonal:
        # once they are finite, so is everything derived from A
        with np.errstate(over="ignore"):
            (over,) = np.nonzero(~np.isfinite(A.sum(axis=1)))
        if over.size:
            raise ValueError(f"weighted degree of node {over[0] + 1} overflows: "
                             "its bond weights sum to inf")
        A.flags.writeable = False
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "edges", tuple(canon))
        labels = () if self.labels is None else _as_tuple(self.labels, "labels")
        if not labels:
            labels = tuple(f"C{k}" for k in range(1, n + 1))
        elif len(labels) != n:
            raise ValueError("labels length must equal node_count")
        object.__setattr__(self, "labels", labels)
        for text in (self.name, *labels):
            if not isinstance(text, str) or _CSV_BREAKING.intersection(text):
                raise ValueError(
                    f"name and labels must be strings without ',', '\"', CR or LF, "
                    f"got {text!r}"
                )
        classes = self.classes
        if classes is None:
            classes = [(k,) for k in range(1, n + 1)]
        flat = []
        canon_classes = []
        for cls in _as_tuple(classes, "classes"):
            cls = _as_tuple(cls, "each class")
            if not all(_is_int(x) for x in cls):
                raise ValueError(f"class {cls!r} has non-integer members")
            members = sorted(cls)
            if not members:
                raise ValueError("empty equivalence class")
            flat.extend(members)
            canon_classes.append(tuple(members))
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("classes must partition the nodes 1..N exactly")
        canon_classes.sort(key=lambda c: c[0])
        object.__setattr__(self, "classes", tuple(canon_classes))
        # sweep out from node 1 until no new node is reached
        reached = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = A[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        if not reached.all():
            raise ValueError(f"graph {self.name!r} is not connected")


def _as_tuple(value, what):
    """value, which must be a list or a tuple, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def load_molecule(name):
    """Load a catalog molecule by name, or any molecule file by path.

    Files use YAML with fields `name` (string), `nodes` (int, at most
    MAX_NODES), `edges` (list of [i, j, weight], 1-based) and optional
    `classes` (list of lists of node indices; absent, every site is its
    own class) and `labels` (list of strings, one per node). Any other
    top-level key, one given twice, or a top-level YAML merge key `<<` is
    an error.
    """
    # open() would read an integer as a file descriptor
    if not isinstance(name, (str, os.PathLike)):
        raise ValueError(f"molecule must be a name or a path, got {name!r}")
    if name in CATALOG:
        text = (resources.files("arenewalk.data") / f"{name}.yaml").read_text(encoding="utf-8")
    else:
        try:
            with open(name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            raise ValueError(
                f"unknown molecule {name!r}: not in catalog {CATALOG} and not a readable file"
            )
    try:
        # libyaml's C scanner and parser under the same SafeConstructor; a
        # PyYAML built without libyaml has only the pure-Python SafeLoader,
        # whose reader checks the text as the loader is made
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
        try:
            node = loader.get_single_node()
            # YAML keeps the last of two equal keys and drops the first unread
            if isinstance(node, yaml.MappingNode):
                keys = [k.value for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
                repeated = sorted({k for k in keys if keys.count(k) > 1})
                if repeated:
                    raise ValueError(f"molecule file {name!r} repeats fields: {repeated}")
                # the constructor folds a merge key's fields into the mapping
                # unchecked, and an explicit key then silently wins over it
                if any(k.tag == "tag:yaml.org,2002:merge" for k, _ in node.value):
                    raise ValueError(f"molecule file {name!r} uses the YAML merge key '<<'; "
                                     "write each field out")
            doc = None if node is None else loader.construct_document(node)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed molecule file {name!r}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"malformed molecule file {name!r}: expected a mapping")
    missing = {"name", "nodes", "edges"} - doc.keys()
    if missing:
        raise ValueError(f"molecule file {name!r} missing fields: {sorted(missing)}")
    # a misspelt optional key would otherwise be dropped without a word
    unknown = doc.keys() - {"name", "nodes", "edges", "classes", "labels"}
    if unknown:
        raise ValueError(f"molecule file {name!r} has unknown fields: "
                         f"{sorted(unknown, key=str)}")
    return MoleculeGraph(name=doc["name"], node_count=doc["nodes"], edges=doc["edges"],
                         classes=doc.get("classes"), labels=doc.get("labels"))


def degrees(g):
    """Unweighted degree (incident edge count) per node, index 0 = node 1."""
    return np.count_nonzero(g.adjacency, axis=1)


def weighted_degrees(g):
    """Sum of incident edge weights per node, index 0 = node 1."""
    return g.adjacency.sum(axis=1)

