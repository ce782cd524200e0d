"""Bond-order-weighted molecular graphs and the built-in molecule catalog.

Nodes are the carbon sites of a conjugated system, numbered from 1. Edge
weights are dimensionless relative bond strength orders. Graphs are frozen
after construction and safe to share between threads.
"""
from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

CATALOG = ("benzene", "naphthalene", "anthracene", "phenanthrene")
# Characters that would split or quote a CSV cell the CLI writes unquoted.
_CSV_BREAKING = frozenset(',"\r\n')


def _is_int(x):
    """An integer (numpy's included) that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class MoleculeGraph:
    """Connected undirected graph with finite positive edge weights.

    edges hold (i, j, weight) with 1-based node indices, stored with i < j.
    classes, when present, partition the nodes into symmetry-equivalent
    groups; observables must agree within a class.
    """

    name: str
    node_count: int
    edges: tuple
    classes: tuple | None = None
    labels: tuple = field(default=())

    def __post_init__(self):
        n = self.node_count
        if not _is_int(n) or n < 1:
            raise ValueError(f"node_count must be a positive integer, got {n!r}")
        canon = []
        seen = set()
        for edge in self.edges:
            try:
                i, j, w = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not an (i, j, weight) triple")
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge {edge!r} has non-integer endpoints")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {edge!r} endpoint outside [1, {n}]")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise ValueError(f"edge ({i}, {j}) weight must be a number, got {w!r}")
            w = float(w)
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({i}, {j}) weight must be finite and > 0, got {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
            canon.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(canon))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"C{k}" for k in range(1, n + 1)))
        elif len(self.labels) != n:
            raise ValueError("labels length must equal node_count")
        for text in (self.name, *self.labels):
            if not isinstance(text, str) or _CSV_BREAKING.intersection(text):
                raise ValueError(
                    f"name and labels must be strings without ',', '\"', CR or LF, "
                    f"got {text!r}"
                )
        if self.classes is not None:
            flat = []
            canon_classes = []
            for cls in self.classes:
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
        if not _connected(n, self.edges):
            raise ValueError(f"graph {self.name!r} is not connected")


def _connected(n, edges):
    if n == 1:
        return True
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


def load_molecule(name):
    """Load a catalog molecule by name, or any molecule file by path.

    Files use YAML with fields `name` (string), `nodes` (int), `edges`
    (list of [i, j, weight], 1-based) and optional `classes` (list of
    lists of node indices) and `labels` (list of strings, one per node).
    """
    # open() would read an integer as a file descriptor
    if not isinstance(name, (str, os.PathLike)):
        raise ValueError(f"molecule must be a name or a path, got {name!r}")
    if name in CATALOG:
        text = (resources.files("arenewalk.data") / f"{name}.yaml").read_text()
    else:
        try:
            with open(name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            raise ValueError(
                f"unknown molecule {name!r}: not in catalog {CATALOG} and not a readable file"
            )
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed molecule file {name!r}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"malformed molecule file {name!r}: expected a mapping")
    missing = {"name", "nodes", "edges"} - doc.keys()
    if missing:
        raise ValueError(f"molecule file {name!r} missing fields: {sorted(missing)}")

    def listed(value, what):
        if not isinstance(value, list):
            raise ValueError(f"molecule file {name!r}: {what} must be a list, got {value!r}")
        return value

    classes = doc.get("classes")
    labels = doc.get("labels")
    return MoleculeGraph(
        name=doc["name"],
        node_count=doc["nodes"],
        edges=tuple(tuple(listed(e, "each edge")) for e in listed(doc["edges"], "edges")),
        classes=(tuple(tuple(listed(c, "each class")) for c in listed(classes, "classes"))
                 if classes is not None else None),
        labels=tuple(listed(labels, "labels")) if labels is not None else (),
    )


def adjacency(g):
    """Weighted adjacency matrix A, symmetric with zero diagonal."""
    A = np.zeros((g.node_count, g.node_count))
    for i, j, w in g.edges:
        A[i - 1, j - 1] = w
        A[j - 1, i - 1] = w
    return A


def laplacian(g):
    """Weighted graph Laplacian L = D - A; positive semidefinite, zero row sums."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def degrees(g):
    """Unweighted degree (incident edge count) per node, index 0 = node 1."""
    d = np.zeros(g.node_count, dtype=int)
    for i, j, _ in g.edges:
        d[i - 1] += 1
        d[j - 1] += 1
    return d


def weighted_degrees(g):
    """Sum of incident edge weights per node, index 0 = node 1."""
    return adjacency(g).sum(axis=1)


def equivalence_classes(g):
    """Symmetry-equivalence partition of the nodes: the stored classes, or
    singleton classes for a graph without them."""
    if g.classes is not None:
        return g.classes
    return tuple((k,) for k in range(1, g.node_count + 1))
