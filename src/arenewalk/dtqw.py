"""Directed discrete-time quantum walk on a molecule graph.

A single walker (directed_walk_state, directed_step) moves over the
graph, and rank_nodes ranks sites by how much probability flows through
them: sites accumulating the least are the most reactive.

Construction: node x of degree d owns d arc slots, one per incident edge
in ascending-neighbor order (the fixed cyclic arc order). Amplitudes live
on (slot, component) with components {stay, move}. Each step applies the
per-node degree coin at every slot, then routes the stay component one
position around its node's slot ring and the move component across its
edge to the partner slot on the far node. Both routes are permutations,
so a step is exactly unitary and only the move component traverses the
graph.

The coin [[a, b], [b, -a]] with a = sqrt(1 / (alpha + 1)),
b = sqrt(alpha / (alpha + 1)) and alpha = degree / 2 is real orthogonal,
the routes are permutations and the start is real, so amplitudes stay
real: they are float64 arrays.

A step is one gather over the stacked amplitudes v = [stay | move]. The
stay amplitude routed into slot t came from slot p = cyc_next^-1(t), and
the move amplitude from q = cross^-1(t), so

    stay'[t] = a[p] * stay[p] + b[p] * move[p]
    move'[t] = b[q] * stay[q] + (-a[q]) * move[q]

and the step is w = v[src] * coef, v' = w[:2S] + w[2S:] over the S slots.
These are the coin's own products added in the coin's order, and
x - y is exactly x + (-y), so the gather is bit-identical to coin then
route.

rank_nodes writes BLOCK_BYTES of consecutive states at a time and folds
the whole block into the node occupancies at once: it squares the
amplitudes, sums each node's slots in slot order (first, then the second
added, then the third: the order of a per-step bincount) and accumulates
down the steps with the running occupancy added to the first row (the
order of a per-step `occ += ...`). Every sum is therefore taken in the
same order as one step at a time, so the scores are bit-identical, and
the walk's history never takes more than one block of memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graphs
from .errors import ComputationError

# Bytes of walk states rank_nodes keeps before folding them into the
# occupancies. On a 2-core x86 host 256 KiB ran within 7% of the fastest
# size (1 MiB) at N = 50 and adds under 1 MB to peak memory.
BLOCK_BYTES = 1 << 18


class _ArcLayout:
    """Slot bookkeeping for the directed graph walk (see module docstring)."""

    def __init__(self, g, coin="unweighted"):
        if coin not in ("unweighted", "weighted"):
            raise ValueError(f"coin must be 'unweighted' or 'weighted', got {coin!r}")
        n = g.node_count
        A = graphs.adjacency(g)
        nbrs = [np.nonzero(A[x])[0] for x in range(n)]
        deg = np.array([nb.size for nb in nbrs])
        if (deg == 0).any():
            raise ValueError("graph has an isolated node")
        first = np.concatenate(([0], np.cumsum(deg)))[:n]
        nsub = int(deg.sum())
        node_of = np.repeat(np.arange(n), deg)
        cyc_next = np.empty(nsub, dtype=np.intp)
        cross = np.empty(nsub, dtype=np.intp)
        for x in range(n):
            base = first[x]
            for i, y in enumerate(nbrs[x]):
                cyc_next[base + i] = base + (i + 1) % deg[x]
                # partner slot: position of x among y's ascending neighbors
                j = int(np.searchsorted(nbrs[y], x))
                cross[base + i] = first[y] + j
        if coin == "weighted":
            alpha = graphs.weighted_degrees(g) / 2.0
        else:
            alpha = deg / 2.0
        self.n = n
        self.nsub = nsub
        self.node_of = node_of
        self.first = first
        self.deg = deg
        self.cyc_next = cyc_next
        self.cross = cross
        self.a = np.sqrt(1.0 / (alpha + 1.0))[node_of]
        self.b = np.sqrt(alpha / (alpha + 1.0))[node_of]


@dataclass(frozen=True, eq=False)
class DirectedWalkState:
    """Single-walker state on a molecule graph: one real (float64) stay and
    one move amplitude per (node, arc slot) pair."""

    graph: graphs.MoleculeGraph
    coin: str
    stay: np.ndarray
    move: np.ndarray
    layout: _ArcLayout = field(repr=False)


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def directed_walk_state(g, start=1, coin="unweighted"):
    """Initial state: the start node's slots share the stay amplitude equally."""
    lay = _ArcLayout(g, coin)
    if not _is_int(start):
        raise ValueError(f"start must be an integer node, got {start!r}")
    if not 1 <= start <= lay.n:
        raise ValueError(f"start node {start} outside [1, {lay.n}]")
    stay = np.zeros(lay.nsub)
    move = np.zeros(lay.nsub)
    base = lay.first[start - 1]
    d = lay.deg[start - 1]
    stay[base:base + d] = 1.0 / math.sqrt(d)
    return DirectedWalkState(g, coin, stay, move, lay)


def _gather(lay):
    """Source index into [stay | move] and coefficient of both products
    behind every amplitude of [stay' | move'] (see module docstring)."""
    s = lay.nsub
    ring = np.empty(s, dtype=np.intp)
    ring[lay.cyc_next] = np.arange(s)
    edge = np.empty(s, dtype=np.intp)
    edge[lay.cross] = np.arange(s)
    src = np.concatenate((ring, edge, ring + s, edge + s))
    coef = np.concatenate((lay.a[ring], lay.b[edge], lay.b[ring], -lay.a[edge]))
    return src, coef


def _step(v, src, coef, out=None):
    """One coin-then-route step of the stacked amplitudes v = [stay | move]."""
    w = v[src]
    w *= coef
    return np.add(w[:v.size], w[v.size:], out=out)


def directed_step(state):
    """One coin-then-route step; exactly norm-preserving."""
    lay = state.layout
    v = _step(np.concatenate((state.stay, state.move)), *_gather(lay))
    return DirectedWalkState(state.graph, state.coin, v[:lay.nsub], v[lay.nsub:], lay)


def _node_sums(lay, p):
    """Per-node sums of slot values p (rows, slots), each node's slots
    added in slot order."""
    sums = p[:, lay.first]
    for k in range(1, int(lay.deg.max())):
        nodes = np.nonzero(lay.deg > k)[0]
        sums[:, nodes] += p[:, lay.first[nodes] + k]
    return sums


def node_probabilities(state):
    """Occupancy per node (both coin components), index 0 = node 1."""
    p = state.stay ** 2 + state.move ** 2
    return _node_sums(state.layout, p[np.newaxis])[0]


@dataclass(frozen=True, eq=False)
class NodeRanking:
    """Per-node reactivity ranking. Scores are the accumulated occupancy
    pooled over each stored equivalence class, so equally ranked nodes
    carry equal scores. Rank 1 = least accumulated information = most
    reactive."""

    molecule: str
    nodes: tuple
    labels: tuple
    scores: tuple
    ranks: tuple
    start: int
    steps: int
    coin: str


def _block_rows(nsub):
    """Walk states of nsub slots that fit in one BLOCK_BYTES history block."""
    return max(1, BLOCK_BYTES // (2 * nsub * 8))


def _dense_ranks(values, rel_tol=1e-6):
    """Ascending dense ranks with adjacent values merged inside rel_tol."""
    order = np.argsort(values, kind="stable")
    ranks = np.zeros(len(values), dtype=int)
    rank = 0
    prev = None
    for idx in order:
        v = values[idx]
        if prev is None or abs(v - prev) > rel_tol * max(abs(v), abs(prev)):
            rank += 1
        ranks[idx] = rank
        prev = v
    return ranks


def rank_nodes(g, steps=None, start=1, coin="unweighted", tie_tol=1e-6):
    """Rank sites by accumulated walker occupancy over a directed graph walk.

    The walker starts localized on `start` and runs for `steps` steps
    (default 10 * N^2). Node occupancies are summed over all steps,
    averaged within each stored equivalence class, and ranked ascending:
    rank 1 marks the most reactive class. Rankings are stable under
    moving `start` within its own symmetry class; starts from different
    classes can produce different orders, so comparisons should fix one
    start convention (the default start is node 1).
    """
    n = g.node_count
    if steps is None:
        steps = 10 * n * n
    if not _is_int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    state = directed_walk_state(g, start=start, coin=coin)
    lay = state.layout
    s = lay.nsub
    src, coef = _gather(lay)
    history = np.empty((min(_block_rows(s), steps), 2 * s))
    v = np.concatenate((state.stay, state.move))
    occ = np.zeros(n)
    for done in range(0, steps, len(history)):
        block = history[:steps - done]
        for row in block:
            v = _step(v, src, coef, out=row)
        p = block[:, :s] ** 2
        p += block[:, s:] ** 2
        sums = _node_sums(lay, p)
        sums[0] += occ
        occ = np.add.accumulate(sums)[-1]
    if abs(float(p[-1].sum()) - 1.0) > 1e-9:
        raise ComputationError(f"walk norm drifted to {p[-1].sum()!r}; refusing to rank")
    classes = graphs.equivalence_classes(g)
    class_scores = np.array([occ[[m - 1 for m in cls]].mean() for cls in classes])
    class_ranks = _dense_ranks(class_scores, rel_tol=tie_tol)
    scores = np.zeros(n)
    ranks = np.zeros(n, dtype=int)
    for cls, cs, cr in zip(classes, class_scores, class_ranks):
        for member in cls:
            scores[member - 1] = cs
            ranks[member - 1] = cr
    return NodeRanking(
        molecule=g.name,
        nodes=tuple(range(1, n + 1)),
        labels=g.labels,
        scores=tuple(float(s) for s in scores),
        ranks=tuple(int(r) for r in ranks),
        start=int(start),
        steps=int(steps),
        coin=coin,
    )
