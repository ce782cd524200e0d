"""Directed discrete-time quantum walk on a molecule graph.

rank_nodes walks a single walker over the graph and ranks sites by how
much probability flows through them: sites accumulating the least are
the most reactive.

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
stay amplitude routed into slot t came from its ring predecessor p, the
previous slot of t's node (the node's last slot for its first), and the
move amplitude from the partner slot q = cross(t) (the edge route is its
own inverse), so

    stay'[t] = a[p] * stay[p] + b[p] * move[p]
    move'[t] = b[q] * stay[q] + (-a[q]) * move[q]

and the step is w = v[src] * coef, v' = w[:2S] + w[2S:] over the S slots.
These are the coin's own products added in the coin's order, and
x - y is exactly x + (-y), so the gather is bit-identical to coin then
route. `_walk` is the only step: it runs a whole block of steps in one
call and allocates nothing per step. Each step gathers v[src] straight
into a products buffer allocated once per call, scales it by coef in
place and adds its halves into the step's row of the block. rank_nodes
makes the block's row views once per walk and passes them as a list.

rank_nodes writes BLOCK_BYTES of consecutive states at a time and folds
the whole block into the node occupancies at once: it squares the
amplitudes, sums each node's slots in slot order (first, then the second
added, then the third: the order of a per-step bincount) and sums a
C-ordered copy down the steps with the running occupancy added to the
first row (the order of a per-step `occ += ...`: numpy sums axis 0 of a
C-ordered array one row after another). Every sum is therefore taken in
the same order as one step at a time, so the scores are bit-identical,
and the walk's history never takes more than one block of memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs, metrics
from .errors import ComputationError

# Bytes of walk states rank_nodes keeps before folding them into the
# occupancies. On a 2-core x86 host 256 KiB ran within 7% of the fastest
# size (1 MiB) at N = 50 and adds under 1 MB to peak memory.
BLOCK_BYTES = 1 << 18


class _ArcTable:
    """Arc slots of the directed graph walk and its step's gather (see
    module docstring), built from the adjacency's nonzeros: their
    row-major order is the slot order."""

    def __init__(self, g, coin="unweighted"):
        if coin not in ("unweighted", "weighted"):
            raise ValueError(f"coin must be 'unweighted' or 'weighted', got {coin!r}")
        n = g.node_count
        node_of, nbr = np.nonzero(g.adjacency)
        deg = graphs.degrees(g)
        if (deg == 0).any():
            raise ValueError("graph has an isolated node")
        first = np.cumsum(deg) - deg
        slot = np.arange(node_of.size)
        # the partner of arc x -> y is arc y -> x, found by its sort key
        cross = np.searchsorted(node_of * n + nbr, nbr * n + node_of)
        prev = np.where(slot == first[node_of], slot + deg[node_of], slot) - 1
        alpha = (graphs.weighted_degrees(g) if coin == "weighted" else deg) / 2.0
        a = np.sqrt(1.0 / (alpha + 1.0))[node_of]
        b = np.sqrt(alpha / (alpha + 1.0))[node_of]
        s = slot.size
        self.node_of, self.first, self.deg = node_of, first, deg
        self.cross, self.prev, self.a, self.b = cross, prev, a, b
        self.src = np.concatenate((prev, cross, prev + s, cross + s))
        self.coef = np.concatenate((a[prev], b[cross], b[prev], -a[cross]))
        # _node_sums's columns: for k = 1, 2, ..., the nodes with more than
        # k slots and the k-th slot of each (counting from 0)
        self.folds = []
        for k in range(1, int(deg.max())):
            nodes = np.nonzero(deg > k)[0]
            self.folds.append((nodes, first[nodes] + k))


def _walk(v, arcs, rows):
    """Coin-then-route steps of the stacked amplitudes v = [stay | move],
    one per row of rows, each state written into its row; returns the
    last state."""
    src, coef = arcs.src, arcs.coef
    # one step's products: those of the stay amplitudes, then the move's
    terms = np.empty(2 * len(v))
    from_stay, from_move = terms[:len(v)], terms[len(v):]
    # the method take skips np.take's Python wrapper; mode "raise" would
    # buffer out, and "wrap" is exact since every src lies in [0, len(v))
    take, multiply, add = np.ndarray.take, np.multiply, np.add
    # out is passed by position: a keyword costs about 5% of a step
    for row in rows:
        take(v, src, None, terms, "wrap")
        multiply(terms, coef, terms)
        v = add(from_stay, from_move, row)
    return v


def _node_sums(arcs, p):
    """Per-node sums of slot values p (rows, slots), each node's slots
    added in slot order."""
    sums = p[:, arcs.first]
    for nodes, slots in arcs.folds:
        sums[:, nodes] += p[:, slots]
    return sums


@dataclass(frozen=True, eq=False)
class NodeRanking:
    """Per-node reactivity ranking. Scores are the accumulated occupancy
    pooled over each stored equivalence class, so equally ranked nodes
    carry equal scores. Rank 1 = least accumulated information = most
    reactive."""

    nodes: tuple
    labels: tuple
    scores: tuple
    ranks: tuple
    steps: int


def _block_rows(nsub):
    """Walk states of nsub slots that fit in one BLOCK_BYTES history block."""
    return max(1, BLOCK_BYTES // (2 * nsub * 8))


def rank_nodes(g, steps=None, start=1, coin="unweighted"):
    """Rank sites by accumulated walker occupancy over a directed graph walk.

    The walker starts localized on `start` and runs for `steps` steps
    (default 10 * N^2). Node occupancies are summed over all steps,
    averaged within each stored equivalence class, and ranked ascending:
    rank 1 marks the most reactive class. The scores depend on `start`,
    and so can the order, even for starts in one symmetry class: with the
    unweighted coin, naphthalene's starts 2 and 7 swap ranks 2 and 3
    against starts 1 and 6, phenanthrene's start 8 swaps ranks 5 and 6
    against start 1, its start 7 reorders ranks 2-4 against start 2, and
    anthracene's starts 6 and 13 swap ranks 1 and 2 against starts 4 and
    11. Comparisons should fix one start (the default is node 1).
    """
    n = g.node_count
    if steps is None:
        steps = 10 * n * n
    if not graphs._is_int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not graphs._is_int(start):
        raise ValueError(f"start must be an integer node, got {start!r}")
    if not 1 <= start <= n:
        raise ValueError(f"start node {start} outside [1, {n}]")
    arcs = _ArcTable(g, coin)
    s = arcs.node_of.size
    # the start node's slots share the stay amplitude equally
    v = np.zeros(2 * s)
    base, d = arcs.first[start - 1], arcs.deg[start - 1]
    v[base:base + d] = 1.0 / math.sqrt(d)
    history = np.empty((min(_block_rows(s), steps), 2 * s))
    # row views made once per walk, not once per step
    rows = list(history)
    occ = np.zeros(n)
    for done in range(0, steps, len(history)):
        block = history[:steps - done]
        v = _walk(v, arcs, rows[:steps - done])
        p = block[:, :s] ** 2
        p += block[:, s:] ** 2
        sums = _node_sums(arcs, p)
        sums[0] += occ
        # the column gather of _node_sums leaves sums Fortran-ordered, and
        # numpy sums that axis 0 pairwise; it sums a C-ordered copy row
        # after row, in half the time of np.add.accumulate
        occ = np.ascontiguousarray(sums).sum(axis=0)
    # written so that a NaN norm trips it too
    if not abs(float(p[-1].sum()) - 1.0) <= 1e-9:
        raise ComputationError(f"walk norm drifted to {p[-1].sum()!r}; refusing to rank")
    class_of = np.empty(n, dtype=int)
    for k, cls in enumerate(g.classes):
        class_of[np.subtract(cls, 1)] = k
    class_scores = np.array([occ[[m - 1 for m in cls]].mean() for cls in g.classes])
    scores = class_scores[class_of]
    ranks = metrics._dense_ranks(class_scores)[class_of]
    return NodeRanking(
        nodes=tuple(range(1, n + 1)),
        labels=g.labels,
        scores=tuple(float(s) for s in scores),
        ranks=tuple(int(r) for r in ranks),
        steps=int(steps),
    )
