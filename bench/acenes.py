"""Seeded linear acenes written as arenewalk molecule files.

A linear acene with n fused rings has N = 4n + 2 carbons and 5n + 1
bonds: two chains of 2n + 1 atoms joined by n + 1 rungs. The seed draws
only the bond weights, uniform in [1.2, 1.7] (the catalog's bond orders
span 1.246 to 1.673), so it changes values but never the amount of work.
"""
from __future__ import annotations

import numpy as np

WEIGHT_RANGE = (1.2, 1.7)


def acene_edges(n, seed):
    """Edges (i, j, weight) of the n-ring acene, 1-based with i < j.

    Nodes 1..2n+1 run along the top chain and 2n+2..4n+2 along the bottom
    chain in the same direction; rungs join every other position. Each
    (seed, n) pair has its own weight stream, so one molecule's weights do
    not depend on which other molecules a workload generates.
    """
    if n < 1:
        raise ValueError(f"an acene needs at least one ring, got n={n}")
    width = 2 * n + 1
    top = range(1, width + 1)
    bottom = range(width + 1, 2 * width + 1)
    pairs = [(a, a + 1) for a in top[:-1]]
    pairs += [(b, b + 1) for b in bottom[:-1]]
    pairs += [(top[k], bottom[k]) for k in range(0, width, 2)]
    weights = np.random.default_rng([seed, n]).uniform(*WEIGHT_RANGE, len(pairs))
    return [(i, j, float(w)) for (i, j), w in zip(pairs, weights)]


def acene_yaml(n, seed):
    """Molecule-file text for the n-ring acene named `acene<n>`, no classes.

    The random weights break the acene's symmetry, so every site is its own
    equivalence class; weights print with repr so they round-trip exactly.
    """
    edges = acene_edges(n, seed)
    lines = [f"name: acene{n}", f"nodes: {4 * n + 2}", "edges:"]
    lines += [f"  - [{i}, {j}, {w!r}]" for i, j, w in edges]
    return "\n".join(lines) + "\n"


def write_acene(directory, n, seed):
    """Write acene<n>.yaml into `directory` and return its path."""
    path = directory / f"acene{n}.yaml"
    path.write_text(acene_yaml(n, seed), encoding="utf-8")
    return path
