"""
Molecular stability from mean trimmed occupancy
===============================================

A molecule that keeps the walker ensemble spread out scores a higher
overall mean TRP. Ranking the catalog by that score reproduces the
aromatic stability order, with a 2% band treated as a tie.
"""

import arenewalk as aw

entries = []
for name in aw.CATALOG:
    g = aw.load_molecule(name)
    prop = aw.propagator(aw.hamiltonian(g))
    entries.append(aw.stability_entry(g, prop, t_max=200.0, dt=0.01))
    print(f"{name:13s} mean TRP {entries[-1].mean_trp:.8f}")

report = aw.stability_order(entries)
print()
print(report.order_string())
for row in report.rows:
    tie = " (tied with previous)" if row.tied_with_previous else ""
    print(f"  rank {row.rank}: {row.molecule}{tie}")
