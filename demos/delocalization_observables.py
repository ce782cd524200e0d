"""
Delocalization observables on a bond-weighted ring
==================================================

Evolves a walker ensemble on benzene and naphthalene and tracks the two
per-site observables: MAXP (best single-walker occupancy of a site) and
TRP (trimmed mean occupancy over the other walkers).
"""

import numpy as np

import arenewalk as aw

# benzene: six equivalent sites, all bonds 1.468
g = aw.load_molecule("benzene")
prop = aw.propagator(aw.hamiltonian(g))
series = aw.time_series(prop, t_max=20.0, dt=0.01)

print("benzene, site C1")
print(f"{'t':>6} {'maxp':>8} {'trp':>8}")
obs = aw.observe(prop, t_max=20.0, dt=0.01)
for i in range(0, 600, 100):
    print(f"{obs.times[i]:6.2f} {obs.maxp[i, 0]:8.4f} {obs.trp[i, 0]:8.4f}")

# the ring walk revives: occupancies return to their t = 0 pattern
T = aw.detect_period(series)
print(f"\nrevival time: {T:.2f}")
i = int(round(T / 0.01))
print(f"deviation from the initial ensemble at T: {np.abs(series.matrices[i] - np.eye(6)).max():.2e}")

# naphthalene has incommensurate mode gaps, so no revival shows up
g2 = aw.load_molecule("naphthalene")
series2 = aw.time_series(aw.propagator(aw.hamiltonian(g2)), t_max=200.0, dt=0.01)
print(f"\nnaphthalene revival below 0.05 on [0, 200]: {aw.detect_period(series2, revival_tol=0.05)}")

# per-site time means separate the three naphthalene site families
print("\nnaphthalene site means")
print(f"{'site':>4} {'class':>6} {'maxp_mean':>10} {'trp_mean':>9}")
for rep in aw.site_reports(g2, series2):
    print(f"{rep.node:>4} {rep.class_id:>6} {rep.maxp_mean:10.6f} {rep.trp_mean:9.6f}")
