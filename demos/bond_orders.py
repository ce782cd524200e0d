"""
Bond orders from force constants
================================

The power-law rule BO = 0.29909 * k^0.86585 converts a local stretching
force constant into a relative bond strength order, calibrated so a
single bond scores 1 and a double bond 2.
"""

import arenewalk as aw

# forward rule on a few force constants (mdyn/A convention)
print(f"{'k':>8} {'bond order':>11}")
for k in (4.0313, 5.2, 6.5, 8.9706):
    print(f"{k:8.4f} {aw.badger_bond_order(k):11.4f}")

# inverse: what force constant would an aromatic 1.468 bond need?
k_aromatic = aw.badger_force_constant(1.468)
print(f"\nBO 1.468 -> k = {k_aromatic:.4f}")
print(f"round trip: {aw.badger_bond_order(k_aromatic):.4f}")
