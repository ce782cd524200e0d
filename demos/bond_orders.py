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
