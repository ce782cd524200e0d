"""Quantum walks on bond-order-weighted aromatic hydrocarbon graphs.

Continuous-time walks (Laplacian generator, exact spectral propagator)
produce per-site MAXP/TRP observables, delocalization-mode matches and a
cross-molecule stability order; a directed discrete-time walk ranks
sites by reactivity. Badger's power law converts a local stretching
force constant to a relative bond strength order.
"""

__version__ = "0.1.0"

from .bondorder import badger_bond_order
from .ctqw import (
    Propagator,
    evolve_ensemble,
    hamiltonian,
    propagator,
    unitary,
)
from .dtqw import NodeRanking, rank_nodes
from .errors import ComputationError
from .graphs import (
    CATALOG,
    MoleculeGraph,
    load_molecule,
)
from .metrics import (
    ModeReport,
    SiteObservables,
    SiteReport,
    StabilityEntry,
    StabilityReport,
    classify_modes,
    detect_period,
    observe,
    site_reports,
    stability_entry,
    stability_order,
)

__all__ = [
    "CATALOG",
    "ComputationError",
    "ModeReport",
    "MoleculeGraph",
    "NodeRanking",
    "Propagator",
    "SiteObservables",
    "SiteReport",
    "StabilityEntry",
    "StabilityReport",
    "badger_bond_order",
    "classify_modes",
    "detect_period",
    "evolve_ensemble",
    "hamiltonian",
    "load_molecule",
    "observe",
    "propagator",
    "rank_nodes",
    "site_reports",
    "stability_entry",
    "stability_order",
    "unitary",
]
