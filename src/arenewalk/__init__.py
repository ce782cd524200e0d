"""Quantum walks on bond-order-weighted aromatic hydrocarbon graphs.

Continuous-time walks (Laplacian generator, exact spectral propagator)
produce per-site MAXP/TRP observables, delocalization-mode matches and a
cross-molecule stability order; a directed discrete-time walk ranks
sites by reactivity. A small bond-order toolbox converts local-mode
force constants to relative bond strength orders.
"""

__version__ = "0.1.0"

from .bondorder import (
    badger_bond_order,
    badger_force_constant,
    local_force_constants,
    wilson_residual,
)
from .ctqw import (
    EvolutionSeries,
    Hamiltonian,
    Propagator,
    evolve,
    evolve_ensemble,
    hamiltonian,
    propagator,
    time_series,
    unitary,
)
from .dtqw import NodeRanking, rank_nodes
from .errors import ComputationError
from .graphs import (
    CATALOG,
    MoleculeGraph,
    degrees,
    laplacian,
    load_molecule,
    weighted_degrees,
)
from .metrics import (
    MODE_CATALOG,
    ModePattern,
    ModeReport,
    SiteObservables,
    SiteReport,
    StabilityEntry,
    StabilityReport,
    classify_modes,
    detect_period,
    observe,
    site_observables,
    site_reports,
    stability_entry,
    stability_order,
)

__all__ = [
    "CATALOG",
    "ComputationError",
    "EvolutionSeries",
    "Hamiltonian",
    "MODE_CATALOG",
    "ModePattern",
    "ModeReport",
    "MoleculeGraph",
    "NodeRanking",
    "Propagator",
    "SiteObservables",
    "SiteReport",
    "StabilityEntry",
    "StabilityReport",
    "badger_bond_order",
    "badger_force_constant",
    "classify_modes",
    "degrees",
    "detect_period",
    "evolve",
    "evolve_ensemble",
    "hamiltonian",
    "laplacian",
    "load_molecule",
    "local_force_constants",
    "observe",
    "propagator",
    "rank_nodes",
    "site_observables",
    "site_reports",
    "stability_entry",
    "stability_order",
    "time_series",
    "unitary",
    "weighted_degrees",
    "wilson_residual",
]
