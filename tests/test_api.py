"""The package's public names."""
import dataclasses
import types

import arenewalk as aw


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(aw).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(aw.__all__) == sorted(bound)
    assert not hasattr(aw, "Hamiltonian")
    assert not hasattr(aw, "wilson_residual")
    assert not hasattr(aw, "local_force_constants")
    assert not hasattr(aw.bondorder, "COND_LIMIT")
    assert not hasattr(aw, "laplacian")
    assert not hasattr(aw.graphs, "laplacian")
    assert not hasattr(aw, "badger_force_constant")
    assert not hasattr(aw.bondorder, "badger_force_constant")
    assert not hasattr(aw, "evolve")
    # read only by classify_modes, which keeps them private
    assert not hasattr(aw, "MODE_CATALOG")
    assert not hasattr(aw, "ModePattern")
    assert not hasattr(aw.metrics, "MODE_CATALOG")
    assert not hasattr(aw.metrics, "ModePattern")
    # module functions, read by the library and its tests only
    assert not hasattr(aw, "site_observables")
    assert not hasattr(aw, "degrees")
    assert not hasattr(aw, "weighted_degrees")
    assert len(aw.__all__) == 23


def test_mode_patterns_hold_no_description():
    # nothing read the patterns' descriptions
    fields = {f.name for f in dataclasses.fields(aw.metrics._ModePattern)}
    assert fields == {"mode_id", "endpoints"}


def test_result_records_hold_no_echoed_inputs():
    # the caller passed the molecule, start and coin in; low is the
    # complement of high, and the split's method and threshold had no reader
    fields = {record: {f.name for f in dataclasses.fields(record)}
              for record in (aw.NodeRanking, aw.ModeReport)}
    assert fields[aw.NodeRanking] == {"nodes", "labels", "scores", "ranks", "steps"}
    assert fields[aw.ModeReport] == {"high", "matched"}
