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


def test_result_records_hold_no_echoed_inputs():
    # the caller passed the molecule, start and coin in; low is the
    # complement of high, and the split's method and threshold had no reader
    fields = {record: {f.name for f in dataclasses.fields(record)}
              for record in (aw.NodeRanking, aw.ModeReport)}
    assert fields[aw.NodeRanking] == {"nodes", "labels", "scores", "ranks", "steps"}
    assert fields[aw.ModeReport] == {"high", "matched"}
