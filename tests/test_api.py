"""The package's public names."""
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
