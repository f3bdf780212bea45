import types

import mvcontract


def test_every_public_name_is_exported():
    bound = {
        name for name, value in vars(mvcontract).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(mvcontract.__all__)
