"""The package's public surface: every name in __all__ resolves, once."""

import riccstab


def test_every_public_name_resolves_once():
    assert len(riccstab.__all__) == len(set(riccstab.__all__))
    namespace = {}
    exec("from riccstab import *", namespace)  # raises on a name the package lacks
    assert set(riccstab.__all__) <= set(namespace)
