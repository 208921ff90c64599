"""The package's public namespace."""

import lctplane


def test_star_import_resolves_all():
    namespace = {}
    exec("from lctplane import *", namespace)
    assert set(lctplane.__all__) <= namespace.keys()
