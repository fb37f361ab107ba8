"""The package's public surface: every exported name resolves."""
import diracband


def test_every_exported_name_resolves():
    missing = [name for name in diracband.__all__ if not hasattr(diracband, name)]
    assert not missing


def test_star_import_exports_all():
    namespace = {}
    exec("from diracband import *", namespace)
    assert set(diracband.__all__) <= set(namespace)
