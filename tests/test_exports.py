"""The package namespace: every exported name resolves."""

import importlib
import pkgutil

import bouwmoller


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bouwmoller import *", namespace)
    assert [name for name in bouwmoller.__all__ if name not in namespace] == []
    assert len(set(bouwmoller.__all__)) == len(bouwmoller.__all__)


def test_the_package_keeps_the_one_export_list():
    names = [info.name for info in pkgutil.iter_modules(bouwmoller.__path__)]
    assert "farey" in names and "renorm" in names
    for name in names:
        module = importlib.import_module(f"bouwmoller.{name}")
        assert not hasattr(module, "__all__"), name
    assert bouwmoller.__all__ == sorted(bouwmoller.__all__)
