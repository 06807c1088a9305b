"""The package namespace: every exported name resolves."""

import bouwmoller


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bouwmoller import *", namespace)
    assert [name for name in bouwmoller.__all__ if name not in namespace] == []
    assert len(set(bouwmoller.__all__)) == len(bouwmoller.__all__)
