import importlib
import pkgutil

import pytest

import knodel

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(knodel.__path__) if info.name != "__main__"
)


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from knodel import *", namespace)
    assert set(knodel.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"knodel.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
