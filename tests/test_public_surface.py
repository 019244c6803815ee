import importlib

import pytest

MODULES = ("basis", "certificates", "cli", "experiments", "operators",
           "regularizers", "solvers")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"l1coreg.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from l1coreg.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
