import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

MODULES = ("basis", "certificates", "cli", "experiments", "operators",
           "regularizers", "solvers")

ROOT = Path(__file__).resolve().parents[1]

#: Exported names that no pipeline code calls yet.  ``check_norm_bound`` is
#: the paper's restricted-injectivity bound; ROADMAP item 6 reports its two
#: sides per sweep record.
UNCALLED_ALLOWED = {"check_norm_bound"}

#: Exported names that only the benchmark under ``perfbench/`` reads, kept
#: for it until its next change; the library itself reads ``op.matrix``.
BENCHMARK_ONLY = {"materialize"}

#: Public members of exported classes that only the benchmark reads:
#: ``perfbench/workloads.py`` calls ``a.apply``.
BENCHMARK_ONLY_MEMBERS = {"DenseMap.apply"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"l1coreg.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from l1coreg.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _names_loaded_in_src():
    """Every name and attribute that code under ``src/l1coreg`` reads."""
    loaded = set()
    for path in (ROOT / "src" / "l1coreg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def _named_in_perfbench(name):
    perfbench = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    return re.search(rf"\b{re.escape(name)}\b", perfbench) is not None


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    # the library ships pipeline code only: an exported name is used by the
    # library itself or named by the benchmark, else it belongs in the tests
    module = importlib.import_module(f"l1coreg.{name}")
    loaded = _names_loaded_in_src()
    uncalled = [
        n for n in module.__all__
        if n not in loaded
        and n not in UNCALLED_ALLOWED
        and not _named_in_perfbench(n)
    ]
    assert uncalled == []


def test_benchmark_only_exports():
    # the exports that only the benchmark keeps alive, to go with its change
    loaded = _names_loaded_in_src()
    exports = {
        n
        for name in MODULES
        for n in importlib.import_module(f"l1coreg.{name}").__all__
    }
    assert {
        n for n in exports if n not in loaded and _named_in_perfbench(n)
    } == BENCHMARK_ONLY


def _public_members():
    """``(Class.member, member)`` for each public method and property that an
    exported class defines."""
    for name in MODULES:
        module = importlib.import_module(f"l1coreg.{name}")
        for export in module.__all__:
            cls = getattr(module, export)
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(obj) or isinstance(obj, property)
                ):
                    yield f"{export}.{attr}", attr


def test_every_public_member_has_a_reader():
    # a method or property is read by the library, or only by the benchmark
    # until its next change; the library reads an operator's matrix itself
    loaded = _names_loaded_in_src()
    unread = {qual for qual, attr in _public_members() if attr not in loaded}
    assert unread == BENCHMARK_ONLY_MEMBERS
    assert all(_named_in_perfbench(q.split(".")[1]) for q in BENCHMARK_ONLY_MEMBERS)


def test_benchmark_builds_its_instances(monkeypatch):
    # what the benchmark calls of the library before it checks a command:
    # DenseMap.apply through build_instances and materialize through
    # dense_instance
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    for forward in ("identity", "integration"):
        cmd = workloads.Command("solve", "strict", 32, 24, 2, 1, forward=forward,
                                deltas=(1e-2,))
        [(basis, _, w, a, phantom, noisy)] = workloads.build_instances([cmd])
        phi, w_mat, a_mat = checks.dense_instance(basis, w, a)
        np.testing.assert_array_equal(phi, basis.matrix)
        assert w_mat is w.matrix and a_mat is a.matrix
        [y_delta] = noisy
        residual = np.linalg.norm(y_delta - a_mat @ phantom.h_star)
        assert residual == pytest.approx(1e-2, rel=1e-12)
