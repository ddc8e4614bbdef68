"""Each library module's __all__ is the only list of its public names.

knodel.__all__ is their union, pinned to 31 names, and the index calculus is
defined in sequences.py only.  Every exported name has a caller: code in
src/knodel/ reads it, or README.md names it.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


LIBRARY = [name for name in MODULES if name != "cli"]


@pytest.mark.parametrize("name", LIBRARY)
def test_library_module_lists_its_public_names(name):
    assert isinstance(importlib.import_module(f"knodel.{name}").__all__, list)


def test_package_exports_exactly_the_library_lists():
    lists = [importlib.import_module(f"knodel.{name}").__all__ for name in LIBRARY]
    assert len(knodel.__all__) == len(set(knodel.__all__))
    assert set(knodel.__all__) == set().union(*lists)


@pytest.mark.parametrize("name", LIBRARY)
def test_package_names_are_the_module_objects(name):
    module = importlib.import_module(f"knodel.{name}")
    for attr in module.__all__:
        assert getattr(knodel, attr) is getattr(module, attr), attr


PUBLIC_NAMES = [
    "ConstructionError", "CyclicSequence", "EXCEPTIONAL_ORDERS", "GammaFormulaResult",
    "KnodelGraph", "SequenceClass", "Side", "SolveResult", "Vertex", "VertexSet",
    "build_graph", "canonical_certificate", "closed_neighborhood",
    "colliding_pairs", "common_neighbor_predicate", "common_neighbors",
    "construct_dominating_set", "cyclic_sequence", "enumerate_sequences",
    "gamma_bounds", "gamma_formula", "greedy_upper_bound", "index_distance",
    "is_dominating", "m_delta", "neighbors", "reconstruct_positions", "solve_exact",
    "u", "undominated", "v",
]


def test_package_public_names_are_pinned():
    assert sorted(knodel.__all__) == PUBLIC_NAMES


def test_every_export_has_a_caller():
    # A name counts where code uses it as a name or an attribute; its def, an
    # import, an __all__ string or a docstring mention does not.
    used = set()
    for path in Path(knodel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\w+", readme))
    assert sorted(set(knodel.__all__) - used - named) == []


CALCULUS = [
    "m_delta",
    "index_distance",
    "CyclicSequence",
    "cyclic_sequence",
    "common_neighbor_predicate",
    "common_neighbors",
]


@pytest.mark.parametrize("name", CALCULUS)
def test_index_calculus_is_defined_in_sequences(name):
    obj = getattr(knodel.sequences, name)
    assert getattr(knodel, name) is obj
    assert obj.__module__ == "knodel.sequences"
    assert name not in knodel.graphs.__all__
