"""Each library module's __all__ is the only list of its public names.

knodel.__all__ is their union, pinned to 31 names, and the index calculus is
defined in sequences.py only.  Every exported name, and every public member of
an exported class, has a caller: code in src/knodel/ reads it, or README.md
names it in a code span or fenced block.
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


def _read_in_source():
    """Names src/knodel/ loads, and attribute names it loads; a def, an
    import, an assignment, an __all__ string or a docstring does not count."""
    names, attrs = set(), set()
    for path in Path(knodel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def _code_words(markdown):
    """Words in the fenced blocks and inline code spans of markdown, not its prose."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    code = fence.findall(markdown) + re.findall(r"`([^`]+)`", fence.sub("", markdown))
    return set(re.findall(r"\w+", "\n".join(code)))


def test_readme_names_count_only_in_code():
    markdown = "prose `span_a` words\n\n```python\n>>> fenced_b.c\n```\n\nmore `span d`\n"
    assert _code_words(markdown) == {"span_a", "fenced_b", "c", "span", "d"}


def _public_members(cls):
    """Record fields, and the public methods and properties that a knodel
    class on cls's MRO defines; enum members are values, not members."""
    members = set(getattr(cls, "__match_args__", ()))
    for klass in cls.__mro__:
        if klass.__module__.startswith("knodel."):
            members.update(
                name for name in vars(klass)
                if not name.startswith("_") and not isinstance(getattr(cls, name), cls)
            )
    return members


def test_every_export_has_a_caller():
    # A member counts for every class that has its name, so one that shares
    # its name with an attribute code reads elsewhere (str.upper) passes here.
    names, attrs = _read_in_source()
    named = _code_words((Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8"))
    unused = sorted(set(knodel.__all__) - names - attrs - named)
    for cls in (obj for obj in map(knodel.__dict__.get, knodel.__all__) if isinstance(obj, type)):
        unused += [f"{cls.__name__}.{m}" for m in sorted(_public_members(cls) - attrs - named)]
    assert unused == []


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
