"""The package's seven record classes against the frozen dataclasses they replaced.

Vertex, KnodelGraph, VertexSet, GammaFormulaResult, SolveResult,
CyclicSequence and SequenceClass are plain classes on graphs._Record, so that
importing knodel.cli never loads dataclasses (and with it inspect).  Each has
a reference twin here, built with dataclasses as the package once defined
it; repr, ==, hash, ordering, __match_args__, keyword construction and
immutability must agree with the twin.  Every record must survive pickle,
copy and deepcopy.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, field, fields, make_dataclass
from itertools import product
from pathlib import Path

import pytest

import knodel
from knodel import (
    CyclicSequence,
    GammaFormulaResult,
    KnodelGraph,
    SequenceClass,
    Side,
    SolveResult,
    Vertex,
    VertexSet,
    build_graph,
    canonical_certificate,
    enumerate_sequences,
    gamma_formula,
    solve_exact,
    u,
    v,
)


def twin(name, names, order=False):
    """A frozen dataclass with the given field names; a (name, default) pair
    gives that field a default, as `mask: int = 0` did for VertexSet."""
    specs = [n if isinstance(n, str) else (n[0], object, field(default=n[1])) for n in names]
    return make_dataclass(name, specs, frozen=True, order=order)


TWINS = {
    Vertex: twin("Vertex", ["side", "index"], order=True),
    KnodelGraph: twin("KnodelGraph", ["delta", "n"]),
    VertexSet: twin("VertexSet", ["graph", ("mask", 0)]),
    GammaFormulaResult: twin(
        "GammaFormulaResult", ["n", "t", "residue", "addend", "value", "exceptional"]
    ),
    SolveResult: twin("SolveResult", ["value", "lower", "certificate", "nodes_explored"]),
    CyclicSequence: twin("CyclicSequence", ["gaps", "half"]),
    SequenceClass: twin("SequenceClass", ["canonical", "parts_in_m", "adjacent_sums_in_m"]),
}

G16, G18 = build_graph(4, 16), build_graph(4, 18)
FILLED = build_graph(4, 30)
FILLED.cover_masks  # a graph whose cached tables are already in its __dict__


@pytest.fixture(scope="module")
def samples():
    # Built in a fixture, not at import, so that the per-test timeout
    # covers the solves.
    return {
        Vertex: [u(1), u(2), v(1), v(2), Vertex(Side.U, 1), Vertex(Side.V, 8)],
        KnodelGraph: [G16, G18, build_graph(3, 16), KnodelGraph(4, 16), FILLED],
        VertexSet: [VertexSet(G16), VertexSet(G16, 5), VertexSet(G18, 5), VertexSet(G16, 0)],
        GammaFormulaResult: [gamma_formula(16), gamma_formula(48), gamma_formula(16)],
        SolveResult: [
            solve_exact(G16),
            solve_exact(G18),
            SolveResult(None, 4, VertexSet(G18, 0b11111), 7),
            SolveResult(None, 4, VertexSet(G18, 0b11111), 7),
        ],
        CyclicSequence: [
            CyclicSequence((1, 2, 3), 6),
            CyclicSequence((2, 3, 1), 6),
            CyclicSequence([1, 2, 3], 6),
            CyclicSequence((1, 2), 3),
        ],
        SequenceClass: enumerate_sequences(3, 15, 1, 3) + enumerate_sequences(3, 15, 1, 3)[:1],
    }


CLASSES = list(TWINS)
IDS = [cls.__name__ for cls in CLASSES]


def values(record):
    return tuple(getattr(record, f.name) for f in fields(TWINS[type(record)]))


def as_twin(record):
    return TWINS[type(record)](*values(record))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_eq_and_hash_match_the_dataclass(cls, samples):
    records = samples[cls]
    for a in records:
        assert repr(a) == repr(as_twin(a))
        assert hash(a) == hash(as_twin(a))
        assert a != as_twin(a) and as_twin(a) != a
        assert a != values(a)
    for a, b in product(records, repeat=2):
        assert (a == b, a != b) == (as_twin(a) == as_twin(b), as_twin(a) != as_twin(b))


def test_reprs_are_pinned():
    assert repr(u(3)) == "Vertex(side=<Side.U: 'u'>, index=3)"
    assert repr(VertexSet(G16, 3)) == "VertexSet(graph=KnodelGraph(delta=4, n=16), mask=3)"
    assert repr(CyclicSequence([1, 2], 3)) == "CyclicSequence(gaps=(1, 2), half=3)"
    with pytest.raises(ValueError) as info:
        canonical_certificate(G16, 3)
    assert str(info.value) == "no dominating set of size 3 exists in KnodelGraph(delta=4, n=16)"


def test_vertex_ordering_matches_the_dataclass_over_mixed_sides():
    vertices = [Vertex(side, i) for side in (Side.V, Side.U) for i in (3, 1, 2)]
    for a, b in product(vertices, repeat=2):
        ta, tb = as_twin(a), as_twin(b)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert sorted(vertices) == [u(1), u(2), u(3), v(1), v(2), v(3)]
    assert [as_twin(x) for x in sorted(vertices)] == sorted(map(as_twin, vertices))
    for other in ((Side.U, 1), as_twin(u(1))):
        with pytest.raises(TypeError):
            u(1) < other


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_match_args_and_keyword_construction_match_the_dataclass(cls, samples):
    assert cls.__match_args__ == TWINS[cls].__match_args__
    for record in samples[cls]:
        assert cls(**dict(zip(cls.__match_args__, values(record)))) == record


def test_class_patterns_bind_fields_by_position():
    match u(3), VertexSet(G16, 5):
        case Vertex(side, index), VertexSet(graph, mask):
            assert (side, index, graph, mask) == (Side.U, 3, G16, 5)
        case _:
            pytest.fail("class patterns did not match")


def test_vertex_set_mask_defaults_to_zero_like_the_dataclass():
    assert VertexSet(G16).mask == VertexSet(graph=G16).mask == TWINS[VertexSet](G16).mask == 0


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, samples):
    record = samples[cls][0]
    for target in (record, as_twin(record)):
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, name)
    with pytest.raises(FrozenInstanceError):
        as_twin(record).extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, samples):
    for record in samples[cls]:
        for clone in (
            pickle.loads(pickle.dumps(record)),
            pickle.loads(pickle.dumps(record, protocol=0)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(clone) is cls
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)


def test_a_copied_graph_rebuilds_its_cached_tables():
    assert {"cover_masks", "_constants"} <= vars(FILLED).keys()
    # W(4, 30): half, u_mask, top, closed_cover's (down, up) steps and the
    # (off, half - off) shifts.
    steps, shifts = ((4, 1), (2, 2), (1, 4)), ((0, 15), (1, 14), (3, 12), (7, 8))
    assert FILLED._constants == (15, 2**15 - 1, 7, steps, shifts)
    for clone in (pickle.loads(pickle.dumps(FILLED)), copy.deepcopy(FILLED)):
        assert "_constants" not in vars(clone)
        assert clone._constants == FILLED._constants
        assert clone.cover_masks == FILLED.cover_masks
        assert clone.near_masks == FILLED.near_masks


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S keeps site's own imports out of the check.
    env = dict(os.environ, PYTHONPATH=str(Path(knodel.__file__).parents[1]))
    code = "import sys, knodel.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
