import tracemalloc

import pytest

from knodel import (
    EXCEPTIONAL_ORDERS,
    ConstructionError,
    VertexSet,
    build_graph,
    construct_dominating_set,
    gamma_formula,
    is_dominating,
)
from knodel.gamma4 import _verify

KNOWN_VALUES = {
    16: 4,
    18: 4,
    20: 4,
    22: 6,
    24: 6,
    26: 7,
    28: 7,
    30: 6,
    36: 8,
    38: 10,
    40: 8,
    46: 11,
    48: 12,
    50: 10,
    56: 13,
    58: 14,
    66: 15,
    78: 18,
    100: 20,
    200: 40,
}


@pytest.mark.parametrize("n,value", sorted(KNOWN_VALUES.items()))
def test_formula_known_values(n, value):
    assert gamma_formula(n).value == value


def test_formula_decomposition_fields():
    r = gamma_formula(36)
    assert (r.t, r.residue, r.addend, r.exceptional) == (3, 6, 2, True)
    r = gamma_formula(46)
    assert (r.t, r.residue, r.addend, r.exceptional) == (4, 6, 3, False)
    r = gamma_formula(20)
    assert (r.t, r.residue, r.addend, r.exceptional) == (2, 0, 0, False)
    r = gamma_formula(28)
    assert (r.addend, r.exceptional) == (3, True)
    assert gamma_formula(58).addend == 4


def test_formula_addend_by_residue_class():
    for n in range(60, 201, 2):
        r = gamma_formula(n)
        assert not r.exceptional
        expected = {0: 0, 2: 2, 4: 2, 6: 3, 8: 4}[r.residue]
        assert r.addend == expected
        assert r.value == 2 * (n // 10) + expected


@pytest.mark.parametrize("n", [15, 14, 12, 17, 0, -2, 8, 40.0, True, "40"])
def test_formula_rejects_bad_orders(n):
    # Both check n by building W(4, n), which refuses every n that is not
    # an even int of at least 2**4, bools and integral floats included.
    with pytest.raises(ValueError):
        gamma_formula(n)
    with pytest.raises(ValueError):
        construct_dominating_set(n)


def test_exceptional_orders_table_verifies():
    assert sorted(EXCEPTIONAL_ORDERS) == [16, 18, 26, 28, 36, 38]
    for n, (u_indices, v_indices) in EXCEPTIONAL_ORDERS.items():
        g = build_graph(4, n)
        ds = VertexSet.from_indices(g, u_indices, v_indices)
        assert is_dominating(g, ds)
        assert len(ds) == gamma_formula(n).value


def test_construct_known_sets():
    assert construct_dominating_set(16).u_indices == (1, 2)
    assert construct_dominating_set(16).v_indices == (6, 7)
    ds = construct_dominating_set(20)
    assert (ds.u_indices, ds.v_indices) == ((1, 6), (5, 10))
    ds = construct_dominating_set(26)
    assert (ds.u_indices, ds.v_indices) == ((1, 4, 9, 10), (1, 2, 6))
    ds = construct_dominating_set(38)
    assert (ds.u_indices, ds.v_indices) == ((1, 6, 11, 16, 18), (3, 5, 10, 13, 15))


@pytest.mark.parametrize(
    "n", sorted(set(range(16, 60, 2)) | {70, 92, 114, 136, 158, 200})
)
def test_construct_is_optimal_and_dominating(n):
    ds = construct_dominating_set(n)
    assert is_dominating(ds.graph, ds)
    assert len(ds) == gamma_formula(n).value


def test_construct_stride_shape_outside_exceptions():
    # The u side is an arithmetic progression of stride 5 starting at 1 for
    # every non-exceptional order.
    for n in range(20, 201, 2):
        if n in EXCEPTIONAL_ORDERS:
            continue
        us = construct_dominating_set(n).u_indices
        assert us[0] == 1
        assert all(b - a == 5 for a, b in zip(us, us[1:]))


def test_construction_error_carries_witnesses():
    err = ConstructionError(28, (build_graph(4, 28).vertex_at(2),))
    assert err.n == 28
    assert [str(x) for x in err.witnesses] == ["u3"]
    assert "u3" in str(err)


def per_index_construct(n):
    # Reference: construct_dominating_set's sets written out as index lists,
    # set through from_indices one store per index, then verified.
    g = build_graph(4, n)
    if n in EXCEPTIONAL_ORDERS:
        u_indices, v_indices = map(list, EXCEPTIONAL_ORDERS[n])
    else:
        t, residue = divmod(n, 10)
        if residue == 0:
            u_indices = list(range(1, 5 * t - 3, 5))
            v_indices = list(range(5, 5 * t + 1, 5))
        else:
            u_indices = list(range(1, 5 * t + 2, 5))
            extras = {2: (5 * t + 1,), 4: (3,), 6: (2, 3), 8: (3, 5 * t - 2, 5 * t + 3)}
            v_indices = [*range(5, 5 * t + 1, 5), *extras[residue]]
    ds = VertexSet.from_indices(g, u_indices, v_indices)
    _verify(g, ds, n)
    return ds


def test_construct_matches_the_per_index_build():
    # construct's geometric-series masks against the index lists: every
    # residue near 10**6 and at the order limit 2**21, and the lowest order
    # of each certify-large benchmark band, 10000 + 2501 * r for residue r.
    limit = range(2**21 - 8, 2**21 + 1, 2)
    bands = (10_000, 15_002, 20_004, 25_006, 30_008)
    for n in [*range(16, 2001, 2), *(10**6 + k for k in (0, 2, 4, 6, 8)), *limit, *bands]:
        assert construct_dominating_set(n).mask == per_index_construct(n).mask, n


def peak_bytes(build, n):
    build(2000)  # first calls fill caches that are not the build's own memory
    tracemalloc.start()
    try:
        build(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_construct_peak_memory_is_no_higher_than_the_per_index_build():
    n = 2_000_000
    assert peak_bytes(construct_dominating_set, n) <= peak_bytes(per_index_construct, n)
