import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knodel import (
    CyclicSequence,
    Side,
    Vertex,
    build_graph,
    common_neighbor_predicate,
    common_neighbors,
    cyclic_sequence,
    index_distance,
    m_delta,
    neighbors,
    u,
    v,
)
from oracles import small_graphs


@pytest.mark.parametrize("delta,n", [(1, 2), (2, 4), (3, 8), (4, 16), (5, 32), (4, 46)])
def test_build_graph_accepts_valid_parameters(delta, n):
    g = build_graph(delta, n)
    assert g.half == n // 2
    assert g.offsets == tuple(2**k - 1 for k in range(delta))


@pytest.mark.parametrize(
    "delta,n",
    [
        (4, 15), (4, 14), (0, 16), (4, 0), (5, 16), (6, 32), (3, -8), (2, 3),
        (True, 16), (4, 16.0), (20000, 16), (10**12, 16),
    ],
)
def test_build_graph_rejects_invalid_parameters(delta, n):
    with pytest.raises(ValueError):
        build_graph(delta, n)


def test_build_graph_names_the_order_bound_without_computing_it():
    # 2**20000 has more decimal digits than int -> str allows by default.
    message = r"^degree 20000 requires order at least 2\*\*20000, got 16$"
    with pytest.raises(ValueError, match=message):
        build_graph(20000, 16)


def test_neighbors_known_values():
    g = build_graph(4, 46)
    assert neighbors(g, u(8)) == {v(8), v(9), v(11), v(15)}
    assert neighbors(g, u(3)) == {v(3), v(4), v(6), v(10)}
    assert neighbors(build_graph(4, 16), u(6)) == {v(6), v(7), v(1), v(5)}
    assert neighbors(build_graph(4, 20), v(5)) == {u(5), u(4), u(2), u(8)}


def test_neighbors_rejects_out_of_range_vertices():
    g = build_graph(4, 16)
    for x in (u(0), u(9), v(0), v(9), u(-3), u(2.0), v(True)):
        with pytest.raises(ValueError):
            neighbors(g, x)
    for x in ("u1", ("u", 1), 0, None):
        with pytest.raises(ValueError, match=r"^not a vertex: "):
            neighbors(g, x)
        with pytest.raises(ValueError, match=r"^not a vertex: "):
            g.slot(x)


@pytest.mark.parametrize("index", [2.0, True, "2", None])
def test_check_vertex_rejects_indices_that_are_not_integers(index):
    g = build_graph(4, 16)
    with pytest.raises(ValueError, match=f"^vertex index must be an integer, got {index!r}$"):
        g.slot(Vertex(Side.U, index))


def test_a_side_equal_to_a_member_maps_to_its_own_half():
    g = build_graph(4, 16)
    assert Vertex("u", 1) == u(1) and hash(Vertex("u", 1)) == hash(u(1))
    assert g.slot(Vertex("u", 1)) == 0 and g.slot(Vertex("v", 1)) == 8
    assert Vertex("v", 3).side is Side.V


@pytest.mark.parametrize("side", ["w", "U", "", 1, None])
def test_vertex_rejects_a_side_that_is_not_u_or_v(side):
    with pytest.raises(ValueError, match=f"^vertex side must be Side.U or Side.V, got {side!r}$"):
        Vertex(side, 1)


def test_adjacency_is_regular_bipartite_and_symmetric_up_to_64():
    for n in range(2, 65, 2):
        for delta in range(1, int(math.log2(n)) + 1):
            g = build_graph(delta, n)
            for x in map(g.vertex_at, range(g.n)):
                ns = neighbors(g, x)
                assert len(ns) == delta
                assert all(y.side is not x.side for y in ns)
                assert all(x in neighbors(g, y) for y in ns)


def test_neighbor_slots_follow_the_offset_rule_up_to_64():
    # u_i ~ v_j iff (j - i) mod n/2 is 2**k - 1 for some k < delta, checked
    # over all pairs; slot i < n/2 is u_{i+1} and slot n/2 + j is v_{j+1}.
    for n in range(2, 65, 2):
        half = n // 2
        for delta in range(1, int(math.log2(n)) + 1):
            g = build_graph(delta, n)
            offsets = [2**k - 1 for k in range(delta)]
            for i in range(half):
                expected = [
                    half + j for off in offsets for j in range(half)
                    if (j - i) % half == off
                ]
                assert g.neighbor_slots(i) == tuple(expected)
                expected = [
                    j for off in offsets for j in range(half)
                    if (i - j) % half == off
                ]
                assert g.neighbor_slots(half + i) == tuple(expected)
            for slot in (-1, n):
                with pytest.raises(ValueError):
                    g.neighbor_slots(slot)
                with pytest.raises(ValueError, match=rf"^slot {slot} out of range \[0, {n}\)$"):
                    g.vertex_at(slot)


def _closed_mask(g, x):
    """Slot bitmask of {x} | neighbors(g, x), built element by element."""
    return sum(1 << g.slot(y) for y in neighbors(g, x) | {x})


def test_closed_cover_of_each_slot_is_its_closed_neighborhood_up_to_64():
    for n in range(2, 65, 2):
        for delta in range(1, int(math.log2(n)) + 1):
            g = build_graph(delta, n)
            for x in map(g.vertex_at, range(g.n)):
                assert g.closed_cover(1 << g.slot(x)) == _closed_mask(g, x)


@given(small_graphs(), st.data())
def test_closed_cover_of_a_set_is_the_union_of_its_members(g, data):
    mask = data.draw(st.integers(0, g.full_mask))
    expected = 0
    for x in map(g.vertex_at, range(g.n)):
        if mask >> g.slot(x) & 1:
            expected |= _closed_mask(g, x)
    assert g.closed_cover(mask) == expected
    # The counts sum the rotations: x counts its closed neighbours in the mask.
    planes = g.cover_counts(mask)
    for x in map(g.vertex_at, range(g.n)):
        hits = sum((plane >> g.slot(x) & 1) << i for i, plane in enumerate(planes))
        assert hits == (_closed_mask(g, x) & mask).bit_count()


@pytest.mark.parametrize(
    "delta,n",
    [(delta, n) for delta in range(1, 7) for n in range(2**delta, 65, 2)]
    + [(delta, n) for delta in range(7, 11) for n in (2**delta, 2**delta + 2)],
)
def test_twice_covered_and_closed_cover_count_closed_neighbours(delta, n):
    # Random masks from dense to sparse on every valid graph with n <= 64,
    # and for delta 7..10 at n = 2**delta, where the largest offset is
    # n/2 - 1 and the chains are longest, and at 2**delta + 2: slot y is in
    # closed_cover when |N[y] & mask| >= 1 and in twice_covered when it is
    # >= 2, the count built from neighbor_slots.
    g = build_graph(delta, n)
    rng = random.Random(n * 10 + delta)
    masks = [0, g.full_mask, g.u_mask, g.full_mask ^ g.u_mask]
    for _ in range(30):
        mask = rng.getrandbits(n)
        for _ in range(rng.randint(0, 3)):
            mask &= rng.getrandbits(n)
        masks.append(mask)
    for mask in masks:
        once = twice = 0
        for y in range(n):
            hits = (mask >> y & 1) + sum(mask >> z & 1 for z in g.neighbor_slots(y))
            once |= (hits >= 1) << y
            twice |= (hits >= 2) << y
        assert g.closed_cover(mask) == once
        assert g.twice_covered(mask) == twice


@pytest.mark.parametrize(
    "delta,n",
    [(delta, n) for delta in range(1, 7) for n in range(2**delta, 65, 2)] + [(4, 1002), (7, 256)],
)
def test_cover_and_near_tables_are_closed_cover_per_slot(delta, n):
    # The tables rotate the rows of u_1 and v_1; the reference is the per-slot
    # build they replace.
    g = build_graph(delta, n)
    cover, near = g.cover_masks, g.near_masks
    assert len(cover) == len(near) == n
    for s in range(n):
        assert cover[s] == g.closed_cover(1 << s)
        assert near[s] == g.closed_cover(cover[s])


@pytest.mark.parametrize("delta,n", [(4, 2**21 - 2), (4, 2**21), (21, 2**21)])
def test_closed_cover_of_sparse_masks_at_the_order_limit(delta, n):
    # W(21, 2**21)'s largest offset, 2**20 - 1, is half - 1.  Slots 0,
    # half - 1, half and n - 1 are where the rotations wrap.  The reference
    # is the union of each member and its neighbor_slots, set byte by byte.
    g = build_graph(delta, n)
    half = n // 2
    rng = random.Random(n + delta)
    for _ in range(3):
        members = {0, half - 1, half, n - 1, *rng.sample(range(n), rng.randint(0, 64))}
        flags = bytearray(-(-n // 8))
        for s in members:
            for t in (s, *g.neighbor_slots(s)):
                flags[t >> 3] |= 1 << (t & 7)
        mask = sum(1 << s for s in members)
        assert g.closed_cover(mask) == int.from_bytes(flags, "little")


@given(small_graphs(), st.data())
def test_cover_counts_are_the_closed_neighbourhood_counts(g, data):
    # Bit x of plane i is bit i of |N[x] & mask|, for greedy and the solver.
    mask = data.draw(st.integers(0, g.full_mask))
    planes = g.cover_counts(mask)
    assert len(planes) == (g.delta + 1).bit_length()
    assert all(plane >> g.n == 0 for plane in planes)
    for x in range(g.n):
        count = sum((plane >> x & 1) << i for i, plane in enumerate(planes))
        assert count == (g.closed_cover(1 << x) & mask).bit_count()


def test_m_delta_known_values():
    assert m_delta(4) == {1, 2, 3, 4, 6, 7}
    assert m_delta(2) == {1}
    assert m_delta(3) == {1, 2, 3}


def test_m_delta_cardinality_shows_differences_are_distinct():
    for delta in range(2, 11):
        assert len(m_delta(delta)) == delta * (delta - 1) // 2


@pytest.mark.parametrize("delta", [0, 1])
def test_m_delta_rejects_degenerate_degrees(delta):
    with pytest.raises(ValueError):
        m_delta(delta)


def test_index_distance_known_values():
    g = build_graph(4, 26)
    assert index_distance(g, u(1), u(6)) == 5
    assert index_distance(g, u(1), u(12)) == 2
    assert index_distance(g, u(12), u(1)) == 2
    assert index_distance(build_graph(4, 38), u(1), u(7)) == 6


def test_index_distance_rejects_mixed_or_equal_vertices():
    g = build_graph(4, 26)
    with pytest.raises(ValueError):
        index_distance(g, u(1), v(1))
    with pytest.raises(ValueError):
        index_distance(g, u(5), u(5))


@given(small_graphs(), st.data())
def test_index_distance_range_and_symmetry(g, data):
    i = data.draw(st.integers(1, g.half))
    j = data.draw(st.integers(1, g.half).filter(lambda q: q != i))
    d = index_distance(g, u(i), u(j))
    assert 1 <= d <= g.half // 2
    assert d == index_distance(g, u(j), u(i))
    assert d == index_distance(g, v(i), v(j))


def test_cyclic_sequence_known_values():
    g = build_graph(4, 26)
    assert cyclic_sequence(g, [u(1), u(4), u(9)]).gaps == (3, 5, 5)
    assert cyclic_sequence(g, [u(1)]).gaps == (13,)
    g38 = build_graph(4, 38)
    assert cyclic_sequence(g38, [u(1), u(9), u(12), u(17)]).gaps == (8, 3, 5, 3)
    assert cyclic_sequence(g38, [v(1), v(9), v(12), v(17)]).gaps == (8, 3, 5, 3)


def test_cyclic_sequence_rejects_empty_or_mixed_sets():
    g = build_graph(4, 26)
    with pytest.raises(ValueError):
        cyclic_sequence(g, [])
    with pytest.raises(ValueError):
        cyclic_sequence(g, [u(1), v(2)])


@given(small_graphs(), st.data())
def test_cyclic_sequence_gaps_are_positive_and_sum_to_half(g, data):
    indices = data.draw(
        st.sets(st.integers(1, g.half), min_size=1, max_size=g.half)
    )
    seq = cyclic_sequence(g, [u(i) for i in indices])
    assert len(seq) == len(indices)
    assert all(gap >= 1 for gap in seq)
    assert sum(seq) == g.half


@given(small_graphs(), st.data())
def test_index_distance_is_a_consecutive_gap_run(g, data):
    # For chosen vertices a, b, either their index distance or its complement
    # to n/2 is the sum of a consecutive cyclic run of the gap sequence.
    indices = data.draw(st.sets(st.integers(1, g.half), min_size=2, max_size=8))
    chosen = sorted(indices)
    gaps = cyclic_sequence(g, [u(i) for i in chosen]).gaps
    k = len(gaps)
    run_sums = {
        sum(gaps[(start + q) % k] for q in range(length))
        for start in range(k)
        for length in range(1, k)
    }
    for a_pos, a_idx in enumerate(chosen):
        for b_idx in chosen[a_pos + 1 :]:
            d = index_distance(g, u(a_idx), u(b_idx))
            assert d in run_sums or g.half - d in run_sums


def test_cyclic_sequence_direct_construction_is_validated():
    CyclicSequence((3, 5, 5), 13)
    with pytest.raises(ValueError):
        CyclicSequence((3, 5, 4), 13)
    with pytest.raises(ValueError):
        CyclicSequence((), 13)
    with pytest.raises(ValueError):
        CyclicSequence((13, 0), 13)
    with pytest.raises(ValueError):
        CyclicSequence((14, -1), 13)


def test_common_neighbor_predicate_known_values():
    g = build_graph(4, 46)
    assert common_neighbor_predicate(g, u(1), u(2)) is True
    assert common_neighbor_predicate(g, u(1), u(6)) is False
    assert common_neighbor_predicate(build_graph(4, 16), u(1), u(2)) is True


def test_common_neighbors_known_values():
    g = build_graph(4, 46)
    assert common_neighbors(g, u(1), u(2)) == {v(2)}
    assert common_neighbors(g, u(1), u(6)) == frozenset()
    assert common_neighbors(g, v(1), v(2)) == {u(1)}


def test_common_neighbors_rejects_mixed_or_equal_vertices():
    g = build_graph(4, 46)
    with pytest.raises(ValueError):
        common_neighbors(g, u(1), v(2))
    with pytest.raises(ValueError):
        common_neighbor_predicate(g, u(3), u(3))


@pytest.mark.parametrize("delta,n", [(4, 16), (4, 26), (3, 16), (5, 32), (2, 12)])
def test_predicate_agrees_with_neighborhood_intersection(delta, n):
    g = build_graph(delta, n)
    side_u = [u(i) for i in range(1, g.half + 1)]
    side_v = [v(i) for i in range(1, g.half + 1)]
    for side in (side_u, side_v):
        for i, a in enumerate(side):
            for b in side[i + 1 :]:
                assert common_neighbor_predicate(g, a, b) == bool(
                    common_neighbors(g, a, b)
                )


def test_vertex_ordering_and_labels():
    assert str(u(3)) == "u3"
    assert str(v(10)) == "v10"
    assert str(Vertex("u", 1)) == "u1" and str(Vertex("v", 12)) == "v12"
    assert sorted([v(1), u(2), u(1)]) == [u(1), u(2), v(1)]
    assert u(3).side is Side.U and v(3).side is Side.V
