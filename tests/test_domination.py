import pytest
from hypothesis import given
from hypothesis import strategies as st

from knodel import (
    VertexSet,
    build_graph,
    closed_neighborhood,
    gamma_bounds,
    greedy_upper_bound,
    is_dominating,
    u,
    undominated,
    v,
)


def small_graphs():
    return st.integers(2, 5).flatmap(
        lambda delta: st.integers(2 ** (delta - 1), 32).map(
            lambda half: build_graph(delta, 2 * half)
        )
    )


def subsets_of(g):
    return st.sets(st.integers(0, g.n - 1), max_size=g.n).map(
        lambda slots: VertexSet.of(g, [g.vertex_at(s) for s in slots])
    )


def test_vertex_set_membership_and_iteration_order():
    g = build_graph(4, 16)
    s = VertexSet.from_indices(g, (2, 1), (7, 6))
    assert len(s) == 4
    assert u(1) in s and v(7) in s and u(3) not in s
    assert list(s) == [u(1), u(2), v(6), v(7)]
    assert s.u_indices == (1, 2) and s.v_indices == (6, 7)


def test_vertex_set_rejects_out_of_range_members():
    g = build_graph(4, 16)
    with pytest.raises(ValueError):
        VertexSet.from_indices(g, (0,), ())
    with pytest.raises(ValueError):
        VertexSet.from_indices(g, (), (9,))
    with pytest.raises(ValueError):
        VertexSet(g, 1 << 16)


def test_vertex_set_operations_require_matching_graphs():
    a = VertexSet.from_indices(build_graph(4, 16), (1,), ())
    b = VertexSet.from_indices(build_graph(4, 18), (1,), ())
    with pytest.raises(ValueError):
        a | b
    same = VertexSet.from_indices(build_graph(4, 16), (2,), (5,))
    assert (a | same).u_indices == (1, 2)
    assert len(a & same) == 0
    assert (same - a) == same
    assert a.issubset(a | same)


@given(small_graphs(), st.data())
def test_from_indices_inverts_u_and_v_indices(g, data):
    s = data.draw(subsets_of(g))
    assert VertexSet.from_indices(g, s.u_indices, s.v_indices) == s


def test_verifier_builds_no_cover_table():
    g = build_graph(4, 26)
    assert is_dominating(g, VertexSet.from_indices(g, (1, 4, 9, 10), (1, 2, 6)))
    assert len(undominated(g, VertexSet.empty(g))) == 26
    assert "cover_masks" not in vars(g)


def test_closed_neighborhood_known_values():
    g = build_graph(4, 20)
    s = VertexSet.of(g, [u(1)])
    assert set(closed_neighborhood(g, s)) == {u(1), v(1), v(2), v(4), v(8)}
    assert len(closed_neighborhood(g, VertexSet.empty(g))) == 0


def test_closed_neighborhood_rejects_foreign_sets():
    g = build_graph(4, 20)
    s = VertexSet.of(build_graph(4, 22), [u(1)])
    with pytest.raises(ValueError):
        closed_neighborhood(g, s)


def test_is_dominating_known_values():
    g = build_graph(4, 16)
    assert is_dominating(g, VertexSet.from_indices(g, (1, 2), (6, 7)))
    assert not is_dominating(g, VertexSet.empty(g))
    g20 = build_graph(4, 20)
    assert is_dominating(g20, VertexSet.from_indices(g20, (1, 6), (5, 10)))


def test_undominated_known_witnesses():
    g26 = build_graph(4, 26)
    left = undominated(g26, VertexSet.from_indices(g26, (1, 2, 6), (10, 11, 12)))
    assert list(left) == [u(13)]
    left = undominated(g26, VertexSet.from_indices(g26, (1, 2, 10), (6, 7, 12)))
    assert list(left) == [u(8)]
    g28 = build_graph(4, 28)
    left = undominated(g28, VertexSet.from_indices(g28, (1, 5, 10), (7, 9, 14)))
    assert list(left) == [u(3), u(12)]
    assert len(undominated(g26, VertexSet.full(g26))) == 0


@given(small_graphs(), st.data())
def test_undominated_empty_iff_dominating(g, data):
    s = data.draw(subsets_of(g))
    assert is_dominating(g, s) == (len(undominated(g, s)) == 0)
    assert (closed_neighborhood(g, s) | undominated(g, s)) == VertexSet.full(g)


@given(small_graphs(), st.data())
def test_closed_neighborhood_is_monotone(g, data):
    s = data.draw(subsets_of(g))
    t = data.draw(subsets_of(g))
    assert closed_neighborhood(g, s).issubset(closed_neighborhood(g, s | t))
    assert s.issubset(closed_neighborhood(g, s))


@given(small_graphs(), st.data())
def test_each_side_covers_at_most_delta_across(g, data):
    # A u-side pick covers at most delta v-side vertices plus itself, so the
    # v-side cover of any set is bounded by delta * |U part| + |V part|.
    s = data.draw(subsets_of(g))
    covered = closed_neighborhood(g, s)
    u_part, v_part = len(s.u_indices), len(s.v_indices)
    assert len(covered.v_indices) <= g.delta * u_part + v_part
    assert len(covered.u_indices) <= g.delta * v_part + u_part


def test_gamma_bounds_known_values():
    assert gamma_bounds(build_graph(4, 26)) == (6, 22)
    assert gamma_bounds(build_graph(4, 16)) == (4, 12)
    assert gamma_bounds(build_graph(4, 20)) == (4, 16)
    assert gamma_bounds(build_graph(3, 24)) == (6, 21)


@pytest.mark.parametrize("n", range(16, 49, 2))
def test_greedy_result_dominates_within_bounds(n):
    g = build_graph(4, n)
    s = greedy_upper_bound(g)
    lower, upper = gamma_bounds(g)
    assert is_dominating(g, s)
    assert lower <= len(s) <= upper


def test_greedy_is_deterministic():
    g = build_graph(4, 38)
    assert greedy_upper_bound(g) == greedy_upper_bound(g)


def full_rescan_greedy(g):
    # Reference: rescan every slot's cover mask for each pick.
    cover = g.cover_masks
    chosen = covered = 0
    while covered != g.full_mask:
        best_slot, best_gain = -1, 0
        for slot in range(g.n):
            gain = (cover[slot] & ~covered).bit_count()
            if gain > best_gain:
                best_slot, best_gain = slot, gain
        chosen |= 1 << best_slot
        covered |= cover[best_slot]
    return chosen


def test_greedy_matches_full_rescan_without_cover_table():
    for delta in range(1, 8):
        for n in range(max(2, 2**delta), 129, 2):
            g = build_graph(delta, n)
            assert greedy_upper_bound(g).mask == full_rescan_greedy(build_graph(delta, n))
            assert "cover_masks" not in vars(g)
