"""Vertex sets, the verifier, the bounds and greedy.

- The mask conversions are compared with per-bit references, _positions on
  both sides of its sparse threshold, and from_indices with its multi-pass
  form, on mixed valid and invalid members, and on ranges and other
  iterables against the same indices as lists.
- Greedy is compared with the simple code it replaced, a greedy that
  rescans every cover mask for each pick, on every valid graph of degrees
  1 to 7 with n <= 128.  On degrees 1 to 6, every pick is checked to cover
  a new vertex.
"""

import enum
import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knodel import (
    Side,
    Vertex,
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
from knodel.domination import _positions, _slots_mask
from knodel.graphs import KnodelGraph, _check_int
from oracles import small_graphs


def subsets_of(g):
    return st.sets(st.integers(0, g.n - 1), max_size=g.n).map(
        lambda slots: VertexSet(g, sum(1 << s for s in slots))
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


@given(small_graphs(), st.data())
def test_from_indices_inverts_u_and_v_indices(g, data):
    s = data.draw(subsets_of(g))
    assert VertexSet.from_indices(g, s.u_indices, s.v_indices) == s


def per_bit_positions(mask):
    # Reference: the per-bit scan _positions replaced, numbered from 0.
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


def per_slot_mask(n, slots, base=0):
    # Reference: the per-slot byte packing _slots_mask replaced.
    buf = bytearray((n + 7) // 8)
    for slot in slots:
        slot -= base
        buf[slot >> 3] |= 1 << (slot & 7)
    return int.from_bytes(buf, "little")


# Orders with n % 8 != 0, the smallest order, and one near the CLI's 2**21 limit.
CONVERSION_ORDERS = (2, 3, 7, 8, 9, 26, 63, 64, 65, 130, 2**21 - 2)


@pytest.mark.parametrize("n", CONVERSION_ORDERS)
def test_positions_and_slots_mask_match_the_per_bit_references(n):
    rng = random.Random(n)
    sparse = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    masks = [0, 1 << (n - 1), sparse]
    if n < 2**12:  # the per-bit references take seconds near 2**21
        masks += [1, (1 << n) - 1, (1 << n) - 2, rng.getrandbits(n), rng.getrandbits(n) & sparse]
    for mask in masks:
        expected = per_bit_positions(mask)
        for base in (0, 1):
            positions = _positions(mask, base)
            assert positions == [i + base for i in expected]
            assert _slots_mask(n, positions, base=base) == mask
            shuffled = positions + positions[: len(positions) // 2]
            rng.shuffle(shuffled)
            assert _slots_mask(n, shuffled, base=base) == per_slot_mask(n, shuffled, base) == mask
    for base in (0, 1):
        assert _slots_mask(n, [], base=base) == 0
        assert _slots_mask(n, [base + n - 1], base=base) == 1 << (n - 1)


@pytest.mark.parametrize("n", [64, 15039, 2**21 - 2])
def test_positions_match_the_reference_on_both_sides_of_the_sparse_threshold(n):
    # Below one set bit in eight _positions finds each bit in the digits;
    # from there on it compresses every bit.  The top bit fixes the length.
    rng = random.Random(n)
    sparse = dense = 0
    for count in (1, 2, n // 64, n // 8 - 1, n // 8, n // 8 + 1, n // 5):
        mask = per_slot_mask(n, rng.sample(range(n - 1), count - 1) + [n - 1])
        if mask.bit_count() * 8 < n:
            sparse += 1
        else:
            dense += 1
        expected = per_bit_positions(mask)
        for base in (0, 1):
            assert _positions(mask, base) == [i + base for i in expected]
    assert sparse >= 3 and dense >= 2


def test_from_indices_names_the_first_offender_in_input_order():
    g = build_graph(4, 16)
    # The offender 9 is neither the minimum (0, later) nor the maximum (12, later).
    cases = [
        ((3, 9, 1, 0, 12), (), 9),
        ((2, 4), (5, 9, 0, 12), 9),
        ((0,), (12,), 0),
        ((8, 1), (1, -3, 40), -3),
    ]
    for us, vs, bad in cases:
        with pytest.raises(ValueError) as info:
            VertexSet.from_indices(g, us, vs)
        assert str(info.value) == f"vertex index {bad} out of range [1, 8]"


@pytest.mark.parametrize("bad", [2.0, "1", None, 1.5, True, False])
def test_from_indices_rejects_indices_that_are_not_integers(bad):
    # A bool is refused as g.slot(u(True)) refuses it, though True == 1; a
    # range's members are ints, so range(True, 3) is range(1, 3).
    g = build_graph(4, 16)
    message = f"^vertex index must be an integer, got {bad!r}$"
    for sides in (([bad],), ((), [3, bad])):
        with pytest.raises(ValueError, match=message):
            VertexSet.from_indices(g, *sides)
    assert VertexSet.from_indices(g, range(True, 3)) == VertexSet.from_indices(g, [1, 2])


def outcome(build):
    try:
        return build().mask
    except ValueError as exc:
        return str(exc)


def multi_pass_from_indices(g, u_indices=(), v_indices=()):
    # Reference: from_indices before its single loop, which read each side
    # in a scan of its types, a min/max and then one store per index.
    half = g.half
    us, vs = sides = list(u_indices), list(v_indices)
    for side in filter(None, sides):
        if not {int}.issuperset(map(type, side)):
            for i in side:
                _check_int("vertex index", i)
        if not 1 <= min(side) <= max(side) <= half:
            bad = next(i for i in side if not 1 <= i <= half)
            raise ValueError(f"vertex index {bad} out of range [1, {half}]")
    return VertexSet(g, _slots_mask(half, us, base=1) | _slots_mask(half, vs, base=1) << half)


class Index(enum.IntEnum):
    # An int subclass that _check_int accepts, in range on every graph with half >= 3.
    THREE = 3


def mixed_sides(g):
    # Mostly valid indices, duplicates likely, with every kind of offender:
    # 0, negatives, half + 1, a huge int, bools, floats, None, a string, and
    # an IntEnum member that is in range or not.  Each side is a list or is
    # passed as an iterator over one.
    offenders = [0, -1, -7, g.half + 1, 10**30, True, False, 1.0, 2.5, None, "1", Index.THREE]
    member = st.one_of(st.integers(1, g.half), st.integers(1, g.half), st.sampled_from(offenders))
    side = st.lists(member, max_size=12)
    return st.tuples(side, st.booleans(), side, st.booleans())


@given(small_graphs(), st.data())
def test_from_indices_matches_the_multi_pass_reference(g, data):
    us, u_iter, vs, v_iter = data.draw(mixed_sides(g))

    def sides():
        return (iter(us) if u_iter else us), (iter(vs) if v_iter else vs)

    new = outcome(lambda: VertexSet.from_indices(g, *sides()))
    assert new == outcome(lambda: multi_pass_from_indices(g, *sides()))


def test_from_indices_stores_int_subclasses_in_range():
    g = build_graph(4, 16)
    for side in ([Index.THREE], [1, Index.THREE, 8], [Index.THREE, 2, Index.THREE]):
        assert VertexSet.from_indices(g, side, side) == multi_pass_from_indices(g, side, side)
    assert VertexSet.from_indices(g, [1, Index.THREE]).u_indices == (1, 3)


def random_range(rng, half):
    # Starts and stops run past both ends, so some ranges leave [1, half].
    start, stop = rng.randint(-3, half + 4), rng.randint(-3, half + 4)
    step = rng.choice([1, 2, 3, 5, half]) * rng.choice([1, -1])
    return rng.choice([range(start, stop, step), range(start, start + step, step)])


@pytest.mark.parametrize("n", [16, 18, 26, 40, 62, 250])
def test_from_indices_on_ranges_matches_the_lists(n):
    # Ranges, empty, negative-step and out-of-range ones too, give the mask
    # or the error of the same indices as lists; the extras follow a range
    # in one iterable, so an error after the range names its offender.
    g = build_graph(4, n)
    half = g.half
    rng = random.Random(n)
    fixed = [range(0), range(5, 5), range(1, 2), range(half, half + 1), range(half, 0, -1),
             range(1, half + 1), range(half, -1, -1), range(0, half), range(1, half + 2, 5)]
    sides = fixed + [random_range(rng, half) for _ in range(60)]
    for us in sides:
        vs, extra = rng.choice(sides), rng.choice([(), (1,), (half, 2), (half + 1,)])
        new = outcome(lambda: VertexSet.from_indices(g, us, chain(vs, extra)))
        old = outcome(lambda: VertexSet.from_indices(g, list(us), list(vs) + list(extra)))
        assert new == old, (us, vs, extra)
        assert outcome(lambda: VertexSet.from_indices(g, vs, us)) == outcome(
            lambda: VertexSet.from_indices(g, list(vs), list(us))
        )


@pytest.mark.parametrize("mask", [1.5, True, False, "3", None])
def test_vertex_set_rejects_masks_that_are_not_integers(mask):
    with pytest.raises(ValueError, match=f"^mask must be an integer, got {mask!r}$"):
        VertexSet(build_graph(4, 16), mask)


@pytest.mark.parametrize("mask", [-1, 1 << 16])
def test_vertex_set_rejects_masks_outside_the_slot_range(mask):
    with pytest.raises(ValueError, match="^mask has bits outside the graph's slot range$"):
        VertexSet(build_graph(4, 16), mask)


def test_membership_rejects_a_non_integer_index():
    s = VertexSet.from_indices(build_graph(4, 16), (1,))
    with pytest.raises(ValueError, match="^vertex index must be an integer, got 2.0$"):
        Vertex(Side.U, 2.0) in s


def test_from_indices_takes_duplicates_and_any_order():
    g = build_graph(4, 18)
    s = VertexSet.from_indices(g, iter((9, 1, 9, 4)), [2, 2, 9, 1])
    assert s.u_indices == (1, 4, 9) and s.v_indices == (1, 2, 9)
    assert list(s) == [u(1), u(4), u(9), v(1), v(2), v(9)]
    assert VertexSet.from_indices(g).mask == 0


def test_verifier_builds_no_cover_table():
    g = build_graph(4, 26)
    assert is_dominating(g, VertexSet.from_indices(g, (1, 4, 9, 10), (1, 2, 6)))
    assert len(undominated(g, VertexSet(g))) == 26
    assert "cover_masks" not in vars(g)


def test_closed_neighborhood_known_values():
    g = build_graph(4, 20)
    s = VertexSet(g, 1 << g.slot(u(1)))
    assert set(closed_neighborhood(g, s)) == {u(1), v(1), v(2), v(4), v(8)}
    assert len(closed_neighborhood(g, VertexSet(g))) == 0


def test_closed_neighborhood_rejects_foreign_sets():
    g = build_graph(4, 20)
    s = VertexSet.from_indices(build_graph(4, 22), (1,))
    with pytest.raises(ValueError):
        closed_neighborhood(g, s)


def test_is_dominating_known_values():
    g = build_graph(4, 16)
    assert is_dominating(g, VertexSet.from_indices(g, (1, 2), (6, 7)))
    assert not is_dominating(g, VertexSet(g))
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
    assert len(undominated(g26, VertexSet(g26, g26.full_mask))) == 0


@given(small_graphs(), st.data())
def test_undominated_empty_iff_dominating(g, data):
    s = data.draw(subsets_of(g))
    assert is_dominating(g, s) == (len(undominated(g, s)) == 0)
    assert closed_neighborhood(g, s).mask | undominated(g, s).mask == g.full_mask


@given(small_graphs(), st.data())
def test_closed_neighborhood_is_monotone(g, data):
    s = data.draw(subsets_of(g))
    t = data.draw(subsets_of(g))
    cover = closed_neighborhood(g, s).mask
    assert cover & ~closed_neighborhood(g, VertexSet(g, s.mask | t.mask)).mask == 0
    assert s.mask & ~cover == 0


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


def test_greedy_covers_a_new_vertex_with_every_pick(monkeypatch):
    # Greedy calls closed_cover twice per pick: on the pick, then on what the
    # pick newly covered.  A greedy that stops making progress fails here at
    # once instead of looping until the suite is killed.
    real = KnodelGraph.closed_cover
    state = {}

    def guarded(g, mask):
        result = real(g, mask)
        state["calls"] += 1
        if state["calls"] % 2:
            picks = (state["calls"] + 1) // 2
            assert picks <= g.n, f"{picks} picks on {g.n} vertices"
            assert mask.bit_count() == 1
            assert result & ~state["covered"], f"pick {mask.bit_length() - 1} covers nothing new"
            state["covered"] |= result
        return result

    monkeypatch.setattr(KnodelGraph, "closed_cover", guarded)
    for delta in range(1, 7):
        for n in range(2**delta, 2**delta + 41, 2):
            state.update(calls=0, covered=0)
            s = greedy_upper_bound(build_graph(delta, n))
            assert state["calls"] == 2 * len(s)
            assert state["covered"] == s.graph.full_mask


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
