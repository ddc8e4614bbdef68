import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knodel import (
    CyclicSequence,
    SequenceClass,
    build_graph,
    canonical_rotation,
    colliding_pairs,
    common_neighbors,
    cyclic_sequence,
    enumerate_sequences,
    m_delta,
    reconstruct_positions,
    u,
)

THREE_PART_13 = [(1, 4, 8), (1, 8, 4), (2, 3, 8), (2, 8, 3), (4, 4, 5)]
FOUR_PART_19_ONE = [(1, 5, 5, 8), (1, 8, 5, 5), (4, 5, 5, 5)]
FOUR_PART_19_TWO = [
    (1, 4, 5, 9),
    (1, 8, 1, 9),
    (1, 8, 2, 8),
    (1, 9, 5, 4),
    (2, 3, 5, 9),
    (2, 9, 5, 3),
    (3, 5, 3, 8),
    (3, 5, 5, 6),
    (3, 5, 6, 5),
    (3, 6, 5, 5),
]
SIX_PART_28 = [
    (1, 4, 5, 5, 5, 8),
    (1, 8, 5, 5, 5, 4),
    (2, 3, 5, 5, 5, 8),
    (2, 8, 5, 5, 5, 3),
    (4, 4, 5, 5, 5, 5),
    (4, 5, 4, 5, 5, 5),
    (4, 5, 5, 4, 5, 5),
]


def gap_tuples():
    return st.lists(st.integers(1, 9), min_size=1, max_size=6).map(tuple)


def rotations(gaps):
    return [gaps[i:] + gaps[:i] for i in range(len(gaps))]


def test_canonical_rotation_known_values():
    assert canonical_rotation(CyclicSequence((5, 5, 8, 1), 19)).gaps == (1, 5, 5, 8)
    assert canonical_rotation(CyclicSequence((4, 4, 5), 13)).gaps == (4, 4, 5)
    assert canonical_rotation(CyclicSequence((8, 1, 4, 5, 5), 23)).gaps == (1, 4, 5, 5, 8)


@given(gap_tuples())
def test_canonical_rotation_is_minimal_and_idempotent(gaps):
    seq = CyclicSequence(gaps, sum(gaps))
    canon = canonical_rotation(seq)
    assert canon.gaps == min(rotations(gaps))
    assert canonical_rotation(canon) == canon
    assert canon.half == seq.half
    assert sorted(canon.gaps) == sorted(gaps)


def test_reconstruct_positions_known_values():
    assert reconstruct_positions(CyclicSequence((3, 5, 5), 13)) == {u(1), u(4), u(9)}
    assert reconstruct_positions(CyclicSequence((8, 1, 5, 5), 19)) == {
        u(1),
        u(9),
        u(10),
        u(15),
    }
    assert reconstruct_positions(CyclicSequence((13,), 13)) == {u(1)}


@given(gap_tuples().filter(lambda gaps: sum(gaps) >= 8))
def test_reconstruct_round_trips_up_to_rotation(gaps):
    half = sum(gaps)
    seq = CyclicSequence(gaps, half)
    g = build_graph(4, 2 * half)
    back = cyclic_sequence(g, reconstruct_positions(seq))
    assert canonical_rotation(back) == canonical_rotation(seq)


def test_colliding_pairs_known_values():
    assert colliding_pairs(build_graph(4, 38), frozenset({u(1), u(2), u(7)})) == 2
    assert colliding_pairs(build_graph(4, 26), frozenset({u(1), u(4), u(9)})) == 1
    assert colliding_pairs(build_graph(4, 26), frozenset({u(1)})) == 0


@given(st.data())
def test_colliding_pairs_counts_nonempty_common_neighborhoods(data):
    half = data.draw(st.integers(8, 20))
    g = build_graph(4, 2 * half)
    indices = data.draw(st.sets(st.integers(1, half), min_size=1, max_size=6))
    s = frozenset(u(i) for i in indices)
    expected = sum(
        1
        for a, b in itertools.combinations(sorted(s), 2)
        if common_neighbors(g, a, b)
    )
    assert colliding_pairs(g, s) == expected


def test_enumerate_known_class_sets():
    assert [c.canonical.gaps for c in enumerate_sequences(3, 13, 2, 0)] == THREE_PART_13
    assert [
        c.canonical.gaps for c in enumerate_sequences(4, 19, 1, 1)
    ] == FOUR_PART_19_ONE
    assert [
        c.canonical.gaps for c in enumerate_sequences(4, 19, 2, 0)
    ] == FOUR_PART_19_TWO
    assert [c.canonical.gaps for c in enumerate_sequences(6, 28, 2, 0)] == SIX_PART_28


def test_enumerate_matches_independent_filter():
    # Re-derive the census by generating raw tuples with itertools and
    # filtering with standalone code.
    m = m_delta(4)
    for k, total, exact, adj_max in ((3, 13, 2, 0), (4, 19, 1, 1), (4, 19, 2, 0)):
        expected = set()
        for gaps in itertools.product(range(1, total + 1), repeat=k):
            if sum(gaps) != total:
                continue
            if min(rotations(gaps)) != gaps:
                continue
            if sum(1 for q in gaps if q in m) != exact:
                continue
            sums = [gaps[i] + gaps[(i + 1) % k] for i in range(k)]
            if sum(1 for q in sums if q in m) > adj_max:
                continue
            expected.add(gaps)
        got = {c.canonical.gaps for c in enumerate_sequences(k, total, exact, adj_max)}
        assert got == expected


def brute_force_census(delta, k, total):
    # Every composition of total into k parts (cut points chosen with
    # itertools), kept when it is its own least rotation, with its statistics.
    m = m_delta(delta)
    graph = build_graph(delta, 2 * total) if 2 * total >= 2**delta else None
    out = []
    for cuts in itertools.combinations(range(1, total), k - 1):
        bounds = (0, *cuts, total)
        gaps = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        if min(rotations(gaps)) != gaps:
            continue
        if k == 1:
            sums = []
        elif k == 2:
            sums = [gaps[0] + gaps[1]]
        else:
            sums = [gaps[i] + gaps[(i + 1) % k] for i in range(k)]
        seq = CyclicSequence(gaps, total)
        collisions = None
        if graph is not None:
            collisions = colliding_pairs(graph, reconstruct_positions(seq))
        in_m = sum(1 for q in gaps if q in m)
        out.append(SequenceClass(seq, in_m, sum(1 for q in sums if q in m), collisions))
    return out


def test_enumerate_matches_brute_force_census():
    # Whole SequenceClass lists, in order, for every exact count and adjacent
    # maximum in 0..k; delta 5 never has a graph here (2 * 14 < 32).
    for delta in (3, 4, 5):
        for k in range(1, 6):
            for total in range(k, 15):
                census = brute_force_census(delta, k, total)
                for exact in range(k + 1):
                    for adj in range(k + 1):
                        expected = [
                            c
                            for c in census
                            if c.parts_in_m == exact and c.adjacent_sums_in_m <= adj
                        ]
                        got = enumerate_sequences(k, total, exact, adj, delta)
                        assert got == expected, (delta, k, total, exact, adj)


def test_enumerate_classes_are_rotation_distinct_and_sorted():
    classes = enumerate_sequences(4, 19, 2, 0)
    gaps = [c.canonical.gaps for c in classes]
    assert gaps == sorted(gaps)
    seen = set()
    for tup in gaps:
        assert not any(rot in seen for rot in rotations(tup))
        seen.add(tup)


def test_enumerate_reports_consistent_statistics():
    m = m_delta(4)
    for cls in enumerate_sequences(4, 19, 2, 0):
        gaps = cls.canonical.gaps
        assert cls.parts_in_m == 2 == sum(1 for q in gaps if q in m)
        assert cls.adjacent_sums_in_m == 0
        assert cls.canonical.half == 19
        # Each gap in the difference set forces a colliding pair on its own.
        assert cls.colliding_pairs is not None
        assert cls.colliding_pairs >= cls.parts_in_m


def test_enumerate_collision_counts_match_reconstruction():
    for cls in enumerate_sequences(3, 13, 2, 0):
        g = build_graph(4, 26)
        s = reconstruct_positions(cls.canonical)
        assert cls.colliding_pairs == colliding_pairs(g, s)


def test_enumerate_edge_cases():
    assert enumerate_sequences(3, 13, 4, 0) == []
    single = enumerate_sequences(1, 13, 0, 0)
    assert [c.canonical.gaps for c in single] == [(13,)]
    assert single[0].adjacent_sums_in_m == 0
    small = enumerate_sequences(2, 5, 2, 1)
    assert [c.canonical.gaps for c in small] == [(1, 4), (2, 3)]
    assert all(c.colliding_pairs is None for c in small)


def test_enumerate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_sequences(0, 13, 0, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(4, 3, 0, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(3, 13, -1, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(3, 13, 0, -1)
