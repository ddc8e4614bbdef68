"""The gap-sequence calculus and its census, against the simple code it replaced.

- The census is checked along a chain of ever simpler generators: the
  library's _census against reference_least_rotations, a copy of the
  prenecklace generator before each prefix of k - 3 gaps finished its
  children in place, and that copy against reference_enumerate, the
  rotation check on each full sequence that it replaced.  One pass runs
  _census once per case (k, total, exact count, adjacent maximum, degree),
  every count and maximum, and compares its stream (gaps, sums and their
  type, in order) with the copy's at the loosest maximum, filtered:
  - degrees 2 to 5, k <= 7 and total <= 28, where each loosest census also
    runs with the final-pair table cut to ranges of 2 gaps and 8 keys;
  - degrees 3 to 6, k <= 3 at totals 130, 200 and 300, and degree 4, k = 4
    at total 130, past the table's 64 gaps.
  A second test runs the copy against the rotation check at degrees 3 and
  4, k <= 6 and total <= 24, and on those long ranges.
- enumerate_sequences is compared, whole SequenceClass lists in order, with
  an itertools brute force over every composition at degrees 2 to 5,
  k <= 6 and total <= 19, on three degree-4 parameter sets with a filter
  over raw itertools tuples, and with the rotation check on the benchmark's
  six parameter sets.
- A k = 2 census of 2**14 classes, 2**14 classes of a k = 3 census from one
  unlisted final-pair range, and a k = 4 census with the table cut to 8
  keys, are held under tracemalloc bounds.
- Periodic classes such as (2, 3, 2, 3) are checked to appear once.
- CyclicSequence's accepted inputs (any iterable of positive ints, bools
  included, stored as a tuple) and its error messages are pinned.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knodel import (
    CyclicSequence,
    SequenceClass,
    build_graph,
    colliding_pairs,
    common_neighbors,
    cyclic_sequence,
    enumerate_sequences,
    m_delta,
    reconstruct_positions,
    u,
)
from knodel import sequences
from oracles import BENCHMARK_CENSUS

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


@pytest.mark.parametrize(
    "gaps,half,message",
    [
        ((), 0, "gap sequence must be non-empty"),
        ([], 0, "gap sequence must be non-empty"),
        ((13, 0), 13, "gaps must be positive integers, got (13, 0)"),
        ((14, -1), 13, "gaps must be positive integers, got (14, -1)"),
        ((0, "a"), 13, "gaps must be positive integers, got (0, 'a')"),
        ((6.5, 6.5), 13, "gaps must be positive integers, got (6.5, 6.5)"),
        ([3, "5", 5], 13, "gaps must be positive integers, got (3, '5', 5)"),
        ((3, 5, 4), 13, "gaps (3, 5, 4) sum to 12, expected 13"),
        ([True, 1], 3, "gaps must be positive integers, got (True, 1)"),
        ((True, True), 2, "gaps must be positive integers, got (True, True)"),
        ((12, True), 13, "gaps must be positive integers, got (12, True)"),
    ],
)
def test_cyclic_sequence_rejects_bad_gaps_with_pinned_messages(gaps, half, message):
    with pytest.raises(ValueError) as exc:
        CyclicSequence(gaps, half)
    assert str(exc.value) == message


def test_cyclic_sequence_accepts_lists_and_iterators_as_tuples():
    # Any iterable of positive ints is stored as a plain tuple; a tuple is
    # kept as given.  Bools are refused, as VertexSet.from_indices refuses
    # them.
    gaps = (3, 5, 5)
    assert CyclicSequence(gaps, 13).gaps is gaps
    for given_gaps in ([3, 5, 5], iter([3, 5, 5]), (q for q in gaps)):
        seq = CyclicSequence(given_gaps, 13)
        assert type(seq.gaps) is tuple and seq == CyclicSequence(gaps, 13)


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
    assert back.half == seq.half
    assert min(rotations(back.gaps)) == min(rotations(seq.gaps))


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
        in_m = sum(1 for q in gaps if q in m)
        out.append(SequenceClass(seq, in_m, sum(1 for q in sums if q in m)))
    return out


def test_enumerate_matches_brute_force_census():
    # Whole SequenceClass lists, in order, for every exact count and adjacent
    # maximum in 0..k; delta 2 has m_delta = {1}.
    for delta in (2, 3, 4, 5):
        for k in range(1, 7):
            for total in range(k, 20):
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


def reference_enumerate(k, total, parts_in_m_exact, adjacent_sums_in_m_max, delta=4):
    # The census before it became a prenecklace generator: least rotations
    # depth first from g0 and a rotation check on each full sequence.
    m = m_delta(min(delta, total.bit_length() + 1))
    classes = []
    stack = [((), total, 0, 0)]
    while stack:
        t, remaining, in_m, sums_in_m = stack.pop()
        left = k - len(t)
        if left:
            g0, prev = (t[0], t[-1]) if t else (1, 0)
            hi = remaining - (left - 1) * g0 if t else total // k
            for gap in range(hi, (remaining if left == 1 else g0) - 1, -1):
                count = in_m + (gap in m)
                if count > parts_in_m_exact or count + left - 1 < parts_in_m_exact:
                    continue
                sums = sums_in_m + (prev > 0 and prev + gap in m)
                if sums <= adjacent_sums_in_m_max:
                    stack.append((t + (gap,), remaining - gap, count, sums))
            continue
        sums_in_m += k > 2 and t[-1] + t[0] in m
        rotated = any(t[i] == t[0] and t[i:] + t[:i] < t for i in range(1, k))
        if rotated or sums_in_m > adjacent_sums_in_m_max:
            continue
        classes.append(SequenceClass(CyclicSequence(t, total), in_m, sums_in_m))
    return classes


@pytest.mark.parametrize(
    "params,count",
    BENCHMARK_CENSUS,
    ids=["-".join(map(str, params)) for params, _ in BENCHMARK_CENSUS],
)
def test_enumerate_matches_reference_on_the_benchmark_census(params, count):
    # 17,547 classes in all: the census workload's six parameter sets.
    got = enumerate_sequences(*params)
    assert len(got) == count
    assert all(type(c.adjacent_sums_in_m) is int for c in got)
    assert got == reference_enumerate(*params)


# The census grids: degrees 2 to 5 with k <= 7 and total <= 28, and the long
# ranges, whose final-pair ranges pass the table's 64 gaps.
SMALL = [(d, k, total) for d in (2, 3, 4, 5) for k in range(1, 8) for total in range(k, 29)]
LONG = [(d, k, total) for d in range(3, 7) for k in (1, 2, 3) for total in (130, 200, 300)]
LONG.append((4, 4, 130))


def reference_least_rotations(k, total, m, exact, sums_max):
    # The generator before each prefix of k - 3 gaps finished its children
    # in the loop that accepts them: here every prefix of k - 2 gaps is a
    # stack entry that picks its final pair from the table when popped, and
    # k = 2 runs through the same path.  Its table has the library's bounds.
    if k == 1:
        if (total in m) == exact:
            yield (total,), 0
        return
    last = k - 1
    table = {}
    stack = [((), total, 0, 0, 1)]
    while stack:
        t, remaining, in_m, sums_in_m, p = stack.pop()
        depth = len(t)
        if depth:
            lo, hi, prev = t[depth - p], remaining - (last - depth) * t[0], t[-1]
        else:
            lo, hi, prev = 1, total // k, -total
        if depth < last - 1:
            short = exact - (last - depth)
            for gap in range(hi, lo - 1, -1):
                count = in_m + (gap in m)
                if count > exact or count < short:
                    continue
                sums = sums_in_m + (prev + gap in m)
                if sums <= sums_max:
                    lyndon = p if gap == lo else depth + 1
                    stack.append((t + (gap,), remaining - gap, count, sums, lyndon))
            continue
        if hi < lo:
            continue
        key = (remaining, lo, hi, exact - in_m)
        gaps = table.get(key)
        if gaps is None:
            need = key[3]
            gaps = (g for g in range(lo, hi + 1) if (g in m) + (remaining - g in m) == need)
            if hi - lo < 64:
                gaps = list(gaps)
                if len(table) < 4096:
                    table[key] = gaps
        back, first = (t + (lo,))[last - p], t[0] if t else -total
        sums_in_m += remaining in m
        for gap in gaps:
            end = remaining - gap
            if end == first if gap > lo else end < back or (end == back and k % p):
                continue
            sums = sums_in_m + (prev + gap in m) + (end + first in m)
            if sums <= sums_max:
                yield t + (gap, end), sums


def test_least_rotations_match_the_reference_generator(monkeypatch):
    # One _census call per case, every exact count and adjacent maximum:
    # degrees 2 to 5 with k <= 7 and total <= 28, and degrees 3 to 6 with
    # k <= 3 at totals 130, 200 and 300 and degree 4 with k = 4 at total 130,
    # where final-pair ranges pass _TABLE_RANGE below prefixes of every
    # depth.  Each stream (gaps, sums and their type, in order) is the
    # prenecklace copy's at the loosest adjacent maximum, filtered.  Up to
    # total 28 the loosest census runs again with the table cut to ranges of
    # 2 gaps and 8 keys, so it fills and overflows.
    for delta, k, total in SMALL + LONG:
        m = m_delta(delta)
        for exact in range(k + 1):
            loosest = list(reference_least_rotations(k, total, m, exact, k))
            for adj in range(k + 1):
                got = list(sequences._census(k, total, exact, adj, delta))
                expected = [(g, s) for g, s in loosest if s <= adj]
                assert got == expected, (delta, k, total, exact, adj)
                assert all(type(s) is int for _, s in got), (delta, k, total, exact, adj)
            if total <= 28:
                with monkeypatch.context() as cut:
                    cut.setattr(sequences, "_TABLE_RANGE", 2)
                    cut.setattr(sequences, "_TABLE_KEYS", 8)
                    assert list(sequences._census(k, total, exact, k, delta)) == loosest


def test_enumerate_matches_reference_on_small_parameters():
    # The next link of the chain: the prenecklace copy against the rotation
    # check, whole streams in order at the loosest adjacent maximum, for
    # every exact count at degrees 3 and 4 with k <= 6 and total <= 24, and
    # on the long ranges.
    small = [(d, k, total) for d in (3, 4) for k in range(1, 7) for total in range(k, 25)]
    for delta, k, total in small + LONG:
        m = m_delta(delta)
        for exact in range(k + 1):
            loosest = reference_least_rotations(k, total, m, exact, k)
            classes = reference_enumerate(k, total, exact, k, delta)
            got = [(c.canonical.gaps, c.parts_in_m, c.adjacent_sums_in_m) for c in classes]
            assert got == [(g, exact, s) for g, s in loosest], (delta, k, total, exact)


def test_census_walks_long_ranges_without_listing_them():
    # Two censuses whose candidate ranges are walked without being listed, so
    # their traced peaks stay far below the 2**14 ints such a list would hold:
    # the k = 2 closed form's single range, which keeps every gap up to 2**14
    # but the six in m_4, and at k = 3 the first 2**14 classes, all from the
    # first gap 5 (1 to 4 lie in m_4), whose final-pair range of about 2**15
    # gaps passes _TABLE_RANGE.
    for args, stop, expected in (
        ((2, 2**15, 0, 0), None, (2**14 - 6, (2**14, 2**14))),
        ((3, 2**15, 0, 0), 2**14, (2**14, (5, 2**14 + 6, 2**14 - 11))),
    ):
        tracemalloc.start()
        try:
            count = last = 0
            for count, (last, _) in enumerate(itertools.islice(sequences._census(*args), stop), 1):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, last) == expected, args
        assert peak < 32 * 1024, (args, peak)


def test_final_pair_table_stops_at_its_key_cap(monkeypatch):
    # A k = 4 census whose final-pair ranges are all listed, under about a
    # thousand keys: cut to 8 keys, the traced peak is about 8 KB, and a
    # table that ignored its key cap would hold about 344 KB.
    monkeypatch.setattr(sequences, "_TABLE_KEYS", 8)
    tracemalloc.start()
    try:
        count = sum(1 for _ in sequences._census(4, 120, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 34_805
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize(
    "gaps",
    [
        (1, 1),
        (1,) * 4,
        (1,) * 6,
        (3, 3, 3),
        (2, 3, 2, 3),
        (1, 2, 1, 2, 1, 2),
        (2, 2, 5, 2, 2, 5),
    ],
    ids=lambda gaps: "-".join(map(str, gaps)),
)
@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_periodic_classes_appear_once(gaps, delta):
    # A periodic least rotation has a Lyndon prefix p < k that divides k.
    k, total = len(gaps), sum(gaps)
    (expected,) = [c for c in brute_force_census(delta, k, total) if c.canonical.gaps == gaps]
    classes = enumerate_sequences(k, total, expected.parts_in_m, k, delta)
    assert [c for c in classes if c.canonical.gaps in rotations(gaps)] == [expected]


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


def test_each_gap_in_m_forces_a_colliding_pair():
    # A gap in m_delta puts two consecutive chosen vertices at a distance
    # whose vertices share a neighbour; all 910 classes of a census set.
    g = build_graph(4, 60)
    classes = enumerate_sequences(5, 30, 2, 2)
    assert len(classes) == 910
    for cls in classes:
        assert colliding_pairs(g, reconstruct_positions(cls.canonical)) >= cls.parts_in_m == 2


def test_enumerate_edge_cases():
    assert enumerate_sequences(3, 13, 4, 0) == []
    single = enumerate_sequences(1, 13, 0, 0)
    assert [c.canonical.gaps for c in single] == [(13,)]
    assert single[0].adjacent_sums_in_m == 0
    small = enumerate_sequences(2, 5, 2, 1)
    assert [c.canonical.gaps for c in small] == [(1, 4), (2, 3)]


def test_enumerate_reports_adjacent_sums_as_ints():
    # SequenceClass equality treats True as 1, so only the repr shows a
    # k = 2 sum that is a bool: total 6 is in m_4, and both classes have it.
    assert repr(enumerate_sequences(2, 6, 2, 1)) == (
        "[SequenceClass(canonical=CyclicSequence(gaps=(2, 4), half=6), parts_in_m=2,"
        " adjacent_sums_in_m=1), SequenceClass(canonical=CyclicSequence(gaps=(3, 3),"
        " half=6), parts_in_m=2, adjacent_sums_in_m=1)]"
    )


@pytest.mark.parametrize(
    "k,total,exact,adj", [(3, 13, 2, 0), (3, 13, 2, 2), (4, 19, 3, 2), (2, 40, 1, 1)]
)
def test_enumerate_caps_delta_at_the_members_it_can_look_up(monkeypatch, k, total, exact, adj):
    # Members of m_delta above total are never looked up, so no delta beyond
    # total.bit_length() + 1 is ever built, and a huge delta matches the cap
    # (which is 5 at total 13).
    cap = total.bit_length() + 1

    def capped_m_delta(delta):
        assert delta <= cap, f"m_delta({delta}) built for total {total}"
        return m_delta(delta)

    monkeypatch.setattr(sequences, "m_delta", capped_m_delta)
    assert enumerate_sequences(k, total, exact, adj, delta=10**6) == enumerate_sequences(
        k, total, exact, adj, delta=cap
    )


def test_enumerate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_sequences(0, 13, 0, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(4, 3, 0, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(3, 13, -1, 0)
    with pytest.raises(ValueError):
        enumerate_sequences(3, 13, 0, -1)
