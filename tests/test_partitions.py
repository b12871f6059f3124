import gc
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgraph.partitions import (
    _desc_parts,
    Partition,
    enumerate_partitions,
    enumerate_partitions_with_sums_in,
    even_class_partitions,
    has_distinct_odd_parts,
    is_even_type,
    is_partial_sum,
    partial_sum_mask,
    power_type,
)


def brute_partition_count(n, max_part=None):
    """Independent recursive counter."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(brute_partition_count(n - k, k) for k in range(1, min(max_part, n) + 1))


def brute_subset_sums(parts):
    """All 2^t subset sums, enumerated directly."""
    sums = set()
    for r in range(len(parts) + 1):
        for combo in combinations(parts, r):
            sums.add(sum(combo))
    return sums


def sums_mask(sums):
    """The bit mask with bit i set for each i in sums."""
    return sum(1 << i for i in set(sums))


partitions_up_to_25 = st.integers(1, 25).flatmap(
    lambda n: st.sampled_from([p.parts for p in enumerate_partitions(n)])
).map(Partition)


def test_enumeration_counts():
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]
    assert sum(1 for _ in enumerate_partitions(4)) == 5
    assert sum(1 for _ in enumerate_partitions(10)) == brute_partition_count(10) == 42


def test_enumeration_order_is_descending_lex():
    seen = [p.parts for p in enumerate_partitions(6)]
    assert seen[0] == (6,)
    assert seen[-1] == (1,) * 6
    assert seen == sorted(seen, reverse=True)


def _desc_parts_recursive(remaining, max_part):
    # the former recursive generator, kept as the reference order
    if remaining == 0:
        yield ()
        return
    for first in range(min(max_part, remaining), 0, -1):
        for rest in _desc_parts_recursive(remaining - first, first):
            yield (first,) + rest


def test_iterative_enumeration_matches_recursive_order():
    for n in range(1, 31):
        assert list(_desc_parts(n, n)) == list(_desc_parts_recursive(n, n)), n
    for n in range(0, 13):
        for max_part in range(1, n + 2):
            expected = list(_desc_parts_recursive(n, max_part))
            assert list(_desc_parts(n, max_part)) == expected, (n, max_part)


def test_partition_normalization_and_text():
    p = Partition([1, 4, 8])
    assert p.parts == (8, 4, 1)
    assert str(p) == "8,4,1"
    assert Partition(map(int, "8,4,1".split(","))) == p
    with pytest.raises(ValueError):
        Partition([])
    with pytest.raises(ValueError):
        Partition([3, 0])


def test_partial_sums_examples():
    p = Partition([2] * 5 + [1])
    assert all(is_partial_sum(p, i) for i in range(1, 6))
    assert partial_sum_mask(Partition([11])) == sums_mask({0, 11})
    assert partial_sum_mask(Partition([1, 3, 5])) == sums_mask(
        brute_subset_sums((1, 3, 5))
    ) == sums_mask({0, 1, 3, 4, 5, 6, 8, 9})


@settings(deadline=None)
@given(partitions_up_to_25.filter(lambda p: len(p) <= 14))
def test_partial_sums_match_brute_force(p):
    # the brute oracle enumerates all subsets, so keep the part count small
    assert partial_sum_mask(p) == sums_mask(brute_subset_sums(p.parts))


@given(partitions_up_to_25)
def test_partial_sum_complement_symmetry(p):
    mask = partial_sum_mask(p)
    n = p.n
    for i in range(n + 1):
        assert (mask >> i & 1) == (mask >> (n - i) & 1)


def test_parity_examples():
    assert is_even_type(Partition([1] * 7))
    assert not is_even_type(Partition([2] + [1] * 5))
    assert is_even_type(Partition([4, 8]))


def test_power_type_examples():
    assert power_type(Partition([5, 7]), 7) == Partition([5] + [1] * 7)
    assert power_type(Partition([6]), 2) == Partition([3, 3])
    assert power_type(Partition([4, 8]), 4) == Partition([1] * 4 + [2] * 4)


@given(partitions_up_to_25, st.integers(1, 12), st.integers(1, 12))
def test_power_type_composition(p, a, b):
    assert power_type(p, 1) == p
    assert power_type(power_type(p, a), b) == power_type(p, a * b)


def test_minimal_missing_sum_structure():
    # the parts below the first missing sum total exactly one less than it,
    # and every other part clears it by at least one
    for n in range(2, 26):
        for p in enumerate_partitions(n):
            mask = partial_sum_mask(p)
            missing = [i for i in range(1, n // 2 + 1) if not mask >> i & 1]
            if not missing:
                continue
            i = missing[0]
            assert sum(part for part in p.parts if part < i) == i - 1
            assert all(part >= i + 1 for part in p.parts if part >= i)


def test_constrained_enumeration_examples():
    n = 12
    everything = frozenset(range(n + 1))
    assert set(enumerate_partitions_with_sums_in(n, sums_mask(everything))) == set(
        enumerate_partitions(n)
    )
    assert enumerate_partitions_with_sums_in(n, sums_mask({0, n})) == [Partition([n])]
    allowed = everything - {1, 5, 7, 11}
    found = set(enumerate_partitions_with_sums_in(n, sums_mask(allowed)))
    assert Partition([4, 8]) in found
    assert Partition([2] * 6) in found
    with pytest.raises(ValueError):
        enumerate_partitions_with_sums_in(6, sums_mask({0, 2, 6}))  # not complement-closed


def test_constrained_enumeration_matches_filtering():
    rng = random.Random(20240809)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 25)
        size = rng.randint(0, n // 2)
        lower = set(rng.sample(range(1, n // 2 + 1), min(size, n // 2)))
        allowed = frozenset({0, n} | lower | {n - i for i in lower})
        expected = {
            p
            for p in enumerate_partitions(n)
            if not partial_sum_mask(p) & ~sums_mask(allowed)
        }
        assert set(enumerate_partitions_with_sums_in(n, sums_mask(allowed))) == expected
        checked += 1


def test_constrained_enumeration_leaves_no_reference_cycles():
    # reference counting alone frees each call's search state, so the
    # cyclic collector finds nothing after a batch of calls
    calls = [
        (n, sums_mask(i for i in range(n + 1) if i % k == 0 or (n - i) % k == 0))
        for n in range(2, 21)
        for k in range(1, 5)
    ]
    gc.collect()
    gc.disable()
    try:
        for n, allowed in calls:
            enumerate_partitions_with_sums_in(n, allowed)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constrained_enumeration_matches_mask_filter_for_every_witness_mask():
    # the allowed mask of verify_witness for every partition w of n <= 20:
    # the output is the partition list filtered by the mask, in its order
    for n in range(1, 21):
        full = (1 << (n + 1)) - 1
        everything = list(enumerate_partitions(n))
        for w in everything:
            mask = (full & ~partial_sum_mask(w)) | 1 | 1 << n
            expected = [q for q in everything if partial_sum_mask(q) & ~mask == 0]
            assert enumerate_partitions_with_sums_in(n, mask) == expected, (n, w)


def test_constrained_enumeration_rejects_malformed_masks():
    n = 6
    good = sums_mask({0, 2, 4, 6})
    assert enumerate_partitions_with_sums_in(n, good) == [
        Partition([6]), Partition([4, 2]), Partition([2, 2, 2])
    ]
    for bad in (
        good & ~1,  # no bit 0
        good & ~(1 << n),  # no bit n
        good | 1 << (n + 1),  # a bit above n
        good | 1 << 1,  # 1 allowed but not 5
        -1,
    ):
        with pytest.raises(ValueError):
            enumerate_partitions_with_sums_in(n, bad)


def test_even_class_partitions():
    assert [p.parts for p in even_class_partitions(3)] == [(3,)]
    assert len(even_class_partitions(7)) == 7  # (7),(5,1,1),(4,2,1),(3,3,1),(3,2,2),(3,1^4),(2,2,1^3)


def test_distinct_odd_parts():
    assert has_distinct_odd_parts(Partition([11, 5, 1]))
    assert not has_distinct_odd_parts(Partition([3, 3, 1]))
    assert not has_distinct_odd_parts(Partition([4, 3]))
