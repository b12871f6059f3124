"""Integer-partition arithmetic over cycle types.

A partition of n stands for the cycle type of a permutation.  The subset-sum
structure of a partition decides which intransitive subgroups its class
meets, so the workhorse here is a bit-mask subset-sum table: bit i of
``partial_sum_mask(p)`` is set exactly when some sub-multiset of the parts
sums to i.  Python integers serve as the fixed-width bit arrays.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive integers.

    Multiplicities are always expanded: ``Partition([2, 2, 1])`` has three
    parts, and equality/hashing see exactly the part tuple.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        ps = tuple(sorted(parts, reverse=True))
        if not ps:
            raise ValueError("a partition needs at least one part")
        if ps[-1] < 1:
            raise ValueError(f"parts must be positive, got {ps}")
        self.parts: tuple[int, ...] = ps

    @property
    def n(self) -> int:
        return sum(self.parts)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition('{self}')"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def _desc_parts(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` with parts <= ``max_part``, descending lex.

    Iterative (Zoghbi-Stojmenovic ZS1): ``x`` holds the current parts padded
    with 1s, ``m`` counts the parts and ``h`` indexes the last part above 1.
    Each step lowers ``x[h]`` by one and refills the rest greedily.
    """
    if remaining == 0:
        yield ()
        return
    k = min(max_part, remaining)
    q, r = divmod(remaining, k)
    x = [k] * q + [1] * (remaining - q)
    if r:
        x[q] = r
    m = q + (1 if r else 0)
    h = (q if r > 1 else q - 1) if k > 1 else -1
    yield tuple(x[:m])
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, descending lexicographic: (n) first, (1^n) last."""
    if n < 1:
        raise ValueError("need n >= 1")
    for parts in _desc_parts(n, n):
        yield Partition(parts)


@lru_cache(maxsize=None)
def partial_sum_mask(p: Partition) -> int:
    """Bit mask of the subset sums of p (bit 0 and bit n always set)."""
    mask = 1
    for part in p.parts:
        mask |= mask << part
    return mask


def is_partial_sum(p: Partition, i: int) -> bool:
    return bool(partial_sum_mask(p) >> i & 1)


def is_even_type(p: Partition) -> bool:
    """Whether a permutation with this cycle type is even."""
    return (p.n - len(p)) % 2 == 0


def has_distinct_odd_parts(p: Partition) -> bool:
    """True when the class splits in the alternating group."""
    return distinct_odd_parts(p.parts)


def distinct_odd_parts(parts: tuple[int, ...]) -> bool:
    """``has_distinct_odd_parts`` of a part tuple, which builds no ``Partition``."""
    return len(set(parts)) == len(parts) and all(part % 2 == 1 for part in parts)


def power_type(p: Partition, k: int) -> Partition:
    """Cycle type of the k-th power: a part l becomes gcd(l,k) parts l/gcd(l,k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    out: list[int] = []
    for part in p.parts:
        g = gcd(part, k)
        out.extend([part // g] * g)
    return Partition(out)


def enumerate_partitions_with_sums_in(n: int, allowed: int) -> list[Partition]:
    """Exactly the partitions of n whose partial sums all lie in ``allowed``.

    ``allowed`` is a bit mask of the permitted sums: bits 0 and n must be
    set, no bit above n, and it must equal its own bit reversal over 0..n,
    i.e. be closed under i -> n - i.  Backtracks over weakly decreasing
    parts, pruning on the incremental subset-sum mask, so tiny allowed sets
    are resolved without touching the full partition list.
    """
    if allowed & (1 | 1 << n) != 1 | 1 << n:
        raise ValueError("allowed must contain 0 and n")
    if allowed >> (n + 1):
        raise ValueError("allowed must lie within 0..n")
    if int(f"{allowed:0{n + 1}b}"[::-1], 2) != allowed:
        raise ValueError("allowed must be closed under complement")
    out: list[Partition] = []
    _sums_in_search(n, n, 1, allowed, [], out)
    return out


def _sums_in_search(
    remaining: int, max_part: int, mask: int, a_mask: int, acc: list[int], out: list[Partition]
) -> None:
    """Append to ``out`` every completion of the parts ``acc`` (subset-sum
    mask ``mask``) by parts <= ``max_part`` summing to ``remaining`` whose
    partial sums stay inside ``a_mask``.  A part is itself a partial sum, so
    only the set bits of ``a_mask`` are tried, largest first."""
    if remaining == 0:
        out.append(Partition(acc))
        return
    # the allowed part sizes 1..min(max_part, remaining)
    candidates = a_mask & ((2 << min(max_part, remaining)) - 2)
    while candidates:
        part = candidates.bit_length() - 1
        candidates ^= 1 << part
        new_mask = mask | mask << part
        if new_mask & ~a_mask:
            continue
        acc.append(part)
        _sums_in_search(remaining - part, part, new_mask, a_mask, acc, out)
        acc.pop()


def even_class_partitions(n: int) -> list[Partition]:
    """Partitions of n defining even permutations, identity excluded."""
    one_n = (1,) * n
    return [p for p in enumerate_partitions(n) if is_even_type(p) and p.parts != one_n]

