"""Concrete permutations, group closure, and class labeling.

Permutations act on {0..n-1}; composition is function composition, so
``(p * q)(x) == p(q(x))``.  Closure works internally on ``bytes`` images
(degree <= 255 everywhere in this package).  Each generator g becomes a
256-byte translate table ``g + bytes(range(degree, 256))``, so one
breadth-first step is the single C call ``p.translate(table)``, which is the
left product ``g * p``.  That keeps closure cheap for groups up to about a
million elements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from invgraph.partitions import Partition, has_distinct_odd_parts, is_even_type

DEFAULT_CLOSURE_CAP = 10**6


class GroupKind(Enum):
    SYM = "sym"
    ALT = "alt"


class Split(Enum):
    NONE = ""
    PLUS = "+"
    MINUS = "-"


class Permutation:
    """A bijection of {0..n-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection of 0..{len(imgs) - 1}: {imgs}")
        self.images: tuple[int, ...] = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 0-based disjoint cycles; unmentioned points stay fixed."""
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                if images[a] != a:
                    raise ValueError("cycles are not disjoint")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        mine = self.images
        return Permutation(mine[x] for x in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            point = self.images[start]
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = self.images[point]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> Partition:
        return Partition(len(c) for c in self.cycles(include_fixed=True))

    @property
    def is_even(self) -> bool:
        return (len(self.images) - len(self.cycles(include_fixed=True))) % 2 == 0

    def order(self) -> int:
        from invgraph.arith import lcm_of

        return lcm_of(len(c) for c in self.cycles(include_fixed=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return format_cycles(self)


def cycle_type_of_images(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of a raw image sequence, as a decreasing tuple."""
    n = len(images)
    seen = bytearray(n)
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 1
        seen[start] = 1
        point = images[start]
        while point != start:
            seen[point] = 1
            length += 1
            point = images[point]
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycle notation, e.g. "(1,2,3)(4,5)"."""
    text = text.strip()
    if text in ("()", "", "id"):
        return Permutation.identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        points = [int(tok) - 1 for tok in chunk.replace(" ", "").split(",")]
        if any(not 0 <= pt < degree for pt in points):
            raise ValueError(f"point out of range in {text!r} for degree {degree}")
        cycles.append(points)
    return Permutation.from_cycles(degree, cycles)


def format_cycles(perm: Permutation) -> str:
    """1-based disjoint cycle notation; identity prints as "()"."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(pt + 1) for pt in cycle) + ")" for cycle in cycles)


class ClosureCapExceeded(RuntimeError):
    def __init__(self, partial_count: int, cap: int):
        super().__init__(f"closure exceeded cap {cap} (at {partial_count} elements)")
        self.partial_count = partial_count
        self.cap = cap


def closure_images(
    generators: Iterable[Sequence[int]],
    degree: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    stop_above: int | None = None,
) -> tuple[set[bytes], bool]:
    """Breadth-first closure on raw images.

    Returns (elements, truncated).  Each step multiplies a reached element p
    by a generator g on the left, ``p.translate(table_g)`` == ``g * p``;
    the full closure is the same set either way.  With ``stop_above`` set,
    stops as soon as the element count exceeds it and reports
    truncated=True; then only the flag and the count being above the limit
    are meaningful, not which elements were reached.  Otherwise the full
    closure is returned, raising ClosureCapExceeded past ``cap``.
    """
    gens = [bytes(g) for g in generators]
    if any(len(g) != degree for g in gens):
        raise ValueError("generator degree mismatch")
    tail = bytes(range(degree, 256))
    tables = [g + tail for g in gens]
    limit = cap if stop_above is None else min(cap, stop_above)
    identity = bytes(range(degree))
    seen: set[bytes] = {identity}
    queue: deque[bytes] = deque([identity])
    add, push, pop = seen.add, queue.append, queue.popleft
    while queue:
        translate = pop().translate
        for table in tables:
            q = translate(table)
            if q not in seen:
                add(q)
                push(q)
                if len(seen) > limit:
                    if stop_above is not None and len(seen) > stop_above:
                        return seen, True
                    raise ClosureCapExceeded(len(seen), cap)
    return seen, False


def closure(
    generators: Iterable[Permutation], cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[Permutation]:
    """The full element set generated by ``generators``."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    elements, _ = closure_images([g.images for g in gens], degree, cap=cap)
    return frozenset(Permutation(e) for e in elements)


def conjugator(x: Permutation, y: Permutation) -> Permutation | None:
    """Some s with s^-1 * x * s == y, or None when the cycle types differ."""
    if x.degree != y.degree:
        raise ValueError("degree mismatch")
    if x.cycle_type() != y.cycle_type():
        return None
    key = lambda c: (-len(c), c[0])
    images = [0] * x.degree
    for cx, cy in zip(
        sorted(x.cycles(include_fixed=True), key=key),
        sorted(y.cycles(include_fixed=True), key=key),
    ):
        for a, b in zip(cx, cy):
            images[b] = a
    return Permutation(images)


def canonical_of_type(p: Partition) -> Permutation:
    """Cycles of the type laid out in decreasing length over 0,1,2,..."""
    images = []
    start = 0
    for part in p.parts:
        images.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return Permutation(images)


def split_label(g: Permutation) -> Split:
    """Which of the two alternating-group classes of its cycle type g is in.

    NONE when the type does not split (a repeated or even part).  Otherwise
    PLUS exactly when a conjugator from the canonical representative is even;
    well defined because in the split case the centralizer is even.
    """
    if not g.is_even:
        raise ValueError("split labels only apply to even permutations")
    t = g.cycle_type()
    if not has_distinct_odd_parts(t):
        return Split.NONE
    s = conjugator(canonical_of_type(t), g)
    assert s is not None
    return Split.PLUS if s.is_even else Split.MINUS


@dataclass(frozen=True)
class ClassLabel:
    """A vertex: cycle type plus group tag, with a split tag for A_n."""

    cycle_type: Partition
    group: GroupKind
    split: Split = Split.NONE

    def __post_init__(self):
        t = self.cycle_type
        if t.parts == (1,) * t.n:
            raise ValueError("the identity class is not a vertex")
        if self.group is GroupKind.ALT and not is_even_type(t):
            raise ValueError(f"odd type {t} has no class in the alternating group")
        should_split = self.group is GroupKind.ALT and has_distinct_odd_parts(t)
        if should_split != (self.split is not Split.NONE):
            raise ValueError(f"bad split tag {self.split} for {t} in {self.group}")

    @property
    def degree(self) -> int:
        return self.cycle_type.n

    def text(self) -> str:
        return f"{self.cycle_type}{self.split.value}"

    def __str__(self) -> str:
        return self.text()


def class_labels(n: int, group: GroupKind) -> list[ClassLabel]:
    """All vertices at degree n, in enumeration order (split: PLUS then MINUS)."""
    if n < 3:
        raise ValueError("need n >= 3")
    from invgraph.partitions import enumerate_partitions

    out: list[ClassLabel] = []
    one_n = (1,) * n
    for p in enumerate_partitions(n):
        if p.parts == one_n:
            continue
        if group is GroupKind.SYM:
            out.append(ClassLabel(p, group))
        else:
            if not is_even_type(p):
                continue
            if has_distinct_odd_parts(p):
                out.append(ClassLabel(p, group, Split.PLUS))
                out.append(ClassLabel(p, group, Split.MINUS))
            else:
                out.append(ClassLabel(p, group))
    return out


def symmetric_group_generators(n: int) -> list[Permutation]:
    if n < 2:
        return [Permutation.identity(n)]
    return [
        Permutation.from_cycles(n, [(0, 1)]),
        Permutation.from_cycles(n, [tuple(range(n))]),
    ]


def symmetric_group_elements(n: int) -> list[Permutation]:
    import itertools

    return [Permutation(p) for p in itertools.permutations(range(n))]


def is_transitive(generators: Sequence[Permutation], n: int) -> bool:
    reached = {0}
    frontier = [0]
    gens = [g.images for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return len(reached) == n


def _block_size(gen_images: list[tuple[int, ...]], n: int, a: int) -> int:
    """Size of the minimal block containing {0, a} for the generated group."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(0, a)]
    parent[find(a)] = find(0)
    while queue:
        x, y = queue.pop()
        for g in gen_images:
            u, v = find(g[x]), find(g[y])
            if u != v:
                parent[u] = v
                queue.append((g[x], g[y]))
    root = find(0)
    return sum(1 for x in range(n) if find(x) == root)


def is_primitive(generators: Sequence[Permutation], n: int) -> bool:
    """Transitive with no nontrivial block system."""
    if not is_transitive(generators, n):
        return False
    gen_images = [g.images for g in generators]
    return all(_block_size(gen_images, n, a) == n for a in range(1, n))
