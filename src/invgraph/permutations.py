"""Concrete permutations, stabilizer chains and class walks.

Permutations act on {0..n-1}; composition is function composition, so
``(p * q)(x) == p(q(x))``.  Group algorithms work internally on ``bytes``
images (degree <= 255 everywhere in this package).  Each permutation g
becomes a 256-byte translate table ``g + bytes(range(degree, 256))``, so one
product is the single C call ``p.translate(table)``, which is the left
product ``g * p``, and ``bytes.maketrans(g, identity)`` is the table of
``g^-1``.  Conjugation is two such calls: ``g.translate(x.translate(inv_g) +
tail)`` is ``g^-1 * x * g`` (translating ``g`` by a table of ``x`` composes
``x * g``).

``stabilizer_chain`` gives a group's order by Schreier-Sims without listing
its elements.  Given the order of a group known to contain the generated
one, it stops as soon as its order reaches that bound, which decides
generation.  It returns a ``StabilizerChain``: the transversals, with the
sift tables and the strong generators of each level that Schreier-Sims
built, so no consumer builds them again.  ``chain_member`` decides
membership by sifting an element through a chain with those tables.
``conjugacy_class`` walks one class by conjugating with the generators.
``_class_levels`` finds elements that meet every class by
climbing the chain from its deepest level up: an element with a fixed point
in a level's base orbit is conjugate into the next level's group, so each
level re-weights the representatives found below it and sizes only the
classes with no fixed point in its orbit, until the weights add up to the
level's order.  A class whose representative x has a small centralizer
``K`` in S_n, ``|K|^2 < |H|`` for the level's group H, is counted instead
of walked: ``centralizer_generators`` spans ``K`` (a product of wreath
products ``C_k wr S_m``), the elements of K that sift through the chain
form ``C_H(x)``, and the class has ``|H| / |C_H(x)|`` members.  Listing K
costs ``|K|`` sifts, fewer than the at least ``|H| / |K|`` conjugations a
walk would take.  The other classes, whose centralizer in S_n is large, are
small, and are walked by ``conjugacy_class``, each level under the chain's
strong generators that fix the earlier base points: those of a base and
strong generating set generate each stabilizer in the chain (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, 4.4), so the walk
builds no chain of its own.
``symmetric_group_generators`` and ``alternating_group_generators`` are the
two-element generating sets the edge oracle walks its classes with, a
transposition and an n-cycle for S_n, a 3-cycle and an n- or (n-1)-cycle
for A_n, and ``normalizer_generators`` spans the normalizer of <x> whose
orbits it skips.  ``closure_images`` returns the set of every element, found
breadth-first; its one option is a cap on that set's size.  No module of
the package calls it: it is the reference enumeration for the tests and
for ``scripts/find_curated_generators.py``.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from invgraph.partitions import Partition, has_distinct_odd_parts

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
        return [c for c in _cycles(self.images) if len(c) > 1 or include_fixed]

    def cycle_type(self) -> Partition:
        return Partition(len(c) for c in self.cycles(include_fixed=True))

    @property
    def is_even(self) -> bool:
        return (len(self.images) - len(self.cycles(include_fixed=True))) % 2 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return format_cycles(self)


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of a raw image sequence, fixed points included, by least point."""
    seen = bytearray(len(images))
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = 1
            point = images[point]
        out.append(tuple(cycle))
    return out


def cycle_type_of_images(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of a raw image sequence, as a decreasing tuple."""
    return tuple(sorted(map(len, _cycles(images)), reverse=True))


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
    generators: Iterable[Sequence[int]], degree: int, cap: int = DEFAULT_CLOSURE_CAP
) -> set[bytes]:
    """Every element of the group the generators span, breadth-first on raw images.

    Each step multiplies a reached element p by a generator g on the left,
    ``p.translate(table_g)`` == ``g * p``; the full closure is the same set
    either way.  Raises ClosureCapExceeded once the count passes ``cap``.
    """
    gens = [bytes(g) for g in generators]
    if any(len(g) != degree for g in gens):
        raise ValueError("generator degree mismatch")
    tail = bytes(range(degree, 256))
    tables = [g + tail for g in gens]
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
                if len(seen) > cap:
                    raise ClosureCapExceeded(len(seen), cap)
    return seen


class StabilizerChain(list):
    """The transversals of a ``stabilizer_chain``, one per level, with what
    its construction built for each level: ``sifts[j]``, the base point and
    the table of ``u^-1`` for each transversal element u, by orbit point,
    which every sift through the chain reads, and ``strong[j]``, the strong
    generators that fix the earlier base points, as images.  A slice is a
    plain list of transversals, so ``chain_order(chain[j:])`` still reads
    one.  Nothing edits the levels after the tables are built."""

    def __init__(
        self,
        transversals: list[dict[int, bytes]],
        sifts: list[tuple[int, dict[int, bytes]]],
        strong: list[list[bytes]],
    ):
        super().__init__(transversals)
        self.sifts = sifts
        self.strong = strong


def stabilizer_chain(
    generators: Iterable[Sequence[int]], degree: int, *, order: int | None = None
) -> StabilizerChain:
    """A base and strong generating set, by deterministic Schreier-Sims.

    Returns one transversal per base point b: a dict from each point y of
    b's orbit under the stabilizer of the earlier base points to an element
    u of that stabilizer with ``u[b] == y``.  Every element of the group is
    exactly one product ``u_0 * u_1 * ... * u_k-1`` with ``u_i`` from the
    i-th transversal, so the group order is ``chain_order(chain)``.  The
    identity group has the empty chain.

    This is Holt's SCHREIERSIMS (Handbook of Computational Group Theory,
    4.4.2): every Schreier generator of a level is sifted through the deeper
    levels, and a nontrivial residue becomes a strong generator (and a new
    base point when it fixes every base point).  With the tables of the
    module docstring, ``q.translate(p + tail)`` is ``p * q`` and
    ``bytes.maketrans(u, identity)`` is the table of ``u^-1``; each
    transversal element's inverse table is built once, when ``grow_orbit``
    adds it, and kept beside the transversal for every sift.

    The transversals come as a ``StabilizerChain``, which also carries
    per level what the construction built: its base point and inverse
    tables (``sifts``) and its strong generators (``strong``), those of
    the set that fix the earlier base points.  ``strong[0]`` is the given
    generators, without repeats and without the identity, since a residue
    fixes a base point and joins deeper levels only.  Once Schreier-Sims
    has run to completion, ``strong[j]`` generates the group of
    ``chain[j:]`` (Handbook, 4.4).

    ``order``, when given, is the order of a group known to contain the
    generated group H, and the chain is returned as soon as its order
    reaches it (Handbook, 4.4-4.5).  Each level's orbit is an orbit of a
    subgroup of the true stabilizer of the earlier base points in H, so
    before the chain is complete its order is a lower bound on ``|H|``.
    Reaching ``order >= |H|`` forces every orbit to be full and the last
    stabilizer trivial, so the early chain is complete.  It is even the
    full record: the strong generators of each level lie in the group of
    the level above, so with full orbits each level's generators span it
    and every remaining Schreier generator would sift.  Its one caller,
    ``_generates``, reads only its order.  A chain that stops short of
    ``order`` has run to completion and gives ``|H|`` exactly.  Callers
    that check generators by comparing the chain order with an expected
    order (fingerprints, wreath products) pass no ``order``: an early stop
    would only show ``|H| >= order`` and hide generators that span too
    large a group.
    """
    identity = bytes(range(degree))
    tail = bytes(range(degree, 256))
    gens = list(dict.fromkeys(map(bytes, generators)))
    if any(len(g) != degree for g in gens):
        raise ValueError("generator degree mismatch")
    gens = [g for g in gens if g != identity]
    base: list[int] = []
    level_tables: list[list[bytes]] = []  # strong generators as translate tables
    transversals: list[dict[int, bytes]] = []
    inverses: list[dict[int, bytes]] = []  # the table of u^-1 per transversal point
    identity_table = bytes(range(256))
    reached = 1  # chain_order(transversals), kept up to date by grow_orbit

    def add_base_point(g: bytes) -> None:
        b = next(x for x in range(degree) if g[x] != x)
        base.append(b)
        level_tables.append([])
        transversals.append({b: identity})
        inverses.append({b: identity_table})

    def grow_orbit(i: int) -> None:
        nonlocal reached
        b = base[i]
        transversal = {b: identity}
        inverse = {b: identity_table}
        reps = [identity]
        for u in reps:  # breadth-first; reps grows while it is walked
            for table in level_tables[i]:
                v = u.translate(table)  # s * u
                if v[b] not in transversal:
                    transversal[v[b]] = v
                    inverse[v[b]] = bytes.maketrans(v, identity)
                    reps.append(v)
        reached = reached // len(transversals[i]) * len(transversal)
        transversals[i] = transversal
        inverses[i] = inverse

    def sift(g: bytes, start: int) -> tuple[bytes, int]:
        for i in range(start, len(base)):
            inverse = inverses[i].get(g[base[i]])
            if inverse is None:
                return g, i
            g = g.translate(inverse)  # u^-1 * g
        return g, len(base)

    def schreier_residue(i: int) -> tuple[bytes, int] | None:
        """The first Schreier generator of level i that does not sift."""
        b, inverse = base[i], inverses[i]
        for u in transversals[i].values():
            for table in level_tables[i]:
                su = u.translate(table)  # s * u
                h, j = sift(su.translate(inverse[su[b]]), i + 1)
                if j < len(base) or h != identity:
                    return h, j
        return None

    for g in gens:
        if all(g[b] == b for b in base):
            add_base_point(g)
    for i in range(len(base)):
        level_tables[i] = [g + tail for g in gens if all(g[b] == b for b in base[:i])]
        grow_orbit(i)

    # the levels after i are complete; a residue fixes the base points before
    # level j, so it joins the strong generators of levels i+1..j
    i = len(base) - 1
    while i >= 0 and (order is None or reached < order):
        found = schreier_residue(i)
        if found is None:
            i -= 1
            continue
        residue, j = found
        if j == len(base):
            add_base_point(residue)
        for level in range(i + 1, j + 1):
            level_tables[level].append(residue + tail)
            grow_orbit(level)
        i = j
    strong = [[table[:degree] for table in tables] for tables in level_tables]
    return StabilizerChain(transversals, list(zip(base, inverses)), strong)


def chain_order(chain: Sequence[dict[int, bytes]]) -> int:
    """The order of the group a ``stabilizer_chain`` describes."""
    return math.prod(len(transversal) for transversal in chain)


def _chain_elements(chain: Sequence[dict[int, bytes]], degree: int) -> Iterator[bytes]:
    """Every product ``u_0 * ... * u_k-1`` of a chain, depth-first.

    ``x.translate(u + tail)`` is ``u * x``, so a prefix is built from the
    last level outward and the first level is the innermost loop: one
    ``translate`` per element.
    """
    identity = bytes(range(degree))
    tail = bytes(range(degree, 256))
    levels = [[u + tail for u in transversal.values()] for transversal in reversed(chain)]
    *outer, inner = levels or [[identity + tail]]
    prefixes = [(0, identity)]
    while prefixes:
        depth, x = prefixes.pop()
        if depth < len(outer):
            prefixes.extend((depth + 1, x.translate(table)) for table in outer[depth])
        else:
            yield from map(x.translate, inner)


def conjugacy_class(x: bytes, generators: Iterable[Sequence[int]], degree: int) -> list[bytes]:
    """The class of x in the group the generators span, x first, in walk order.

    Each member is conjugated by every generator until nothing new appears,
    which reaches the whole class in a finite group.  A member's translate
    table is formed once, and each generator g reads it and then the table
    of g^-1.
    """
    identity = bytes(range(degree))
    tail = bytes(range(degree, 256))
    conjugators = [(g.translate, bytes.maketrans(g, identity)) for g in map(bytes, generators)]
    members = [x]
    seen = {x}
    add, push = seen.add, members.append
    for member in members:  # breadth-first; members grows while it is walked
        table = member + tail
        for g_translate, inverse_table in conjugators:
            y = g_translate(table).translate(inverse_table)  # g^-1 * member * g
            if y not in seen:
                add(y)
                push(y)
    return members


def centralizer_generators(x: bytes) -> list[bytes]:
    """Generators of the centralizer of x in S_n.

    It is the product of the wreath products ``C_k wr S_m``, one per cycle
    length k of x with m cycles of that length (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005): each nontrivial cycle,
    and the involution swapping two consecutive k-cycles point by point.
    """
    n = len(x)
    cycles = sorted(_cycles(x), key=len)
    gens = [Permutation.from_cycles(n, [c]) for c in cycles if len(c) > 1]
    gens += [
        Permutation.from_cycles(n, list(zip(c, d)))
        for c, d in zip(cycles, cycles[1:])
        if len(c) == len(d)
    ]
    return [bytes(g.images) for g in gens]


def normalizer_generators(x: bytes) -> list[bytes]:
    """Generators of the normalizer of <x> in S_n.

    The centralizer's generators, and for each k of a generating set of the
    units mod the order of x the s with ``s^-1 * x * s == x^k`` that
    ``_aligning`` builds: the cycle ``(a_0 a_1 ...)`` of x is the cycle
    ``(a_0 a_k a_2k ...)`` of x^k on the same points.  Every unit power has
    x's cycle type, so the normalizer induces every automorphism of <x> and
    has order ``|C_{S_n}(x)| * phi(|x|)``; conjugation maps it onto the
    units with the centralizer as kernel, so the aligners of generators of
    the units, with the centralizer, span it.  A unit k is taken when the
    units taken before it do not span it, smallest first: at most two at
    n <= 9.
    """
    cycles = _cycles(x)
    order = math.lcm(*map(len, cycles))
    gens = centralizer_generators(x)
    spanned = {1}
    for k in range(2, order):
        if k not in spanned and math.gcd(k, order) == 1:
            powered = [tuple(c[i * k % len(c)] for i in range(len(c))) for c in cycles]
            gens.append(bytes(_aligning(cycles, powered)))
            spanned = {u * k**i % order for u in spanned for i in range(order)}
    return gens


def cyclic_powers(x: bytes) -> list[bytes]:
    """The powers x, x^2, ..., x^|x|, the last one the identity."""
    identity = bytes(range(len(x)))
    table = x + bytes(range(len(x), 256))
    powers = [x]
    while powers[-1] != identity:
        powers.append(powers[-1].translate(table))  # x * x^k
    return powers


def _centralizer_order(lengths: Iterable[int]) -> int:
    """The order of the centralizer in S_n of an element with these cycle lengths.

    ``C_k wr S_m`` has order ``k^m * m!`` for m cycles of length k.
    """
    return math.prod(k**m * math.factorial(m) for k, m in Counter(lengths).items())


def _walk_scale(chain: Sequence[dict[int, bytes]], degree: int) -> int:
    """The factor by which ``_class_levels`` scales its weights:
    ``lcm(1..degree)`` per chain level."""
    return math.lcm(*range(1, degree + 1)) ** len(chain)


def _class_levels(chain: StabilizerChain, degree: int) -> Iterator[list[tuple[bytes, int]]]:
    """Weighted class representatives of each chain level, deepest first.

    ``chain`` is a group's ``stabilizer_chain``, whose sift tables and
    strong generators the walk reads; ``H_j`` is the group of ``chain[j:]``,
    so ``H_0`` is the whole group, and ``O_j`` is the orbit of the base
    point of ``chain[j]``.  For j = len(chain) down to 0 this yields pairs
    (r, w) of elements of ``H_j`` and weights, such that every class C of
    ``H_j`` holds one r or more and their weights sum to ``|C| * scale``,
    with ``scale`` from ``_walk_scale``; so the weights sum to
    ``|H_j| * scale``, and the elements of the last list meet every class
    of the group.

    The walk runs from the trivial group ``H_len(chain)`` up to ``H_0`` and
    rests on two facts.  An element of ``H_j`` that fixes a point
    ``u(b_j)`` of ``O_j`` is conjugate by u into ``H_{j+1}``.  Counting the
    pairs (element, fixed point in ``O_j``) shows that the elements with a
    fixed point in ``O_j`` number ``|O_j|`` times the sum of ``1 / fix(h)``
    over h in ``H_{j+1}``, where ``fix`` counts the fixed points in
    ``O_j``, a class function of ``H_j``.

    So each level re-weights the representatives of ``H_{j+1}`` by
    ``|O_j| / fix(r)``, which makes them count the classes of ``H_j`` with a
    fixed point in ``O_j``, and sizes only the classes with none: for each
    product x of transversal elements in no class found so far and with no
    fixed point in ``O_j``, the powers ``x, x^2, ...`` without one are taken
    in turn, and each one in no class found so far is a new representative
    (Handbook of Computational Group Theory, 4.6).  Small classes are powers
    of large ones, so they turn up long before the products run out.  The
    level is done once these classes cover ``|H_j|`` minus the re-weighted
    count.  The weights are integers scaled by ``lcm(1..degree)`` per
    level, since ``fix(r) <= degree`` divides that.

    A new representative r is sized in one of two ways, by comparing two
    costs read from the input.  ``K = C_{S_n}(r)`` is the product of
    ``C_k wr S_m`` over r's cycle lengths k, each with m cycles, of order
    ``prod k^m * m!``.  When ``|K|^2 < |H_j|`` the class is counted: K is
    listed from ``centralizer_generators`` and each element sifted through
    ``chain[j:]`` (``_count_class``); those that sift to the identity form
    ``C_{H_j}(r)``, and the class has ``|H_j| / |C_{H_j}(r)|`` members.
    That takes ``|K|`` sifts, where a walk would take at least
    ``|H_j| / |K|`` conjugations.  A later element y of r's cycle type is
    in r's class exactly when some ``c * s`` lies in ``H_j``, for c in K and
    s the permutation that aligns r's cycles with y's, so
    ``s^-1 * r * s == y``; one c per coset ``C_{H_j}(r) * c`` is tested,
    ``|K : C_{H_j}(r)|`` sifts.  Otherwise ``K`` is large and the class
    small, and its ``conjugacy_class`` is walked and kept, so a later
    element is found in it by lookup.  A walk at level j runs under
    ``chain.strong[j]``, the strong generators that fix the earlier base
    points, which generate ``H_j`` (Handbook of Computational Group Theory,
    4.4); at the top level they are the given generators.  The walk builds
    no chain of its own.

    Raises RuntimeError when a representative from the level below fixes no
    point of ``O_j`` (a transversal holds an element of another level),
    when a class fails the class equation (a walked class's size divides
    ``|H_j|``, and so does its size times the order of its elements,
    because ``<x>`` lies in the centralizer of x; a counted
    ``|C_{H_j}(r)|`` divides ``|H_j|`` and is a multiple of r's order),
    when the count with a fixed point is no integer below ``|H_j|`` (a
    group transitive on two points or more has an element that fixes none,
    by Jordan's theorem), or when the walked and counted classes do not
    cover the rest exactly.  A chain that misses elements can still pass,
    so callers check the chain order against an independently known order
    first.
    """
    identity = bytes(range(degree))
    scale = _walk_scale(chain, degree)
    sifts = chain.sifts
    weighted = [(identity, scale)]
    yield weighted
    for j in range(len(chain) - 1, -1, -1):
        transversal = chain[j]
        orbit = {u[sifts[j][0]] for u in transversal.values()}  # O_j, as images: all below degree
        order = chain_order(chain[j:])
        # each class of H_j with a fixed point in O_j meets H_{j+1}, and
        # counting its pairs (element, fixed point in O_j) gives
        # |C| = |O_j| / fix(C) * |C & H_{j+1}|; an element of H_{j+1} fixes
        # the base point, unless the chain mixes up its levels
        fixed = [sum(r[y] == y for y in orbit) for r, _ in weighted]
        if not all(fixed):
            raise RuntimeError(
                f"class walk met an element of the level below with no fixed point "
                f"in an orbit of {len(transversal)} points"
            )
        weighted = [(r, w * len(transversal) // f) for (r, w), f in zip(weighted, fixed)]
        with_fixed = sum(w for _, w in weighted)
        if with_fixed % scale or with_fixed >= order * scale:
            raise RuntimeError(
                f"class walk counted {with_fixed / scale:g} elements of chain order {order} "
                f"with a fixed point in an orbit of {len(transversal)} points"
            )
        need = order - with_fixed // scale
        in_level = _sifter(sifts[j:], identity)
        covered: set[bytes] = set()  # the members of the walked classes
        # cycle type -> (cycles of r, a table of c per coset of C_{H_j}(r) in
        # C_{S_n}(r)) for each counted representative r
        counted: dict[tuple[int, ...], list[tuple[list[tuple[int, ...]], list[bytes]]]] = {}
        counted_size = 0

        def known(y: bytes) -> bool:
            """Whether y has a fixed point in O_j or lies in a class found before."""
            if y in covered or any(y[z] == z for z in orbit):
                return True
            if not counted:
                return False
            cycles = sorted(_cycles(y), key=len)
            for r_cycles, coset_tables in counted.get(tuple(map(len, cycles)), ()):
                s = bytes(_aligning(r_cycles, cycles))
                # y = (c * s)^-1 * r * (c * s) for every c in C_{S_n}(r), and
                # c * s is in H_j for all of a coset or for none of it
                if any(in_level(s.translate(table)) for table in coset_tables):
                    return True
            return False

        for x in _chain_elements(chain[j:], degree):
            if known(x):
                continue  # then so is every power of x without a fixed point in O_j
            powers = cyclic_powers(x)
            for k, power in enumerate(powers, 1):
                if known(power):
                    continue
                power_order = len(powers) // math.gcd(k, len(powers))
                cycles = sorted(_cycles(power), key=len)
                centralizer = _centralizer_order(map(len, cycles))
                if centralizer * centralizer < order:
                    size, coset_tables = _count_class(power, in_level, order, power_order)
                    counted.setdefault(tuple(map(len, cycles)), []).append((cycles, coset_tables))
                    counted_size += size
                else:
                    members = conjugacy_class(power, chain.strong[j], degree)
                    size = len(members)
                    if order % size or order // size % power_order:
                        raise RuntimeError(
                            f"class walk covered a class of {size} elements of order "
                            f"{power_order}, which chain order {order} does not allow"
                        )
                    covered.update(members)
                weighted.append((power, size * scale))
            if len(covered) + counted_size >= need:
                break
        if len(covered) + counted_size != need:
            raise RuntimeError(
                f"class walk covered {len(covered) + counted_size} elements with no fixed "
                f"point in an orbit of {len(transversal)} points, where chain order {order} "
                f"leaves {need}"
            )
        yield weighted


def _sifter(
    sifts: Sequence[tuple[int, dict[int, bytes]]], identity: bytes
) -> Callable[[bytes], bool]:
    """The membership test of a chain, given per level as its base point and
    the table of ``u^-1`` for each transversal element u, by orbit point:
    whether g sifts to the identity."""

    def member(g: bytes) -> bool:
        for base, inverse in sifts:
            table = inverse.get(g[base])
            if table is None:
                return False
            g = g.translate(table)  # u^-1 * g
        return g == identity

    return member


def chain_member(chain: StabilizerChain, degree: int) -> Callable[[bytes], bool]:
    """Whether an element lies in the group a ``stabilizer_chain`` describes."""
    return _sifter(chain.sifts, bytes(range(degree)))


def _count_class(
    x: bytes, in_level: Callable[[bytes], bool], order: int, x_order: int
) -> tuple[int, list[bytes]]:
    """The size of x's class in the group H of ``in_level``, by its centralizer.

    Lists ``K = C_{S_n}(x)`` breadth-first from ``centralizer_generators``;
    the elements of K in H are ``C_H(x)``, and the class has
    ``|H| / |C_H(x)|`` members.  Also returns the table of one element c
    per coset ``C_H(x) * c`` of K.  Raises RuntimeError unless ``|C_H(x)|``
    divides ``order`` and is a multiple of ``x_order``, the order of x.
    """
    tail = bytes(range(len(x), 256))
    elements = [bytes(range(len(x)))]
    seen = set(elements)
    tables = [g + tail for g in centralizer_generators(x)]
    for c in elements:  # breadth-first; elements grows while it is walked
        for table in tables:
            d = c.translate(table)
            if d not in seen:
                seen.add(d)
                elements.append(d)
    inside = [z + tail for z in elements if in_level(z)]
    if order % len(inside) or len(inside) % x_order:
        raise RuntimeError(
            f"class walk counted a centralizer of {len(inside)} elements for an element "
            f"of order {x_order}, which chain order {order} does not allow"
        )
    marked: set[bytes] = set()
    coset_tables = []
    for c in elements:
        if c not in marked:
            coset_tables.append(c + tail)
            marked.update(c.translate(z) for z in inside)  # z * c
    return order // len(inside), coset_tables


def conjugator(x: Permutation, y: Permutation) -> Permutation | None:
    """Some s with s^-1 * x * s == y, or None when the cycle types differ."""
    if x.degree != y.degree:
        raise ValueError("degree mismatch")
    if x.cycle_type() != y.cycle_type():
        return None
    key = lambda c: (-len(c), c[0])
    return Permutation(
        _aligning(
            sorted(x.cycles(include_fixed=True), key=key),
            sorted(y.cycles(include_fixed=True), key=key),
        )
    )


def _aligning(x_cycles: list[tuple[int, ...]], y_cycles: list[tuple[int, ...]]) -> list[int]:
    """The images of the s with s^-1 * x * s == y that takes y's cycles to x's.

    The cycles of x and y, fixed points included, come in the same order of
    lengths; s maps the i-th point of each cycle of y to the i-th point of
    the matching cycle of x.
    """
    images = [0] * sum(map(len, x_cycles))
    for cx, cy in zip(x_cycles, y_cycles):
        for a, b in zip(cx, cy):
            images[b] = a
    return images


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


def symmetric_group_generators(n: int) -> list[Permutation]:
    """The transposition (0 1) and the n-cycle (0 1 ... n-1)."""
    if n < 2:
        return [Permutation.identity(n)]
    return [
        Permutation.from_cycles(n, [(0, 1)]),
        Permutation.from_cycles(n, [tuple(range(n))]),
    ]


def alternating_group_generators(n: int) -> list[Permutation]:
    """The classical pair that generates A_n for n >= 3: the 3-cycle (0 1 2)
    with the n-cycle (0 1 ... n-1) for odd n, and with the (n-1)-cycle
    (1 2 ... n-1) for even n; at n = 3 the two are one, (0 1 2)."""
    if n < 3:
        raise ValueError("need n >= 3")
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return [three]
    return [three, Permutation.from_cycles(n, [tuple(range(1 - n % 2, n))])]


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
