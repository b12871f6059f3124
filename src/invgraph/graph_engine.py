"""Build the invariable-generation class graph, reduce it, and measure it.

Vertices are the nontrivial conjugacy classes of S_n or A_n; two classes are
joined exactly when no proper subgroup meets both (equivalently, any pair of
representatives generates the group however each is conjugated).  Adjacency
rows are bit masks: the isolated vertices are the empty rows, and
``diameter`` grows every vertex's ball at once, one OR per edge end per
round, for as many rounds as the diameter.

``build_graph`` reads each class's feature mask, the one whose lowest bit
shared with another class's mask is the ``shares_subgroup`` verdict.
Classes with one feature mask are twins, and the build works on the
distinct masks: for every feature bit it keeps a column, the set of
vertices having it, and for every distinct mask one row, the complement of
the union of its features' columns.  So a graph of V vertices and M
distinct masks costs O(V + M * F) integer operations instead of a test per
pair.  On the way it keeps each vertex's verdict state (its rule mask, its
fingerprint bits and the verdict table of its degree and group kind) on the
label, so ``shares_subgroup`` on two vertices of a built graph looks up no
profile.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

from invgraph.permutations import (
    ClassLabel,
    GroupKind,
    Permutation,
    Split,
    alternating_group_generators,
    canonical_of_type,
    chain_order,
    class_labels,
    conjugacy_class,
    cyclic_powers,
    normalizer_generators,
    stabilizer_chain,
    symmetric_group_generators,
)
from invgraph.subgroup_membership import degree_fingerprints, type_profile

EXPORT_SCHEMA = 1


class SpecialDiameter(Enum):
    EMPTY = "empty"
    DISCONNECTED = "disconnected"


class ClassGraph(NamedTuple):
    degree: int
    group: GroupKind
    vertices: tuple[ClassLabel, ...]
    adjacency: tuple[int, ...]  # bit mask per vertex, symmetric, empty diagonal

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.adjacency)
            for j in _bit_indices(row >> (i + 1) << (i + 1))
        ]


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=None)
def build_graph(n: int, group: GroupKind, cache_dir: str | None = None) -> ClassGraph:
    """The exact class graph at degree n; ``CatalogAbsent`` off the catalog.

    Twin classes, those with one feature mask, share one row object.  A
    nonzero mask meets itself, so twins share a proper subgroup and are not
    adjacent, and a vertex's neighbours depend on its mask alone, so twins
    have the same neighbours: the row of a mask is every vertex whose mask
    it does not meet.  A vertex with mask 0 (the classes of A_3) meets
    nothing, so its row is every other vertex.  ``ClassGraph`` holds one
    row per vertex, so its readers see no twins.
    """
    # raises before the classes of a large n are listed, and reads or writes
    # this directory's file even when the profile already holds the bits
    degree_fingerprints(n, cache_dir)
    labels = tuple(class_labels(n, group))
    features = type_profile(n, group is GroupKind.SYM).features(labels, cache_dir)
    # twins[mask]: the vertices with that feature mask
    twins: dict[int, int] = {}
    for i, mask in enumerate(features):
        twins[mask] = twins.get(mask, 0) | 1 << i
    # columns[f]: the vertices having feature bit f
    columns: dict[int, int] = {}
    for mask, vertices in twins.items():
        rest = mask
        while rest:
            low = rest & -rest
            columns[low] = columns.get(low, 0) | vertices
            rest ^= low
    full = (1 << len(labels)) - 1
    rows = {}
    for mask in twins:
        blocked = 0
        rest = mask
        while rest:
            low = rest & -rest
            blocked |= columns[low]
            rest ^= low
        rows[mask] = full & ~blocked
    adjacency = tuple(rows[mask] if mask else full ^ 1 << i for i, mask in enumerate(features))
    return ClassGraph(n, group, labels, adjacency)


def isolated_vertices(g: ClassGraph) -> list[ClassLabel]:
    return [lbl for lbl, row in zip(g.vertices, g.adjacency) if row == 0]


def xi_subgraph(g: ClassGraph) -> ClassGraph:
    """Induced subgraph on the non-isolated vertices; g itself if it has none isolated.

    Each distinct row is relabelled once, so twins keep sharing one row.
    """
    if all(g.adjacency):
        return g
    keep = [i for i, row in enumerate(g.adjacency) if row]
    relabel = {old: new for new, old in enumerate(keep)}
    moved = {
        row: sum(1 << relabel[j] for j in _bit_indices(row))
        for row in {g.adjacency[old] for old in keep}
    }
    rows = tuple(moved[g.adjacency[old]] for old in keep)
    return ClassGraph(g.degree, g.group, tuple(g.vertices[i] for i in keep), rows)


def diameter(g: ClassGraph) -> int | SpecialDiameter:
    """The largest distance between two vertices, by growing every ball at once.

    ``balls[i]`` is the bit mask of the vertices within r steps of i after r
    rounds: a round ORs into each ball the previous round's balls of its
    neighbours.  The diameter d is the number of rounds until every ball is
    full.  A round that changes no ball shows the graph is disconnected; it
    comes at most one round after the largest diameter d of a component, so
    at most d + 1 rounds run.  A round costs one OR per edge end, at most
    2E, and a full ball stops growing, so the search is O(d * E) big-integer
    ORs instead of a BFS per vertex.  The source paper
    (arXiv 1706.08423) proves 3 <= d <= 6 for the reduced graph of S_n and
    A_n apart from trivial cases.
    """
    count = len(g.vertices)
    if count == 0:
        return SpecialDiameter.EMPTY
    full = (1 << count) - 1
    # twins share a row, whose neighbour list is made once
    listed = {row: _bit_indices(row) for row in set(g.adjacency)}
    neighbours = [listed[row] for row in g.adjacency]
    balls = [1 << i for i in range(count)]
    rounds = 0
    while any(ball != full for ball in balls):
        grown = []
        for ball, near in zip(balls, neighbours):
            if ball != full:
                for j in near:
                    ball |= balls[j]
            grown.append(ball)
        if grown == balls:
            return SpecialDiameter.DISCONNECTED
        balls = grown
        rounds += 1
    return rounds


def _diameter_json(value: int | SpecialDiameter):
    return value if isinstance(value, int) else value.value


def export(g: ClassGraph, fmt: str) -> str:
    """Serialize a graph as DOT, JSON, or a CSV edge list (byte-stable)."""
    fmt = fmt.lower()
    group_token = "S" if g.group is GroupKind.SYM else "A"
    if fmt == "dot":
        lines = [f"graph Lambda_{group_token}{g.degree} {{"]
        for i, lbl in enumerate(g.vertices):
            lines.append(f'  v{i} [label="{lbl.text()}"];')
        for i, j in g.edges():
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        iso = {i for i, row in enumerate(g.adjacency) if row == 0}
        payload = {
            "schema": EXPORT_SCHEMA,
            "degree": g.degree,
            "group": g.group.value,
            "vertices": [
                {
                    "id": i,
                    "type": str(lbl.cycle_type),
                    "split": lbl.split.value or None,
                    "isolated": i in iso,
                }
                for i, lbl in enumerate(g.vertices)
            ],
            "edges": [[i, j] for i, j in g.edges()],
            "xi_diameter": _diameter_json(diameter(xi_subgraph(g))),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        lines = ["v1,v2"] + [f"{i},{j}" for i, j in g.edges()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r} (want dot, json, or csv)")


# ---------------------------------------------------------------------------
# brute-force oracle: explicit invariable generation over all class members
# ---------------------------------------------------------------------------


def _class_elements(n: int, group: GroupKind) -> dict[tuple, list[bytes]]:
    """Elements of every vertex class, keyed by (parts, split value).

    Each class starts from ``canonical_of_type``, which is PLUS by the
    definition in ``split_label``; a MINUS class starts from its conjugate
    by the odd transposition (0 1).  ``conjugacy_class`` then walks the
    class by conjugating with the group's two generators (only (0 1 2) for
    A_3): ``symmetric_group_generators`` or ``alternating_group_generators``.
    It lists the members in walk order with the start first.
    """
    if group is GroupKind.SYM:
        generators = [g.images for g in symmetric_group_generators(n)]
    else:
        generators = [g.images for g in alternating_group_generators(n)]
    transposition = Permutation.from_cycles(n, [(0, 1)])
    out: dict[tuple, list[bytes]] = {}
    for label in class_labels(n, group):
        start = canonical_of_type(label.cycle_type)
        if label.split is Split.MINUS:
            start = start.conjugate_by(transposition)
        members = conjugacy_class(bytes(start.images), generators, n)
        out[(label.cycle_type.parts, label.split.value)] = members
    return out


def _generates(x: bytes, y: bytes, n: int, order: int) -> bool:
    """Whether <x, y> is all of G, given x and y in G and ``order == |G|``.

    G is S_n or A_n, both transitive, so an intransitive pair generates a
    proper subgroup and needs no chain; the orbit of 0 is walked on the
    images themselves.  Otherwise the chain of <x, y> stops as soon as its
    order reaches ``|G|``, which it can only do when <x, y> = G.  Like the
    rest of the oracle, this consults no rule or catalog.
    """
    reached = {0}
    orbit = [0]
    for point in orbit:  # breadth-first; orbit grows while it is walked
        for image in (x[point], y[point]):
            if image not in reached:
                reached.add(image)
                orbit.append(image)
    if len(orbit) < n:
        return False
    return chain_order(stabilizer_chain([x, y], n, order=order)) == order


def _mark(y: bytes, normalizer: list[bytes], n: int, seen: set[bytes]) -> None:
    """Add to ``seen`` the unit powers ``z^k`` of every z in y's orbit under
    conjugation by ``normalizer``.

    That is the union of the orbits of y's unit powers ``y^k``, since
    conjugation commutes with powers: the orbit of y^k is ``{z^k}``.  So
    the orbit is walked once, for y, and each member z is stepped through
    its powers by ``translate``.
    """
    order = len(cyclic_powers(y))
    units = [gcd(k, order) == 1 for k in range(1, order)]
    tail = bytes(range(n, 256))
    for z in conjugacy_class(y, normalizer, n):
        table = z + tail
        power = z
        for unit in units:
            if unit:
                seen.add(power)
            power = power.translate(table)  # z * z^k


def oracle_adjacency(n: int, group: GroupKind) -> ClassGraph:
    """Adjacency by explicit generation checks; feasible for n <= 9.

    Classes c1, c2 are joined iff for a fixed representative x of c1 every
    member y of c2 satisfies <x, y> = G.  ``_class_elements`` lists every
    class by conjugation under two generators of G from its canonical
    representative (for a MINUS class, that representative conjugated by
    (0 1)), and x is the first member of the larger class.  Each pair is
    decided by ``_generates``: a stabilizer chain of <x, y> that stops once
    its order reaches the order of G.  No subgroup catalog or rule is
    consulted.

    Once y generates, the pair's answer is known for every member of y's
    orbit under two kinds of map, and the walk skips them:

    - conjugation by c in ``N_{S_n}(<x>)``.  Then ``c x c^-1 = x^k`` with k
      prime to |x|, so ``<x, c^-1 y c> = c^-1 <x^k, y> c = c^-1 <x, y> c``;
      G is normal in S_n, so that pair generates G exactly when <x, y> does.
      ``normalizer_generators(x)``, computed once per class, spans it.
    - unit powers: ``<x, y^k> = <x, y>`` for k prime to |y|.

    ``_mark`` marks both at once, from one walk of y's normalizer orbit.
    An orbit member outside the class being walked is never visited, so
    marking it seen is harmless.
    """
    if n > 9:
        raise ValueError("the explicit oracle is limited to n <= 9")
    labels = tuple(class_labels(n, group))
    classes = _class_elements(n, group)
    group_order = factorial(n) // (1 if group is GroupKind.SYM else 2)
    listed = 1 + sum(len(c) for c in classes.values())
    if listed != group_order:
        raise RuntimeError(
            f"the classes of {group.value} {n} hold {listed} elements, not {group_order}"
        )
    count = len(labels)
    rows = [0] * count
    members = [classes[(lbl.cycle_type.parts, lbl.split.value)] for lbl in labels]
    normalizers = [normalizer_generators(c[0]) for c in members]
    for i in range(count):
        for j in range(i + 1, count):
            fixed, moving = (i, j) if len(members[i]) >= len(members[j]) else (j, i)
            x = members[fixed][0]
            normalizer = normalizers[fixed]
            seen: set[bytes] = set()
            adjacent = True
            for y in members[moving]:
                if y in seen:
                    continue
                if not _generates(x, y, n, group_order):
                    adjacent = False
                    break
                _mark(y, normalizer, n, seen)
            if adjacent:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return ClassGraph(n, group, labels, tuple(rows))


def adjacency_diff(a: ClassGraph, b: ClassGraph) -> list[tuple[ClassLabel, ClassLabel]]:
    """Vertex pairs on which two graphs over the same vertex list disagree."""
    if a.vertices != b.vertices:
        raise ValueError("vertex lists differ")
    return [
        (a.vertices[i], a.vertices[j])
        for i, (row_a, row_b) in enumerate(zip(a.adjacency, b.adjacency))
        for j in _bit_indices((row_a ^ row_b) >> (i + 1) << (i + 1))
    ]
