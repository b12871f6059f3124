"""Build the invariable-generation class graph, reduce it, and measure it.

Vertices are the nontrivial conjugacy classes of S_n or A_n; two classes are
joined exactly when no proper subgroup meets both (equivalently, any pair of
representatives generates the group however each is conjugated).  Adjacency
rows are bit masks, so BFS distances and isolated-vertex extraction are a few
integer operations per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import factorial
from typing import Sequence

from invgraph.arith import proper_block_sizes
from invgraph.partitions import is_even_type, partial_sum_mask
from invgraph.permutations import (
    ClassLabel,
    GroupKind,
    class_labels,
    closure_images,
    split_label,
    symmetric_group_elements,
)
from invgraph.subgroup_membership import (
    CatalogAbsent,
    degree_fingerprints,
    primitive_catalog,
    wreath_member,
)

EXPORT_SCHEMA = 1


class SpecialDiameter(Enum):
    EMPTY = "empty"
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class ClassGraph:
    degree: int
    group: GroupKind
    vertices: tuple[ClassLabel, ...]
    adjacency: tuple[int, ...]  # bit mask per vertex, symmetric, empty diagonal
    mode: str = "exact"

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self.adjacency):
            row >>= i + 1
            j = i + 1
            while row:
                if row & 1:
                    out.append((i, j))
                row >>= 1
                j += 1
        return out

    def degree_of(self, i: int) -> int:
        return bin(self.adjacency[i]).count("1")

    def neighbours(self, i: int) -> list[int]:
        return [j for j in range(len(self.vertices)) if self.adjacency[i] >> j & 1]

    def vertex_index(self, label: ClassLabel) -> int:
        return self.vertices.index(label)


def _vertex_profiles(labels: Sequence[ClassLabel], n: int, cache_dir: str | None):
    """Per-vertex data making each pair test a handful of integer ops."""
    half_mask = (1 << (n // 2 + 1)) - 2
    sums = [partial_sum_mask(lbl.cycle_type) & half_mask for lbl in labels]
    evens = [is_even_type(lbl.cycle_type) for lbl in labels]
    blocks = proper_block_sizes(n)
    wreaths = []
    for lbl in labels:
        mask = 0
        for bit, m in enumerate(blocks):
            if wreath_member(lbl.cycle_type, m):
                mask |= 1 << bit
        wreaths.append(mask)
    prims = []
    fps = degree_fingerprints(n, cache_dir)
    for lbl in labels:
        mask = 0
        for idx, fp in enumerate(fps):
            if fp.contains_class(lbl, mirrored=False):
                mask |= 1 << (2 * idx)
            if fp.mirror_differs:
                if fp.contains_class(lbl, mirrored=True):
                    mask |= 1 << (2 * idx + 1)
            elif mask >> (2 * idx) & 1:
                mask |= 1 << (2 * idx + 1)
        prims.append(mask)
    return sums, evens, wreaths, prims


@lru_cache(maxsize=None)
def build_graph(n: int, group: GroupKind, cache_dir: str | None = None) -> ClassGraph:
    """The exact class graph at degree n (requires a complete catalog)."""
    if not primitive_catalog(n).complete:
        raise CatalogAbsent(f"exact mode supports degrees 3..13, 17, 19; not {n}")
    labels = tuple(class_labels(n, group))
    sums, evens, wreaths, prims = _vertex_profiles(labels, n, cache_dir)
    count = len(labels)
    sym = group is GroupKind.SYM

    rows = []
    for i in range(count):
        row = 0
        for j in range(count):
            if j == i:
                continue
            if sym and evens[i] and evens[j]:
                continue
            if sums[i] & sums[j]:
                continue
            if wreaths[i] & wreaths[j]:
                continue
            if prims[i] & prims[j]:
                continue
            row |= 1 << j
        rows.append(row)
    return ClassGraph(n, group, labels, tuple(rows))


def isolated_vertices(g: ClassGraph) -> list[ClassLabel]:
    return [lbl for lbl, row in zip(g.vertices, g.adjacency) if row == 0]


def xi_subgraph(g: ClassGraph) -> ClassGraph:
    """Induced subgraph on the non-isolated vertices."""
    keep = [i for i, row in enumerate(g.adjacency) if row]
    relabel = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        row = 0
        rest = g.adjacency[old]
        while rest:
            low = rest & -rest
            row |= 1 << relabel[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return ClassGraph(g.degree, g.group, tuple(g.vertices[i] for i in keep), tuple(rows))


def diameter(g: ClassGraph) -> int | SpecialDiameter:
    count = len(g.vertices)
    if count == 0:
        return SpecialDiameter.EMPTY
    adjacency = g.adjacency
    full = (1 << count) - 1
    best = 0
    for start in range(count):
        seen = 1 << start
        frontier = seen
        dist = 0
        while seen != full:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adjacency[low.bit_length() - 1]
                frontier ^= low
            nxt &= ~seen
            if not nxt:
                return SpecialDiameter.DISCONNECTED
            seen |= nxt
            frontier = nxt
            dist += 1
        best = max(best, dist)
    return best


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
    """Elements of every vertex class, keyed by (parts, split value)."""
    out: dict[tuple, list[bytes]] = {}
    for perm in symmetric_group_elements(n):
        t = perm.cycle_type()
        if t.parts == (1,) * n:
            continue
        if group is GroupKind.ALT:
            if not perm.is_even:
                continue
            key = (t.parts, split_label(perm).value)
        else:
            key = (t.parts, "")
        out.setdefault(key, []).append(bytes(perm.images))
    return out


def oracle_adjacency(n: int, group: GroupKind) -> ClassGraph:
    """Adjacency by explicit generation checks; feasible for n <= 7.

    Classes c1, c2 are joined iff for a fixed representative x of c1 every
    member y of c2 satisfies <x, y> = G.  Members are walked up to
    conjugation by the centralizer of x, and each closure stops as soon as
    it grows past half the group order.
    """
    if n > 7:
        raise ValueError("the explicit oracle is limited to n <= 7")
    labels = tuple(class_labels(n, group))
    classes = _class_elements(n, group)
    group_order = factorial(n) // (1 if group is GroupKind.SYM else 2)
    half = group_order // 2
    all_elements = [
        bytes(p.images)
        for p in symmetric_group_elements(n)
        if group is GroupKind.SYM or p.is_even
    ]
    # p.translate(q + tail) is the product q * p; maketrans(p, identity)
    # maps p[i] to i, so its first n bytes are p's inverse
    tail = bytes(range(n, 256))
    identity = bytes(range(n))

    def generates(x: bytes, y: bytes) -> bool:
        elements, truncated = closure_images([x, y], n, stop_above=half)
        return truncated or len(elements) == group_order

    centralizers: dict[bytes, list[tuple[bytes, bytes]]] = {}

    def centralizer(x: bytes) -> list[tuple[bytes, bytes]]:
        """(g, table of g^-1) for every g commuting with x."""
        if x not in centralizers:
            x_table = x + tail
            centralizers[x] = [
                (g, bytes.maketrans(g, identity))
                for g in all_elements
                if x.translate(g + tail) == g.translate(x_table)
            ]
        return centralizers[x]

    count = len(labels)
    rows = [0] * count
    keys = [(lbl.cycle_type.parts, lbl.split.value) for lbl in labels]
    for i in range(count):
        for j in range(i + 1, count):
            ci, cj = classes[keys[i]], classes[keys[j]]
            if len(ci) >= len(cj):
                fixed_class, moving_class = ci, cj
            else:
                fixed_class, moving_class = cj, ci
            x = fixed_class[0]
            cent = centralizer(x)
            seen: set[bytes] = set()
            adjacent = True
            for y in moving_class:
                if y in seen:
                    continue
                y_table = y + tail
                for g, g_inverse in cent:
                    seen.add(g.translate(y_table).translate(g_inverse))
                if not generates(x, y):
                    adjacent = False
                    break
            if adjacent:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return ClassGraph(n, group, labels, tuple(rows), mode="oracle")


def adjacency_diff(a: ClassGraph, b: ClassGraph) -> list[tuple[ClassLabel, ClassLabel]]:
    """Vertex pairs on which two graphs over the same vertex list disagree."""
    if a.vertices != b.vertices:
        raise ValueError("vertex lists differ")
    out = []
    for i in range(len(a.vertices)):
        delta = a.adjacency[i] ^ b.adjacency[i]
        for j in range(i + 1, len(a.vertices)):
            if delta >> j & 1:
                out.append((a.vertices[i], a.vertices[j]))
    return out
