"""Membership of conjugacy classes in the proper subgroups of S_n and A_n.

Four families decide every edge question at the supported degrees:

* the alternating group, in S_n, decided by parity;
* intransitive subgroups, decided by common partial sums;
* imprimitive wreath products of block size m with k = n/m blocks, decided
  in one pass per type by rules: for two blocks (a partial sum n/2, or only
  even parts), for blocks of size two (every odd part an even number of
  times), k or m dividing the gcd of the parts (a member), and at most two
  parts (otherwise not one); a grouping search over the part multiset, with
  a memo per search, decides the rest;
* primitive groups, decided against fingerprints (each cycle type a group
  meets, with the A_n classes of that type it meets) of a complete
  per-degree catalog.

A fingerprint is computed from class representatives of the group, not per
element, and without listing the group first: ``stabilizer_chain`` gives the
order, checked against the catalog's, and ``_class_levels`` yields elements
that meet every class, sizing at each chain level only the classes with no
fixed point in its base orbit.  A class whose representative has a small
centralizer in S_n is counted by sifting that centralizer through the chain,
and only the other, small classes are walked by conjugation.  Any
representative gives its class's cycle type and split label.  When the
group has an odd element, every split type it meets is met in both A_n
classes.  ``_row_fingerprints`` is the one route to a fingerprint, for a
catalog row and for the wreath oracle's row of one group.  It takes a row
from its largest group down, and a group that is a normal subgroup of a
larger group of its row whose walk has run (every C_p:C_d in AGL(1,p), and
PSL(2,q) up to PGammaL(2,q)) is read off that group's walk instead of its
own.  This is exact because a normal subgroup is a union of classes of its
overgroup: the overgroup's representatives that sift into its chain meet
each of its classes, and their weights must add up to its order.  Only 23
of the 62 catalog groups run the walk.

Each class gets one feature mask per degree and group kind
(``type_profile``): its parity, its partial sums up to n/2, a bit per block
size and two bits per fingerprint, laid out in that order.  Two classes
share a proper subgroup exactly when their masks meet, and the lowest
common bit is the ``shares_subgroup`` verdict; ``graph_engine`` builds the
whole graph from the same masks.  The rule bits are filled on a type's first
lookup, and the fingerprint bits, for the whole degree, only once a pair's
rule bits do not meet, so without a catalog ``CatalogAbsent`` marks exactly
the pairs the first three families leave open.  ``verdict``, which
``witness_verifier`` asks about the targets, hands those to the theorem tier
of ``primitive_rules``, which calls a pair an edge or leaves it ``Open``.
The rule bits are decided once per type and degree: the S_n profile
computes them, with the block bits from ``_block_bits``, which
``wreath_member`` reads back, and the A_n profile reads the S_n mask
without its parity bit.  The vertices, ``ClassLabel``, are defined here,
beside the profiles, since each is born with its verdict state: its rule
mask and the verdict table of its degree and group kind, set at
construction.  Its fingerprint bits come later, from the graph build for
every vertex it lists (``TypeProfile.features``, one lookup per type), and
otherwise at the label's first pair the rules leave open.  A pair of labels
is then one identity test of the two tables, one AND and one plain-dict
lookup keyed by the whole common mask, and one more AND, of the fingerprint
bits, when the rule masks do not meet.  The cache directory reaches only
the fingerprint read, since every directory gives the same fingerprints, so
building a label reads no file.

The exact degrees, ``EXACT_DEGREES``, are the keys of the one table
``_CATALOG``, whose row for a degree returns its groups in catalog order;
adding a degree takes one row and, in the tests, its published count of
primitive groups.  ``primitive_catalog`` raises ``CatalogAbsent`` at every
other degree.  Entries are built programmatically, as the permutations that
maps induce on a list of points (``_on_points``): the groups x -> ax + b of
GF(q) at every prime power q, prime degree included, affine matrix groups,
projective lines and spaces, the product action and the 2-sets action.  Only
the Mathieu groups and two groups found inside them are listed by generators
in cycle notation (``_listed``).
Conjugating a subgroup by an odd permutation mirrors its split-class
incidence, so each fingerprint has a mirror bit beside its own; that covers
every S_n-conjugate of every cataloged group.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from enum import Enum
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from invgraph.arith import divisors, proper_block_sizes
from invgraph.finite_fields import field
from invgraph.partitions import (
    Partition,
    distinct_odd_parts,
    enumerate_partitions,
    has_distinct_odd_parts,
    is_even_type,
)
from invgraph.primitive_rules import Open, theorem_verdict
from invgraph.permutations import (
    GroupKind,
    Permutation,
    Split,
    StabilizerChain,
    _class_levels,
    _cycles,
    _walk_scale,
    chain_member,
    chain_order,
    parse_cycles,
    stabilizer_chain,
)

CATALOG_VERSION = 3
# read in ClassLabel.__init__: a module global is cheaper than an Enum member
_SYM, _ALT = GroupKind.SYM, GroupKind.ALT
_WREATH_ORACLE_CAP = 1_200_000


class Family(Enum):
    AFFINE = "affine"
    PROJECTIVE = "projective"
    MATHIEU = "mathieu"
    PRODUCT_ACTION = "product_action"
    OTHER = "other"


class CatalogAbsent(ValueError):
    """Raised when an exact answer is requested at an uncataloged degree."""


# ---------------------------------------------------------------------------
# imprimitive membership
# ---------------------------------------------------------------------------


# The cache never hits on any workload; it stays because perfbench/tracer.py
# reads its cache_info(), until the benchmark change of ROADMAP item 10.
@lru_cache(maxsize=None)
def wreath_member(t: Partition, m: int) -> bool:
    """Does the type t occur in the block-imprimitive wreath group S_m wr S_{n/m}?

    An element maps each cycle of blocks of length d to a set of point cycles
    whose lengths are divisible by d and whose quotients by d sum to m.  So t
    is realized iff its parts split into groups, each group assigned some d
    dividing all its parts with sum(part/d) == m, the d's summing to n/m.

    The answer is the type's bit for m in its ``S_n`` rule mask, which
    ``_block_bits`` decides, so this and the feature masks make one block
    decision.
    """
    n = t.n
    if not (1 < m < n) or n % m:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    profile = type_profile(n, True)
    shift = profile.block_shift + profile.block_sizes.index(m)
    return bool(profile.rule_mask(t.parts) >> shift & 1)


def _block_bits(parts: tuple[int, ...], sums: int, sizes: tuple[int, ...]) -> int:
    """A type's block bits: bit i when it lies in S_m wr S_k, k = n/m, for
    m = ``sizes[i]``, the proper block sizes of its degree; ``sums`` is the
    subset-sum mask of its parts.

    The facts the rules read are found once per type, and each block size
    takes the first rule that applies, in this order:

    * k = 2: an element keeping two blocks fixes both, so its cycles split
      into two sets summing to m, or swaps them, so every cycle is even.
    * m = 2: a block cycle of length d over pairs carries one 2d-cycle or
      two d-cycles, so every odd part must occur an even number of times.
    * k divides g, the gcd of the parts: a member.  All the parts make one
      group over a single cycle of all k blocks, since each part is
      divisible by k and their quotients by k sum to n/k = m.
    * m divides g: a member.  Each part p is a group of its own over a cycle
      of p/m blocks, carrying p/(p/m) = m points per block, and these cycle
      lengths sum to n/m = k.
    * At most two parts, counting repeats: not a member.  One part is
      divisible by k, so it is decided above.  Two parts a, b group either
      together, over a cycle of length d with a/d + b/d = m, so d = k
      divides both, or apart, each over a cycle of length a/m or b/m, so m
      divides both; the two cases above cover both.
    * Otherwise ``_wreath_solve`` searches for the grouping.

    Parts divisible by m cannot be set aside first: (9,6,3) fills three
    blocks of size 6, while (9,3) does not fill two.
    """
    n = sum(parts)
    # one pass over the descending parts: the (part, multiplicity) runs, the
    # gcd g, and in bit 0 of ``unpaired`` whether an odd part occurs an odd
    # number of times (v & c is odd exactly when both are)
    counts = []
    g = unpaired = 0
    last = c = 0
    for v in parts:
        if v == last:
            c += 1
            continue
        if c:
            counts.append((last, c))
            unpaired |= last & c
        g = math.gcd(g, v)
        last, c = v, 1
    counts.append((last, c))
    unpaired |= last & c
    counts = tuple(counts)
    pairs = not unpaired & 1
    few = len(parts) <= 2
    bits = 0
    for i, m in enumerate(sizes):
        k = n // m
        if k == 2:
            member = bool(sums >> m & 1) or g % 2 == 0
        elif m == 2:
            member = pairs
        elif g % k == 0 or g % m == 0:
            member = True
        elif few:
            member = False
        else:
            member = _wreath_solve(counts, k, m, {})
        if member:
            bits |= 1 << i
    return bits


def _wreath_solve(counts_now: tuple, blocks_left: int, m: int, memo: dict) -> bool:
    """Can the parts ``counts_now`` fill ``blocks_left`` blocks of size m?

    The search takes the largest value v first, and first tries v in bulk.
    The shortest block cycle that copies of v alone can fill has length
    d = v/gcd(v, m) and takes j = m/gcd(v, m) copies; the bulk try takes as
    many such groups as the copies and blocks allow, when that is more than
    one.  A True from there is a valid split, but a False proves nothing,
    so the search then falls back to placing one group at a time, and that
    search decides: one copy of v over a block cycle of each length d that
    fits, completed by ``_fill_group``.  On every partition of n <= 24 at
    every proper block size, and on every call the witness claims make, the
    bulk try never failed where the answer was True; no proof says it
    cannot, so the fallback stays.  ``m`` and the memo are passed down
    rather than closed over, so a call leaves no reference cycle behind.
    """
    if not counts_now:
        return blocks_left == 0
    if blocks_left <= 0:
        return False
    key = (counts_now, blocks_left)
    known = memo.get(key)
    if known is not None:
        return known
    v, c = counts_now[0]
    # the bulk try: g block cycles of length d, each of j copies of v;
    # only a True is final
    k = math.gcd(v, m)
    d, j = v // k, m // k
    g = min(c // j, blocks_left // d)
    if g > 1:
        left = c - g * j
        rest = ((v, left),) + counts_now[1:] if left else counts_now[1:]
        if _wreath_solve(rest, blocks_left - g * d, m, memo):
            memo[key] = True
            return True
    rest = ((v, c - 1),) + counts_now[1:] if c > 1 else counts_now[1:]
    ok = False
    for d in divisors(v):
        if d > blocks_left:
            break
        need = m - v // d
        if need < 0:
            continue
        if need:
            ok = _fill_group(rest, d, need, 0, blocks_left - d, m, memo)
        else:
            ok = _wreath_solve(rest, blocks_left - d, m, memo)
        if ok:
            break
    memo[key] = ok
    return ok


def _fill_group(
    counts_now: tuple, d: int, need: int, start: int, blocks_left: int, m: int, memo: dict
) -> bool:
    """Can parts divisible by d, taken from ``counts_now[start:]``, add
    ``need * d`` points to the group being placed (need > 0), with the
    parts left then filling ``blocks_left`` blocks?

    Larger values and larger takes are tried first, and a take that fills
    the group hands the parts left to ``_wreath_solve``.
    """
    for idx in range(start, len(counts_now)):
        v, c = counts_now[idx]
        unit = v // d
        if v % d or unit > need:
            continue
        take = need // unit
        if take > c:
            take = c
        while take:
            left = need - take * unit
            if c - take:
                reduced = counts_now[:idx] + ((v, c - take),) + counts_now[idx + 1 :]
                next_start = idx + 1
            else:
                reduced = counts_now[:idx] + counts_now[idx + 1 :]
                next_start = idx
            if left:
                if _fill_group(reduced, d, left, next_start, blocks_left, m, memo):
                    return True
            elif _wreath_solve(reduced, blocks_left, m, memo):
                return True
            take -= 1
    return False


def wreath_product_generators(m: int, k: int) -> list[Permutation]:
    """Distinct generators of S_m wr S_k in its imprimitive action on m*k points.

    A repeated generator costs the class walk two translates per element:
    for m = 2 the m-cycle is the transposition, and for k = 2 the block
    rotation is the block swap.
    """
    n = m * k
    gens = []
    if m >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
        gens.append(Permutation.from_cycles(n, [tuple(range(m))]))
    if k >= 2:
        gens.append(Permutation((x + m) % n for x in range(n)))  # rotate blocks
        swap = list(range(n))
        for x in range(m):
            swap[x], swap[x + m] = x + m, x
        gens.append(Permutation(swap))
    return list(dict.fromkeys(gens))


@lru_cache(maxsize=None)
def _wreath_type_set(n: int, m: int) -> Mapping[tuple[int, ...], frozenset[Split]]:
    k = n // m
    order = math.factorial(m) ** k * math.factorial(k)
    if order > _WREATH_ORACLE_CAP:
        raise ValueError(
            f"S{m} wr S{k} has order {order}, above the oracle's cap {_WREATH_ORACLE_CAP}"
        )
    generators = tuple(wreath_product_generators(m, k))
    spec = GroupSpec(f"S{m}wrS{k}", n, Family.OTHER, generators, order)
    return _row_fingerprints((spec,))[0].types


def wreath_member_oracle(t: Partition, m: int) -> bool:
    """Enumeration cross-check of ``wreath_member``; practical for n <= 12."""
    n = t.n
    if not (1 < m < n) or n % m:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    return t.parts in _wreath_type_set(n, m)


# ---------------------------------------------------------------------------
# catalog of primitive groups
# ---------------------------------------------------------------------------


class GroupSpec(NamedTuple):
    """A permutation group given by generators, with its expected order."""

    name: str
    degree: int
    family: Family
    generators: tuple[Permutation, ...]
    expected_order: int


class Fingerprint(NamedTuple):
    """The cycle types a subgroup meets, each with the A_n classes of that
    type it meets: PLUS, MINUS or both, and none when the type does not
    split.  The package builds ``types`` read-only, since
    ``degree_fingerprints`` hands the same fingerprints to every caller."""

    name: str
    order: int
    types: Mapping[tuple[int, ...], frozenset[Split]]


class CatalogResult(NamedTuple):
    # one field: perfbench/tracer.py reads ``.groups``, until the benchmark
    # change of ROADMAP item 10
    groups: tuple[GroupSpec, ...]


def _on_points(points: Sequence, *maps: Callable) -> tuple[Permutation, ...]:
    """The permutation each map induces on a list of points, by position."""
    index = {point: i for i, point in enumerate(points)}
    return tuple(Permutation(index[f(point)] for point in points) for f in maps)


def _times(mat, vec, p: int) -> tuple[int, ...]:
    """The matrix product mat * vec over GF(p)."""
    return tuple(sum(a * x for a, x in zip(row, vec)) % p for row in mat)


def _affine_matrix_group(name: str, p: int, m: int, matrices, order: int) -> GroupSpec:
    """Affine group E(p^m) : <matrices> acting on the vectors of F_p^m."""
    points = list(itertools.product(range(p), repeat=m))
    maps = [lambda v, mat=mat: _times(mat, v, p) for mat in matrices]
    maps.append(lambda v: ((v[0] + 1) % p,) + v[1:])  # the translation by e_1
    return GroupSpec(name, p**m, Family.AFFINE, _on_points(points, *maps), order)


def _sl_generator_matrices(m: int, p: int):
    """A transvection and a cyclic monomial matrix generate SL(m,p) (m odd or p=2)."""
    e12 = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    e12[0][1] = 1
    cyc = [[0] * m for _ in range(m)]
    for i in range(m):
        cyc[i][(i + 1) % m] = 1
    return [tuple(map(tuple, e12)), tuple(map(tuple, cyc))]


def _gl_generator_matrices(m: int, p: int):
    mats = _sl_generator_matrices(m, p)
    if p > 2:
        g = field(p).primitive_element()
        diag = [[(g if i == j == 0 else (1 if i == j else 0)) for j in range(m)] for i in range(m)]
        mats.append(tuple(map(tuple, diag)))
    return mats


def _projective_space_group(name: str, p: int, d: int, order: int) -> GroupSpec:
    """PSL(d,p) (p prime, gcd(d,p-1)=1 cases used here) on projective points,
    the nonzero vectors whose first nonzero coordinate is 1."""

    def normal(v: tuple[int, ...]) -> tuple[int, ...]:
        lead = next(c for c in v if c)
        return tuple(c * pow(lead, p - 2, p) % p for c in v)

    points = [v for v in itertools.product(range(p), repeat=d) if any(v) and normal(v) == v]
    maps = [lambda v, mat=mat: normal(_times(mat, v, p)) for mat in _sl_generator_matrices(d, p)]
    return GroupSpec(name, len(points), Family.PROJECTIVE, _on_points(points, *maps), order)


def _projective_line_specs(p: int, r: int) -> list[GroupSpec]:
    """The groups from PSL(2,q) to PGammaL(2,q) on the q+1 points of the
    projective line over GF(q), in catalog order; point q is infinity."""
    gf = field(p, r)
    q = gf.q
    n = q + 1
    mu = gf.primitive_element()

    def mobius(a: int, b: int, c: int, d: int) -> Permutation:
        """x -> (ax + b) / (cx + d), which takes infinity to a / c."""

        def ratio(num: int, den: int) -> int:
            return q if den == 0 else gf.mul(num, gf.inv(den))

        finite = [ratio(gf.add(gf.mul(a, x), b), gf.add(gf.mul(c, x), d)) for x in range(q)]
        return Permutation(finite + [ratio(a, c)])

    def frobenius(steps: int = 1) -> Permutation:
        return Permutation([gf.frobenius(x, steps) for x in range(q)] + [q])

    def spec(name: str, gens: tuple[Permutation, ...], order: int) -> GroupSpec:
        return GroupSpec(name, n, Family.PROJECTIVE, gens, order)

    translate = mobius(1, 1, 0, 1)
    scale = mobius(mu, 0, 0, 1)
    pgl_gens = (translate, scale, mobius(0, 1, 1, 0))
    order = q * (q * q - 1)
    if p == 2:
        specs = [spec(f"PSL(2,{q})", pgl_gens, order)]
        psl_gens = pgl_gens
    else:
        psl_gens = (translate, mobius(gf.mul(mu, mu), 0, 0, 1), mobius(0, gf.neg(1), 1, 0))
        specs = [
            spec(f"PSL(2,{q})", psl_gens, order // 2),
            spec(f"PGL(2,{q})", pgl_gens, order),
        ]
    if q == 9:
        specs.append(spec("PSigmaL(2,9)", psl_gens + (frobenius(),), 720))
        specs.append(spec("M10", psl_gens + (frobenius() * scale,), 720))
    if q == 16:
        specs.append(spec("PSigmaL(2,16)", psl_gens + (frobenius(2),), 8160))
    if r > 1:
        specs.append(spec(f"PGammaL(2,{q})", pgl_gens + (frobenius(),), order * r))
    return specs


def _two_sets_specs() -> list[GroupSpec]:
    """A_5 and S_5 acting on the ten 2-subsets of five points."""

    def lift(cycle: tuple[int, ...]) -> Callable:
        g = Permutation.from_cycles(5, [cycle])
        return lambda pair: tuple(sorted(map(g, pair)))

    three, five, swap = _on_points(
        list(itertools.combinations(range(5), 2)),
        lift((0, 1, 2)),
        lift((0, 1, 2, 3, 4)),
        lift((0, 1)),
    )
    return [
        GroupSpec("A5(2-sets)", 10, Family.OTHER, (three, five), 60),
        GroupSpec("S5(2-sets)", 10, Family.OTHER, (swap, five), 120),
    ]


def _product_action_spec(r: int) -> GroupSpec:
    """S_r wr S_2 in product action on the r x r grid."""
    gens = _on_points(
        list(itertools.product(range(r), repeat=2)),
        lambda v: ((v[0] + 1) % r, v[1]),  # cycle the rows
        lambda v: ({0: 1, 1: 0}.get(v[0], v[0]), v[1]),  # swap rows 0 and 1
        lambda v: (v[1], v[0]),  # transpose
    )
    return GroupSpec(
        f"S{r}wrS2(product)", r * r, Family.PRODUCT_ACTION, gens, math.factorial(r) ** 2 * 2
    )


def _affine_line_specs(p: int, r: int) -> list[GroupSpec]:
    """The primitive groups of maps x -> a x^s + b of GF(q), q = p^r, that
    the catalog lists at degree q, in catalog order.

    First, for each d dividing q - 1 but no p^k - 1 with 1 <= k < r, the
    group with a in the order-d subgroup of GF(q)* and s = 1: these are the
    ones whose multipliers lie in no proper subfield, which makes them act
    irreducibly and so primitively, and at prime q every d qualifies.  Then
    E9:Q8 at q = 9, and AGammaL(1,q) when r > 1.
    """
    gf = field(p, r)
    q = gf.q
    mu = gf.primitive_element()

    def spec(name: str, gens: tuple[Permutation, ...], order: int) -> GroupSpec:
        return GroupSpec(name, q, Family.AFFINE, gens, order)

    def scale(a: int) -> Permutation:
        return Permutation(gf.mul(a, x) for x in range(q))

    translate = Permutation(gf.add(x, 1) for x in range(q))
    specs = []
    for d in divisors(q - 1):
        if any((p**k - 1) % d == 0 for k in range(1, r)):
            continue
        if d == q - 1:
            name = f"AGL(1,{q})"
        elif r > 1:
            name = f"E{q}:C{d}"
        else:
            name = {1: f"C{q}", 2: f"D{2 * q}"}.get(d, f"{q}:{d}")
        gens = (translate, scale(gf.power(mu, (q - 1) // d))) if d > 1 else (translate,)
        specs.append(spec(name, gens, q * d))
    if q == 9:
        square = scale(gf.mul(mu, mu))
        twisted = Permutation(gf.frobenius(gf.mul(mu, x)) for x in range(q))
        specs.append(spec("E9:Q8", (translate, square, twisted), 72))
    if r > 1:
        frobenius = Permutation(gf.frobenius(x) for x in range(q))
        specs.append(spec(f"AGammaL(1,{q})", (translate, scale(mu), frobenius), q * (q - 1) * r))
    return specs


# M11's two classical generators; M12 adds one involution on the twelfth point
M11_GENERATORS = ("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)")
M12_GENERATORS = M11_GENERATORS + ("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)",)


def _listed(name: str, degree: int, family: Family, order: int, *cycles: str) -> GroupSpec:
    """A group given by generators in cycle notation.

    The Mathieu groups use classical generators; M11@12 and PSL(2,11)@11 are
    the pairs that ``scripts/find_curated_generators.py`` finds inside M12
    and M11.  Like every catalog group, each is checked against its order
    when its fingerprint is computed.
    """
    return GroupSpec(name, degree, family, tuple(parse_cycles(c, degree) for c in cycles), order)


# Each exact degree maps to its primitive groups other than A_n and S_n, in
# catalog order (the order of the fingerprint bits and of the cache files).
# A row is a callable, so nothing is built until a degree is asked for.  From
# 5 on, every prime-power degree p^r starts with ``_affine_line_specs(p, r)``.
# A new row needs its published count in the tests' PRIMITIVE_GROUP_COUNTS,
# and it changes the catalog pin there.
_CATALOG: dict[int, Callable[[], list[GroupSpec]]] = {
    3: lambda: [],
    4: lambda: [],
    5: lambda: _affine_line_specs(5, 1),
    6: lambda: _projective_line_specs(5, 1),
    7: lambda: _affine_line_specs(7, 1) + [_projective_space_group("PSL(3,2)", 2, 3, 168)],
    8: lambda: (
        _affine_line_specs(2, 3)
        + _projective_line_specs(7, 1)
        + [_affine_matrix_group("AGL(3,2)", 2, 3, _gl_generator_matrices(3, 2), 1344)]
    ),
    9: lambda: (
        _affine_line_specs(3, 2)
        + [
            _product_action_spec(3),  # same group as E9:D8
            _affine_matrix_group("ASL(2,3)", 3, 2, [((1, 1), (0, 1)), ((0, 1), (2, 0))], 216),
            _affine_matrix_group("AGL(2,3)", 3, 2, _gl_generator_matrices(2, 3), 432),
        ]
        + _projective_line_specs(2, 3)
    ),
    10: lambda: _two_sets_specs() + _projective_line_specs(3, 2),
    11: lambda: (
        _affine_line_specs(11, 1)
        + [
            _listed(
                "PSL(2,11)@11", 11, Family.PROJECTIVE, 660,
                "(1,2,3,4,5,6,7,8,9,10,11)", "(1,10,4,7,2,6,9,5,11,8,3)",
            ),
            _listed("M11", 11, Family.MATHIEU, 7920, *M11_GENERATORS),
        ]
    ),
    12: lambda: (
        [s._replace(name=s.name + "@12") for s in _projective_line_specs(11, 1)]
        + [
            _listed(
                "M11@12", 12, Family.MATHIEU, 7920,
                "(2,3,4,5,9,12,10,8,6,7,11)", "(1,5,8,10)(2,6,3,7,9,12,4,11)",
            ),
            _listed("M12", 12, Family.MATHIEU, 95040, *M12_GENERATORS),
        ]
    ),
    13: lambda: _affine_line_specs(13, 1) + [_projective_space_group("PSL(3,3)", 3, 3, 5616)],
    17: lambda: _affine_line_specs(17, 1) + _projective_line_specs(2, 4),
    19: lambda: _affine_line_specs(19, 1),
}
EXACT_DEGREES = frozenset(_CATALOG)


@lru_cache(maxsize=None)
def primitive_catalog(n: int) -> CatalogResult:
    """All primitive groups of degree n other than A_n and S_n, in catalog order.

    Raises ``CatalogAbsent`` at a degree without a row in ``_CATALOG``.
    """
    row = _CATALOG.get(n)
    if row is None:
        supported = ", ".join(map(str, sorted(EXACT_DEGREES)))
        raise CatalogAbsent(f"exact mode supports degrees {supported}; not {n}")
    return CatalogResult(tuple(row()))


# ---------------------------------------------------------------------------
# fingerprints with disk cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    return Path(os.environ.get("INVGRAPH_CACHE_DIR", ".invgraph-cache"))


def _catalog_digest(groups: Sequence[GroupSpec]) -> str:
    h = hashlib.sha256()
    h.update(f"v{CATALOG_VERSION}".encode())
    for spec in sorted(groups, key=lambda s: s.name):
        h.update(spec.name.encode())
        h.update(str(spec.degree).encode())
        h.update(str(spec.expected_order).encode())
        for images in sorted(g.images for g in spec.generators):
            h.update(bytes(images))
    return h.hexdigest()


def _checked_chain(spec: GroupSpec) -> StabilizerChain:
    """The group's ``stabilizer_chain``; RuntimeError unless its order is
    the catalog's."""
    chain = stabilizer_chain([g.images for g in spec.generators], spec.degree)
    order = chain_order(chain)
    if order != spec.expected_order:
        raise RuntimeError(
            f"{spec.name}: chain order {order} != expected {spec.expected_order}"
        )
    return chain


def _has_odd(spec: GroupSpec) -> bool:
    return any(not g.is_even for g in spec.generators)


def _fingerprint(spec: GroupSpec, reps: Iterable[bytes], odd: bool) -> Fingerprint:
    """The fingerprint of a group from elements that meet all of its classes.

    Cycle type and split label are class invariants, so the representatives
    decide both; a class may hold several of them, which adds nothing new.
    For a group inside A_n conjugation keeps the split label, which is asked
    only while the type lacks one of its two.  ``odd`` says that an odd
    permutation maps the group onto itself by conjugation: it swaps the two
    A_n classes of a split type, so then every split type present meets both.
    """
    types: dict[tuple[int, ...], set[Split]] = {}
    identity = (1,) * spec.degree
    for rep in reps:
        cycles = _cycles(rep)
        t = tuple(sorted(map(len, cycles), reverse=True))
        splits = types.setdefault(t, set())
        if len(splits) < 2 and t != identity and distinct_odd_parts(t):
            if odd:
                splits.update((Split.PLUS, Split.MINUS))
            else:
                splits.add(_split_sign(cycles))
    return Fingerprint(
        spec.name,
        spec.expected_order,
        MappingProxyType({t: frozenset(v) for t, v in types.items()}),
    )


def _split_sign(cycles: list[tuple[int, ...]]) -> Split:
    """The ``split_label`` of an even permutation of a splitting type, from
    its ``_cycles``.

    ``conjugator`` lists the cycles of x = ``canonical_of_type(t)`` and of
    the permutation longest first, ties by least point; x's then read 0, 1,
    ..., n-1, so the conjugator from x is the inverse of the permutation's
    cycles read in that order as one image sequence, and has its parity.
    """
    line = [point for c in sorted(cycles, key=len, reverse=True) for point in c]
    return Split.PLUS if (len(line) - len(_cycles(line))) % 2 == 0 else Split.MINUS


class _Walked(NamedTuple):
    """A group whose class walk ran: its chain and membership test, the
    weighted representatives of its top level, each class C weighing
    ``|C| * scale``, and whether it has an odd element."""

    spec: GroupSpec
    chain: StabilizerChain
    member: Callable[[bytes], bool]
    weighted: list[tuple[bytes, int]]
    scale: int
    odd: bool


def _row_fingerprints(groups: Sequence[GroupSpec]) -> tuple[Fingerprint, ...]:
    """The fingerprints of one catalog row, in catalog order.

    The groups are taken from the largest order down.  A group H that is a
    normal subgroup of a group G of the row whose class walk has run
    (``_is_normal_in``) is read off G's walk, and only the other groups run
    their own.

    This is exact.  A normal subgroup is a union of classes of its
    overgroup: each class C of G lies in H or misses it.  The walk's
    representatives meet every class of G, so those that sift into H meet
    every class of G inside H, and H's cycle types are theirs.  The weights
    of each class C of G sum to ``|C| * scale`` (``_class_levels``), so the
    weights inside H sum to ``|H| * scale``; a RuntimeError is raised when
    they do not, the class equation of this route.  The split labels: when
    H or G has an odd element g, g conjugates any x of H into H and into
    the other A_n class of a split type, so H meets both classes of every
    split type it holds.  Otherwise G lies in A_n, each class of G lies in
    one A_n class, and the split label of each representative decides.
    Only walked groups stand as G, since a derived group's representatives
    meet G's classes, not all of its own.  Each group's membership test,
    walk and normality test read the sift tables and generators its
    ``StabilizerChain`` carries.
    """
    fingerprints: list[Fingerprint | None] = [None] * len(groups)
    walked: list[_Walked] = []
    for k in sorted(range(len(groups)), key=lambda k: -groups[k].expected_order):
        spec = groups[k]
        n = spec.degree
        chain = _checked_chain(spec)
        member = chain_member(chain, n)
        over = next((w for w in walked if _is_normal_in(spec, chain, member, w)), None)
        if over is None:
            *_, weighted = _class_levels(chain, n)
            scale = _walk_scale(chain, n)
            odd = _has_odd(spec)
            walked.append(_Walked(spec, chain, member, weighted, scale, odd))
            reps = [r for r, _ in weighted]
        else:
            inside = [(r, w) for r, w in over.weighted if member(r)]
            counted = sum(w for _, w in inside)
            if counted != spec.expected_order * over.scale:
                raise RuntimeError(
                    f"{spec.name}: the classes of {over.spec.name} inside it count "
                    f"{counted / over.scale:g} elements, not {spec.expected_order}"
                )
            reps = [r for r, _ in inside]
            odd = over.odd or _has_odd(spec)
        fingerprints[k] = _fingerprint(spec, reps, odd)
    return tuple(fingerprints)


def _is_normal_in(
    spec: GroupSpec, chain: StabilizerChain, member: Callable[[bytes], bool], over: _Walked
) -> bool:
    """Is the group ``spec``, of chain ``chain`` and membership test
    ``member``, a normal subgroup of the walked group?

    It is when its generators sift through the walked group's chain, and
    each conjugate ``g^-1 * h * g`` of one of its generators h by one of the
    walked group's generators g sifts through its own: conjugation by each
    g then maps the group into itself, so onto itself, and so does
    conjugation by every element of the walked group.  The generators are
    each chain's ``strong[0]``.
    """
    if over.spec.expected_order % spec.expected_order:
        return False
    hs = chain.strong[0]
    if not all(map(over.member, hs)):
        return False
    identity = bytes(range(spec.degree))
    tail = bytes(range(spec.degree, 256))
    for g in over.chain.strong[0]:
        inverse = bytes.maketrans(g, identity)
        # g^-1 * h * g, with the tables of the ``permutations`` docstring
        if not all(member(g.translate(h.translate(inverse) + tail)) for h in hs):
            return False
    return True


def _fingerprint_to_json(fp: Fingerprint) -> dict:
    """The cache entry of a fingerprint: every type it meets under "types",
    and the marks of the A_n classes it meets under "split", for the types
    that split."""
    key = lambda t: ",".join(map(str, t))
    return {
        "name": fp.name,
        "order": fp.order,
        "types": sorted(map(key, fp.types)),
        "split": {
            key(t): "".join(sorted(s.value for s in inc)) for t, inc in fp.types.items() if inc
        },
    }


def _fingerprint_from_json(data: dict) -> Fingerprint:
    """The fingerprint of a cache entry; ValueError when a "split" key is
    not among its "types" or has no marks."""
    parse = lambda t: tuple(int(x) for x in t.split(","))
    types = {parse(t): frozenset() for t in data["types"]}
    split = {parse(t): frozenset(map(Split, marks)) for t, marks in data["split"].items()}
    if not split.keys() <= types.keys() or not all(split.values()):
        raise ValueError("split marks must be on a listed type")
    return Fingerprint(data["name"], data["order"], MappingProxyType(types | split))


def _load_fingerprints(
    cache_file: Path, n: int, digest: str, groups: Sequence[GroupSpec]
) -> tuple[Fingerprint, ...] | None:
    """The cached fingerprints, or None unless the file is sound.

    Beyond the digest, the names and orders must match the catalog, every
    type must be a partition of n, and split marks must sit on the types
    with distinct odd parts, and only on types that the group meets.
    """
    try:
        data = json.loads(cache_file.read_text())
        if data.get("schema") != 1 or data.get("digest") != digest:
            return None
        fps = tuple(map(_fingerprint_from_json, data["groups"]))
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    if [(fp.name, fp.order) for fp in fps] != [(g.name, g.expected_order) for g in groups]:
        return None
    for fp in fps:
        for t, marks in fp.types.items():
            if sum(t) != n or min(t) < 1 or list(t) != sorted(t, reverse=True):
                return None
            if bool(marks) != (t != (1,) * n and distinct_odd_parts(t)):
                return None
    return fps


@lru_cache(maxsize=None)
def degree_fingerprints(n: int, cache_dir: str | None = None) -> tuple[Fingerprint, ...]:
    """Fingerprints of every cataloged group of degree n, disk-cached.

    A cache file that is missing, stale or unsound is recomputed, by
    ``_row_fingerprints``, and replaced atomically (temporary file in the
    same directory, then rename).
    """
    catalog = primitive_catalog(n)
    if not catalog.groups:
        return ()
    digest = _catalog_digest(catalog.groups)
    cache_path = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_file = cache_path / f"fingerprints-deg{n}.json"
    if cache_file.exists():
        fps = _load_fingerprints(cache_file, n, digest, catalog.groups)
        if fps is not None:
            return fps
    fps = _row_fingerprints(catalog.groups)
    cache_path.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "degree": n,
        "digest": digest,
        "groups": [_fingerprint_to_json(fp) for fp in fps],
    }
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, cache_file)
    finally:
        tmp.unlink(missing_ok=True)
    return fps


# ---------------------------------------------------------------------------
# the per-class feature mask and the sharing verdict
# ---------------------------------------------------------------------------


class Sharing:
    """A common proper subgroup witnessing that a pair is not an edge: its
    ``family`` (alternating, intransitive, imprimitive or primitive) and
    ``witness``.  Immutable, and equal and hashed by those two fields."""

    __slots__ = ("family", "witness")

    def __init__(self, family: str, witness: str):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Sharing")

    def __eq__(self, other):
        if other.__class__ is not Sharing:
            return NotImplemented
        return (self.family, self.witness) == (other.family, other.witness)

    def __hash__(self) -> int:
        return hash((self.family, self.witness))

    def __repr__(self) -> str:
        return f"Sharing(family={self.family!r}, witness={self.witness!r})"

    def __str__(self) -> str:
        return f"{self.family}({self.witness})"


class TypeProfile:
    """Feature masks of the classes of one degree and group kind.

    Bit 0 is S_n parity (set for an even type in an S_n profile), bits
    1..n//2 the partial sums, then one bit per proper block size, then two
    per fingerprint in catalog order: bit 2k for fingerprint k, bit 2k+1 for
    its mirror.  Two classes share a proper subgroup exactly when their masks
    meet, and the lowest common bit names the first witness in check order.

    ``rules[parts]`` holds the parity, partial-sum and block bits of a type,
    filled on its first lookup.  An S_n profile computes them, the block
    bits from ``_block_bits``, which decides every block size by rule where
    one applies and searches only the others.  An A_n profile reads the S_n
    profile of its degree and drops bit 0, the parity bit, which is all the
    two masks of a type differ in.
    Every ``ClassLabel`` of this degree and group kind holds its rule mask,
    this profile and ``names`` from construction; ``features`` keeps the
    fingerprint bits on every label of a listed graph, and any other label
    reads them at its first pair the rules leave open.
    ``names`` maps each common mask a pair has met to its verdict, which
    ``name`` reads off the lowest bit, so a verdict is one lookup; the
    masks with one lowest bit share its one ``Sharing`` in ``bit_names``.
    ``primitive[parts]`` holds the fingerprint bits (PLUS or unsplit class,
    MINUS class), read for every type of the degree at once from the cache
    directory of the first call that needs them: any file
    ``_load_fingerprints`` accepts carries the catalog's digest, names and
    orders.  A type no fingerprint meets has none.  They are read only for
    pairs the rules leave open, so degrees without a catalog answer every
    pair the rules decide and raise ``CatalogAbsent`` on the rest.  The
    first such raise is remembered in ``absent``, and later ones repeat its
    message without asking the catalog again.
    """

    def __init__(self, n: int, sym: bool):
        self.n = n
        self.sym = sym
        self.block_sizes = proper_block_sizes(n)
        self.block_shift = n // 2 + 1
        self.primitive_shift = self.block_shift + len(self.block_sizes)
        self.names: dict[int, Sharing] = {}
        self.bit_names: dict[int, Sharing] = {}
        self.rules: dict[tuple[int, ...], int] = {}
        self.primitive: dict[tuple[int, ...], tuple[int, int]] | None = None
        self.absent: str | None = None

    def rule_mask(self, parts: tuple[int, ...]) -> int:
        """The parity, partial-sum and block bits of a type."""
        mask = self.rules.get(parts)
        if mask is not None:
            return mask
        n = self.n
        if not self.sym:
            # the S_n mask of the type without its parity bit
            mask = self.rules[parts] = type_profile(n, True).rule_mask(parts) & ~1
            return mask
        if sum(parts) != n:
            raise ValueError("degree mismatch")
        sums = 1  # the subset-sum mask of the parts
        for part in parts:
            sums |= sums << part
        mask = sums & ((1 << self.block_shift) - 2)
        if (n - len(parts)) % 2 == 0:
            mask |= 1
        if self.block_sizes:
            mask |= _block_bits(parts, sums, self.block_sizes) << self.block_shift
        self.rules[parts] = mask
        return mask

    def primitive_masks(self, parts: tuple[int, ...], cache_dir: str | None) -> tuple[int, int]:
        """The fingerprint bits of a type's PLUS (or unsplit) class and of its
        MINUS class; CatalogAbsent without a catalog.

        The first call fills ``primitive`` in one pass over the types each
        fingerprint meets.  A type with split marks splits in A_n; in S_n,
        and for a type without marks, a class meets a group and its mirror.
        """
        table = self.primitive
        if table is None:
            if self.absent is not None:
                raise CatalogAbsent(self.absent)
            try:
                fingerprints = degree_fingerprints(self.n, cache_dir)
            except CatalogAbsent as exc:
                self.absent = str(exc)
                raise
            table = {}
            for k, fp in enumerate(fingerprints):
                bit = 1 << (self.primitive_shift + 2 * k)
                for t, incidence in fp.types.items():
                    if self.sym or not incidence:
                        plus = minus = 3 * bit
                    else:
                        plus = minus = 0
                        if Split.PLUS in incidence:
                            plus |= bit
                            minus |= bit << 1
                        if Split.MINUS in incidence:
                            minus |= bit
                            plus |= bit << 1
                    had_plus, had_minus = table.get(t, (0, 0))
                    table[t] = (had_plus | plus, had_minus | minus)
            self.primitive = table
        return table.get(parts, (0, 0))

    def features(self, labels: Sequence[ClassLabel], cache_dir: str | None) -> list[int]:
        """The feature mask of each label, each label keeping its
        fingerprint bits.

        Adjacent labels that hold one ``Partition``, the two classes of a
        split type as ``class_labels`` lists them, share one lookup of the
        type's fingerprint bits.
        """
        out = []
        t = None
        for label in labels:
            if label.cycle_type is not t:
                t = label.cycle_type
                halves = self.primitive_masks(t.parts, cache_dir)
            bits = halves[label.split is Split.MINUS]
            _set_bits(label, bits)
            out.append(label._rules | bits)
        return out

    def name(self, common: int) -> Sharing:
        """The verdict of two classes whose masks share ``common``, kept in
        ``names``: the one its lowest bit names.

        Each lowest bit is named once, in ``bit_names``, and every common
        mask it is lowest in shares that one object.  A fingerprint bit is
        named from the catalog, so naming reads no file.
        """
        lowest = common & -common
        verdict = self.bit_names.get(lowest)
        if verdict is None:
            index = lowest.bit_length() - 1
            if index == 0:
                verdict = Sharing("alternating", f"A_{self.n}")
            elif index < self.block_shift:
                verdict = Sharing("intransitive", f"i={index}")
            elif index < self.primitive_shift:
                verdict = Sharing("imprimitive", f"m={self.block_sizes[index - self.block_shift]}")
            else:
                k, mirror = divmod(index - self.primitive_shift, 2)
                group = primitive_catalog(self.n).groups[k]
                verdict = Sharing("primitive", group.name + "'" * mirror)
            self.bit_names[lowest] = verdict
        self.names[common] = verdict
        return verdict


@lru_cache(maxsize=None)
def type_profile(n: int, sym: bool) -> TypeProfile:
    """The shared feature masks of degree n in S_n (sym) or A_n."""
    return TypeProfile(n, sym)


class ClassLabel:
    """A vertex: cycle type plus group tag, with a split tag for A_n.

    Immutable, and equal and hashed by its three fields.  ``degree``, the
    sum of the parts, is summed once, at construction.  The verdict state
    is not part of the label's value: ``_rules``, its rule mask, ``_names``,
    the verdict table of its degree and group kind, and ``_profile``, the
    ``type_profile`` that owns the table, all set at construction, and
    ``_bits``, its fingerprint bits.  A label that ``build_graph`` lists
    gets its bits in ``TypeProfile.features``; any other label gets them at
    its first pair that the rules leave open, and they are None until then.
    """

    __slots__ = (
        "cycle_type", "group", "split", "degree", "_names", "_rules", "_profile", "_bits",
        "__weakref__",
    )

    def __init__(self, cycle_type: Partition, group: GroupKind, split: Split = Split.NONE):
        t = cycle_type
        parts = t.parts
        n, count = sum(parts), len(parts)
        if count == n:  # every part is 1
            raise ValueError("the identity class is not a vertex")
        if group is _SYM:
            should_split = False
        elif group is _ALT:
            if (n - count) % 2:
                raise ValueError(f"odd type {t} has no class in the alternating group")
            should_split = distinct_odd_parts(parts)
        else:
            raise ValueError(f"group {group!r} is not a GroupKind")
        if split not in ((Split.PLUS, Split.MINUS) if should_split else (Split.NONE,)):
            raise ValueError(f"bad split tag {split} for {t} in {group}")
        profile = type_profile(n, group is _SYM)
        _set_cycle_type(self, cycle_type)
        _set_group(self, group)
        _set_split(self, split)
        _set_degree(self, n)
        _set_rules(self, profile.rule_mask(parts))
        _set_profile(self, profile)
        _set_names(self, profile.names)
        _set_bits(self, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a ClassLabel")

    def __eq__(self, other):
        if other.__class__ is not ClassLabel:
            return NotImplemented
        return (self.cycle_type, self.group, self.split) == (
            other.cycle_type, other.group, other.split
        )

    def __hash__(self) -> int:
        return hash((self.cycle_type, self.group, self.split))

    def __repr__(self) -> str:
        return (
            f"ClassLabel(cycle_type={self.cycle_type!r}, group={self.group!r},"
            f" split={self.split!r})"
        )

    def text(self) -> str:
        return f"{self.cycle_type}{self.split.value}"

    def __str__(self) -> str:
        return self.text()


# The slot setters of a ClassLabel, which ``__setattr__`` refuses: each
# call costs about half of ``object.__setattr__``, which looks the slot up.
_set_cycle_type = ClassLabel.cycle_type.__set__
_set_group = ClassLabel.group.__set__
_set_split = ClassLabel.split.__set__
_set_degree = ClassLabel.degree.__set__
_set_names = ClassLabel._names.__set__
_set_rules = ClassLabel._rules.__set__
_set_profile = ClassLabel._profile.__set__
_set_bits = ClassLabel._bits.__set__


@lru_cache(maxsize=None)
def _degree_types(n: int) -> tuple[tuple[Partition, bool, bool], ...]:
    """The cycle types of degree n other than the identity's, in enumeration
    order, each with whether it is even and whether its A_n class splits.

    One list per degree: the S_n and A_n labels of a degree hold its
    ``Partition`` objects, built once.
    """
    return tuple(
        (p, is_even_type(p), has_distinct_odd_parts(p))
        for p in enumerate_partitions(n)
        if p.parts[0] > 1
    )


def class_labels(n: int, group: GroupKind) -> list[ClassLabel]:
    """All vertices at degree n, in enumeration order (split: PLUS then MINUS)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if group is GroupKind.SYM:
        return [ClassLabel(p, group) for p, _, _ in _degree_types(n)]
    out: list[ClassLabel] = []
    for p, even, splits in _degree_types(n):
        if not even:
            continue
        if splits:
            out += (ClassLabel(p, group, Split.PLUS), ClassLabel(p, group, Split.MINUS))
        else:
            out.append(ClassLabel(p, group))
    return out


def type_labels(p: Partition, group: GroupKind) -> list[ClassLabel]:
    """The vertices of one cycle type: PLUS then MINUS when its A_n class splits."""
    if group is GroupKind.ALT and has_distinct_odd_parts(p):
        return [ClassLabel(p, group, Split.PLUS), ClassLabel(p, group, Split.MINUS)]
    return [ClassLabel(p, group)]


def _label_bits(label: ClassLabel, cache_dir: str | None) -> int:
    """The fingerprint bits of a label no graph build has listed, kept on
    it from its first pair the rules leave open; CatalogAbsent without a
    catalog."""
    halves = label._profile.primitive_masks(label.cycle_type.parts, cache_dir)
    bits = halves[label.split is Split.MINUS]
    _set_bits(label, bits)
    return bits


def shares_subgroup(
    c1: ClassLabel, c2: ClassLabel, cache_dir: str | None = None
) -> Sharing | None:
    """First witnessing family for the pair, or None (= edge in the graph).

    Check order: alternating parity, intransitive partial sums, imprimitive
    wreath products, primitive fingerprints (each with its mirror).  The
    feature masks are laid out in that order, so the witness is the lowest
    bit the two classes' masks share: the smallest partial sum, the smallest
    block size, the first fingerprint in catalog order before its mirror.

    Each label holds its verdict state from construction: its rule mask,
    the verdict table ``names`` of its degree and group kind and the
    profile that owns it.  Its fingerprint bits come from ``build_graph``
    for every vertex it lists, and otherwise at the label's first pair that
    the rules leave open, read from its profile, which ``cache_dir`` fills
    if they are not there yet.  The tables are one per degree and group
    kind, so one identity test checks that the pair is comparable.  A pair
    the rules decide then costs one AND and one lookup of the common rule
    mask in the table, which the first pair with that common mask fills; an
    edge or a pair that a fingerprint decides costs one more AND, of the
    two labels' fingerprint bits, whose common mask is the key.
    """
    names = c1._names
    if names is not c2._names:
        raise ValueError("degree mismatch" if c1.degree != c2.degree else "group mismatch")
    common = c1._rules & c2._rules
    if not common:
        bits1, bits2 = c1._bits, c2._bits
        if bits1 is None:
            bits1 = _label_bits(c1, cache_dir)
        if bits2 is None:
            bits2 = _label_bits(c2, cache_dir)
        common = bits1 & bits2
        if not common:
            return None
    try:
        return names[common]
    except KeyError:
        return c1._profile.name(common)


def verdict(
    c1: ClassLabel, c2: ClassLabel, cache_dir: str | None = None
) -> Sharing | Open | None:
    """A ``Sharing`` (a non-edge), None (an edge) or ``Open``, at any degree.

    ``shares_subgroup`` answers wherever it can, every pair at a cataloged
    degree, and ``theorem_verdict`` the pairs it leaves to the catalog.
    """
    try:
        return shares_subgroup(c1, c2, cache_dir)
    except CatalogAbsent:
        return theorem_verdict(c1.cycle_type, c2.cycle_type)
