"""Membership of conjugacy classes in the proper subgroups of S_n and A_n.

Four families decide every edge question at the supported degrees:

* the alternating group, in S_n, decided by parity;
* intransitive subgroups, decided by common partial sums;
* imprimitive wreath products of block size m, decided by a memoized
  grouping search over the part multiset;
* primitive groups, decided against fingerprints (the realized cycle types,
  with per-split-class incidence) of a complete per-degree catalog.

Each cycle type gets one feature record per degree and group kind
(``type_profile``): its parity, its partial sums up to n/2, a bit per block
size and two bits per fingerprint.  Two classes share a proper subgroup
exactly when their records meet.  ``shares_subgroup`` ANDs two records
family by family and names the lowest common bit; ``graph_engine`` builds
the whole graph from the same records.  Records are filled on a type's
first lookup, and fingerprints only once a pair gets past the first three
families.

The catalog covers degrees 3..13, 17 and 19.  Entries are built
programmatically (affine, projective, product action, subgroups of the
one-dimensional affine group at prime degree) except for the Mathieu groups
and two derived groups, whose verified generators ship in a data file.
Conjugating a subgroup by an odd permutation mirrors its split-class
incidence, so each fingerprint has a mirror bit beside its own; that covers
every S_n-conjugate of every cataloged group.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from invgraph.arith import divisors, primitive_root, proper_block_sizes
from invgraph.finite_fields import field
from invgraph.partitions import Partition, has_distinct_odd_parts, partial_sum_mask
from invgraph.permutations import (
    DEFAULT_CLOSURE_CAP,
    ClassLabel,
    GroupKind,
    Permutation,
    Split,
    closure_images,
    cycle_type_of_images,
    parse_cycles,
    split_label,
)

EXACT_DEGREES = frozenset(range(3, 14)) | {17, 19}
CATALOG_VERSION = 3
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
# intransitive and imprimitive membership
# ---------------------------------------------------------------------------


def shares_intransitive(t1: Partition, t2: Partition) -> bool:
    """True when some 1 <= i <= n/2 is a partial sum of both types."""
    if t1.n != t2.n:
        raise ValueError(f"degree mismatch: {t1.n} vs {t2.n}")
    n = t1.n
    half_mask = (1 << (n // 2 + 1)) - 2  # bits 1..n//2
    return bool(partial_sum_mask(t1) & partial_sum_mask(t2) & half_mask)


@lru_cache(maxsize=None)
def wreath_member(t: Partition, m: int) -> bool:
    """Does the type t occur in the block-imprimitive wreath group S_m wr S_{n/m}?

    An element maps each cycle of blocks of length d to a set of point cycles
    whose lengths are divisible by d and whose quotients by d sum to m.  So t
    is realized iff its parts split into groups, each group assigned some d
    dividing all its parts with sum(part/d) == m, the d's summing to n/m.
    """
    n = t.n
    if not (1 < m < n) or n % m:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    blocks = n // m
    counts = tuple(sorted({(v, t.parts.count(v)) for v in set(t.parts)}, reverse=True))
    memo: dict[tuple, bool] = {}

    def complete_group(counts_now: tuple, d: int, need: int, start: int):
        """Yield remaining multisets after removing d-divisible parts summing need*d."""
        if need == 0:
            yield counts_now
            return
        for idx in range(start, len(counts_now)):
            v, c = counts_now[idx]
            if v % d or v // d > need:
                continue
            unit = v // d
            max_take = min(c, need // unit)
            for take in range(max_take, 0, -1):
                reduced = list(counts_now)
                if c - take:
                    reduced[idx] = (v, c - take)
                    next_start = idx + 1
                else:
                    del reduced[idx]
                    next_start = idx
                yield from complete_group(tuple(reduced), d, need - take * unit, next_start)

    def solve(counts_now: tuple, blocks_left: int) -> bool:
        if not counts_now:
            return blocks_left == 0
        if blocks_left <= 0:
            return False
        key = (counts_now, blocks_left)
        if key in memo:
            return memo[key]
        v, c = counts_now[0]
        removed = list(counts_now)
        if c - 1:
            removed[0] = (v, c - 1)
        else:
            del removed[0]
        removed_t = tuple(removed)
        ok = False
        for d in divisors(v):
            if d > blocks_left or v // d > m:
                continue
            for rest in complete_group(removed_t, d, m - v // d, 0):
                if solve(rest, blocks_left - d):
                    ok = True
                    break
            if ok:
                break
        memo[key] = ok
        return ok

    return solve(counts, blocks)


def wreath_product_generators(m: int, k: int) -> list[Permutation]:
    """Generators of S_m wr S_k in its imprimitive action on m*k points."""
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
    return gens


@lru_cache(maxsize=None)
def _wreath_type_set(n: int, m: int) -> frozenset[tuple[int, ...]]:
    gens = wreath_product_generators(m, n // m)
    elements, _ = closure_images([g.images for g in gens], n, cap=_WREATH_ORACLE_CAP)
    return frozenset(cycle_type_of_images(e) for e in elements)


def wreath_member_oracle(t: Partition, m: int) -> bool:
    """Enumeration cross-check of ``wreath_member``; practical for n <= 12."""
    n = t.n
    if not (1 < m < n) or n % m:
        raise ValueError(f"m={m} is not a proper divisor of n={n}")
    return t.parts in _wreath_type_set(n, m)


# ---------------------------------------------------------------------------
# catalog of primitive groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A primitive group given by generators, with its expected order."""

    name: str
    degree: int
    family: Family
    generators: tuple[Permutation, ...]
    expected_order: int

    def generator_key(self) -> tuple:
        return tuple(sorted(g.images for g in self.generators))


@dataclass(frozen=True)
class Fingerprint:
    """Realized cycle types of a subgroup, with split-class incidence."""

    degree: int
    name: str
    order: int
    types_present: frozenset[tuple[int, ...]]
    split_incidence: tuple[tuple[tuple[int, ...], frozenset[Split]], ...]

    def incidence(self, parts: tuple[int, ...]) -> frozenset[Split]:
        for key, inc in self.split_incidence:
            if key == parts:
                return inc
        return frozenset()

    @property
    def mirror_differs(self) -> bool:
        return any(len(inc) == 1 for _, inc in self.split_incidence)


@dataclass(frozen=True)
class CatalogResult:
    groups: tuple[GroupSpec, ...]
    complete: bool


def _affine_line_maps(p: int, r: int):
    """(translation x+1, multiplication by a primitive element, frobenius)."""
    gf = field(p, r)
    q = gf.q
    mu = gf.primitive_element()
    translate = Permutation(gf.add(x, 1) for x in range(q))
    multiply = Permutation(gf.mul(mu, x) for x in range(q))
    frob = Permutation(gf.frobenius(x) for x in range(q))
    mul_by = lambda a: Permutation(gf.mul(a, x) for x in range(q))
    return gf, translate, multiply, frob, mul_by


def _prime_chain(p: int) -> list[GroupSpec]:
    """Subgroups of the 1-dimensional affine group of prime degree p
    containing the translation cycle: one entry per divisor of p-1."""
    g = primitive_root(p)
    translate = Permutation((x + 1) % p for x in range(p))
    specs = []
    for d in divisors(p - 1):
        gens = [translate]
        if d > 1:
            a = pow(g, (p - 1) // d, p)
            gens.append(Permutation(a * x % p for x in range(p)))
        if d == 1:
            name = f"C{p}"
        elif d == 2:
            name = f"D{2 * p}"
        elif d == p - 1:
            name = f"AGL(1,{p})"
        else:
            name = f"{p}:{d}"
        specs.append(GroupSpec(name, p, Family.AFFINE, tuple(gens), p * d))
    return specs


def _vector_points(p: int, m: int) -> list[tuple[int, ...]]:
    points = [()]
    for _ in range(m):
        points = [pt + (c,) for pt in points for c in range(p)]
    return points


def _affine_matrix_group(name: str, p: int, m: int, matrices, order: int) -> GroupSpec:
    """Affine group E(p^m) : <matrices> acting on the vectors of F_p^m."""
    points = _vector_points(p, m)
    index = {pt: i for i, pt in enumerate(points)}
    perms = []
    for mat in matrices:
        imgs = []
        for pt in points:
            img = tuple(sum(mat[i][j] * pt[j] for j in range(m)) % p for i in range(m))
            imgs.append(index[img])
        perms.append(Permutation(imgs))
    e1 = (1,) + (0,) * (m - 1)
    translation = Permutation(
        index[tuple((pt[i] + e1[i]) % p for i in range(m))] for pt in points
    )
    return GroupSpec(name, p**m, Family.AFFINE, tuple(perms + [translation]), order)


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
        g = primitive_root(p)
        diag = [[(g if i == j == 0 else (1 if i == j else 0)) for j in range(m)] for i in range(m)]
        mats.append(tuple(map(tuple, diag)))
    return mats


def _sl2_generator_matrices(p: int):
    return [((1, 1), (0, 1)), ((0, 1), (p - 1, 0))]


def _projective_space_group(name: str, p: int, d: int, order: int) -> GroupSpec:
    """PSL(d,p) (p prime, gcd(d,p-1)=1 cases used here) on projective points."""
    points = []
    index = {}
    for vec in _vector_points(p, d):
        if all(c == 0 for c in vec):
            continue
        lead = next(c for c in vec if c)
        inv = pow(lead, p - 2, p)
        norm = tuple(c * inv % p for c in vec)
        if norm not in index:
            index[norm] = len(points)
            points.append(norm)
    perms = []
    for mat in _sl_generator_matrices(d, p):
        imgs = []
        for pt in points:
            img = tuple(sum(mat[i][j] * pt[j] for j in range(d)) % p for i in range(d))
            lead = next(c for c in img if c)
            inv = pow(lead, p - 2, p)
            imgs.append(index[tuple(c * inv % p for c in img)])
        perms.append(Permutation(imgs))
    return GroupSpec(name, len(points), Family.PROJECTIVE, tuple(perms), order)


class _ProjectiveLine:
    """Maps of the projective line over GF(q); point q encodes infinity."""

    def __init__(self, p: int, r: int):
        self.gf = field(p, r)
        self.q = self.gf.q

    def mobius(self, a: int, b: int, c: int, d: int) -> Permutation:
        gf, q = self.gf, self.q
        det = gf.sub(gf.mul(a, d), gf.mul(b, c))
        if det == 0:
            raise ValueError("singular map")
        imgs = []
        for x in range(q):
            den = gf.add(gf.mul(c, x), d)
            num = gf.add(gf.mul(a, x), b)
            imgs.append(q if den == 0 else gf.mul(num, gf.inv(den)))
        imgs.append(q if c == 0 else gf.mul(a, gf.inv(c)))  # image of infinity
        return Permutation(imgs)

    def frobenius(self, steps: int = 1) -> Permutation:
        gf, q = self.gf, self.q
        return Permutation([gf.frobenius(x, steps) for x in range(q)] + [q])


def _projective_line_specs(p: int, r: int) -> dict[str, GroupSpec]:
    """The groups between PSL(2,q) and the full semilinear group on q+1 points."""
    line = _ProjectiveLine(p, r)
    gf, q = line.gf, line.q
    n = q + 1
    mu = gf.primitive_element()
    translate = line.mobius(1, 1, 0, 1)
    invert_neg = line.mobius(0, gf.neg(1), 1, 0)
    invert = line.mobius(0, 1, 1, 0)
    psl_order = q * (q * q - 1) // (2 if p > 2 else 1)
    if p == 2:
        psl_gens = (translate, line.mobius(mu, 0, 0, 1), invert)
    else:
        psl_gens = (translate, line.mobius(gf.mul(mu, mu), 0, 0, 1), invert_neg)
    specs = {
        f"PSL(2,{q})": GroupSpec(
            f"PSL(2,{q})", n, Family.PROJECTIVE, psl_gens, psl_order
        )
    }
    if p > 2:
        pgl_gens = (translate, line.mobius(mu, 0, 0, 1), invert)
        specs[f"PGL(2,{q})"] = GroupSpec(
            f"PGL(2,{q})", n, Family.PROJECTIVE, pgl_gens, q * (q * q - 1)
        )
    if r > 1:
        specs[f"PGammaL(2,{q})"] = GroupSpec(
            f"PGammaL(2,{q})",
            n,
            Family.PROJECTIVE,
            (specs.get(f"PGL(2,{q})", specs[f"PSL(2,{q})"]).generators + (line.frobenius(),)),
            q * (q * q - 1) * r,
        )
        if (p, r) == (3, 2):
            specs["PSigmaL(2,9)"] = GroupSpec(
                "PSigmaL(2,9)", n, Family.PROJECTIVE, psl_gens + (line.frobenius(),), 720
            )
            twisted = line.frobenius() * line.mobius(mu, 0, 0, 1)
            specs["M10"] = GroupSpec(
                "M10", n, Family.PROJECTIVE, psl_gens + (twisted,), 720
            )
        if (p, r) == (2, 4):
            specs["PSigmaL(2,16)"] = GroupSpec(
                "PSigmaL(2,16)",
                n,
                Family.PROJECTIVE,
                psl_gens + (line.frobenius(2),),
                8160,
            )
    return specs


def _two_sets_specs() -> list[GroupSpec]:
    """A_5 and S_5 acting on the ten 2-subsets of five points."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    index = {pr: k for k, pr in enumerate(pairs)}

    def lift(perm5: Permutation) -> Permutation:
        return Permutation(
            index[tuple(sorted((perm5(a), perm5(b))))] for a, b in pairs
        )

    five = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    swap = Permutation.from_cycles(5, [(0, 1)])
    three = Permutation.from_cycles(5, [(0, 1, 2)])
    return [
        GroupSpec("A5(2-sets)", 10, Family.OTHER, (lift(three), lift(five)), 60),
        GroupSpec("S5(2-sets)", 10, Family.OTHER, (lift(swap), lift(five)), 120),
    ]


def _product_action_spec(r: int) -> GroupSpec:
    """S_r wr S_2 in product action on the r x r grid."""
    n = r * r
    row_cycle = Permutation(((i + 1) % r) * r + j for i in range(r) for j in range(r))
    row_swap = Permutation(
        ({0: 1, 1: 0}.get(i, i)) * r + j for i in range(r) for j in range(r)
    )
    transpose = Permutation(j * r + i for i in range(r) for j in range(r))
    import math

    return GroupSpec(
        f"S{r}wrS2(product)",
        n,
        Family.PRODUCT_ACTION,
        (row_cycle, row_swap, transpose),
        math.factorial(r) ** 2 * 2,
    )


def _gamma_line_subgroup(name: str, p: int, r: int, which: str, order: int) -> GroupSpec:
    """Affine-semilinear subgroups of degree p^r containing all translations."""
    gf, translate, multiply, frob, mul_by = _affine_line_maps(p, r)
    mu = gf.primitive_element()
    picks = {
        "AGL": (translate, multiply),
        "AGammaL": (translate, multiply, frob),
        "quarter": (translate, mul_by(gf.mul(mu, mu))),
        "quaternion": (
            translate,
            mul_by(gf.mul(mu, mu)),
            Permutation(gf.frobenius(gf.mul(mu, x)) for x in range(gf.q)),
        ),
    }
    return GroupSpec(name, p**r, Family.AFFINE, picks[which], order)


_CURATED_FILE = Path(__file__).parent / "data" / "curated_groups.txt"


@lru_cache(maxsize=None)
def _curated_specs() -> dict[str, GroupSpec]:
    """Parse the shipped generator stanzas (Mathieu groups and derived entries)."""
    specs: dict[str, GroupSpec] = {}
    stanza: dict[str, object] = {}

    def flush():
        if not stanza:
            return
        degree = int(stanza["degree"])  # type: ignore[arg-type]
        gens = tuple(parse_cycles(text, degree) for text in stanza["gens"])  # type: ignore[index]
        spec = GroupSpec(
            str(stanza["name"]),
            degree,
            Family(str(stanza["family"])),
            gens,
            int(stanza["order"]),  # type: ignore[arg-type]
        )
        specs[spec.name] = spec

    for raw in _CURATED_FILE.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key == "group":
            flush()
            stanza = {"name": value.strip(), "gens": []}
        elif key in ("degree", "order", "family"):
            stanza[key] = value.strip()
        elif key == "gen":
            stanza["gens"].append(value.strip())  # type: ignore[union-attr]
        else:
            raise ValueError(f"bad line in curated group file: {raw!r}")
    flush()
    return specs


def _catalog_degree_11() -> list[GroupSpec]:
    curated = _curated_specs()
    return _prime_chain(11) + [curated["PSL(2,11)@11"], curated["M11"]]


def _catalog_degree_12() -> list[GroupSpec]:
    curated = _curated_specs()
    line = _projective_line_specs(11, 1)
    out = []
    for spec in (line["PSL(2,11)"], line["PGL(2,11)"]):
        out.append(
            GroupSpec(spec.name + "@12", 12, spec.family, spec.generators, spec.expected_order)
        )
    return out + [curated["M11@12"], curated["M12"]]


@lru_cache(maxsize=None)
def primitive_catalog(n: int) -> CatalogResult:
    """All primitive groups of degree n other than A_n and S_n.

    Complete for n in 3..13 and n in {17, 19}; empty-with-Absent otherwise.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n not in EXACT_DEGREES:
        return CatalogResult((), False)
    groups: list[GroupSpec] = []
    if n in (5, 7, 11, 13, 17, 19):
        if n == 11:
            groups += _catalog_degree_11()
        else:
            groups += _prime_chain(n)
    if n == 6:
        line = _projective_line_specs(5, 1)
        groups += [line["PSL(2,5)"], line["PGL(2,5)"]]
    if n == 7:
        groups.append(_projective_space_group("PSL(3,2)", 2, 3, 168))
    if n == 8:
        groups.append(_gamma_line_subgroup("AGL(1,8)", 2, 3, "AGL", 56))
        groups.append(_gamma_line_subgroup("AGammaL(1,8)", 2, 3, "AGammaL", 168))
        line = _projective_line_specs(7, 1)
        groups += [line["PSL(2,7)"], line["PGL(2,7)"]]
        groups.append(
            _affine_matrix_group("AGL(3,2)", 2, 3, _gl_generator_matrices(3, 2), 1344)
        )
    if n == 9:
        groups.append(_gamma_line_subgroup("E9:C4", 3, 2, "quarter", 36))
        groups.append(_gamma_line_subgroup("AGL(1,9)", 3, 2, "AGL", 72))
        groups.append(_gamma_line_subgroup("E9:Q8", 3, 2, "quaternion", 72))
        groups.append(_gamma_line_subgroup("AGammaL(1,9)", 3, 2, "AGammaL", 144))
        groups.append(_product_action_spec(3))  # same group as E9:D8
        groups.append(
            _affine_matrix_group("ASL(2,3)", 3, 2, _sl2_generator_matrices(3), 216)
        )
        groups.append(
            _affine_matrix_group("AGL(2,3)", 3, 2, _gl_generator_matrices(2, 3), 432)
        )
        line = _projective_line_specs(2, 3)
        groups += [line["PSL(2,8)"], line["PGammaL(2,8)"]]
    if n == 10:
        groups += _two_sets_specs()
        line = _projective_line_specs(3, 2)
        groups += [
            line["PSL(2,9)"],
            line["PGL(2,9)"],
            line["PSigmaL(2,9)"],
            line["M10"],
            line["PGammaL(2,9)"],
        ]
    if n == 12:
        groups += _catalog_degree_12()
    if n == 13:
        groups.append(_projective_space_group("PSL(3,3)", 3, 3, 5616))
    if n == 17:
        line = _projective_line_specs(2, 4)
        groups += [line["PSL(2,16)"], line["PSigmaL(2,16)"], line["PGammaL(2,16)"]]
    return CatalogResult(tuple(groups), True)


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
        for images in spec.generator_key():
            h.update(bytes(images))
    return h.hexdigest()


def _compute_fingerprint(spec: GroupSpec, cap: int = DEFAULT_CLOSURE_CAP) -> Fingerprint:
    elements, _ = closure_images(
        [g.images for g in spec.generators], spec.degree, cap=max(cap, 2 * spec.expected_order)
    )
    if len(elements) != spec.expected_order:
        raise RuntimeError(
            f"{spec.name}: closure order {len(elements)} != expected {spec.expected_order}"
        )
    # cycle type -> does its class split in A_n (nontrivial, distinct odd parts)
    splits: dict[tuple[int, ...], bool] = {}
    incidence: dict[tuple[int, ...], set[Split]] = {}
    identity = (1,) * spec.degree
    for images in elements:
        t = cycle_type_of_images(images)
        split = splits.get(t)
        if split is None:
            split = splits[t] = t != identity and has_distinct_odd_parts(Partition(t))
        if split:
            inc = incidence.setdefault(t, set())
            if len(inc) < 2:
                inc.add(split_label(Permutation(images)))
    return Fingerprint(
        degree=spec.degree,
        name=spec.name,
        order=spec.expected_order,
        types_present=frozenset(splits),
        split_incidence=tuple(
            sorted((k, frozenset(v)) for k, v in incidence.items())
        ),
    )


def _fingerprint_to_json(fp: Fingerprint) -> dict:
    return {
        "name": fp.name,
        "order": fp.order,
        "types": sorted(",".join(map(str, t)) for t in fp.types_present),
        "split": {
            ",".join(map(str, t)): "".join(sorted(s.value for s in inc))
            for t, inc in fp.split_incidence
        },
    }


def _fingerprint_from_json(degree: int, data: dict) -> Fingerprint:
    types = frozenset(tuple(int(x) for x in t.split(",")) for t in data["types"])
    split = tuple(
        sorted(
            (
                tuple(int(x) for x in t.split(",")),
                frozenset(Split(ch) for ch in marks),
            )
            for t, marks in data["split"].items()
        )
    )
    return Fingerprint(degree, data["name"], data["order"], types, split)


def _load_fingerprints(
    cache_file: Path, n: int, digest: str, groups: Sequence[GroupSpec]
) -> tuple[Fingerprint, ...] | None:
    """The cached fingerprints, or None unless the file is sound.

    Beyond the digest, the names and orders must match the catalog, every
    type must be a partition of n, and split marks may only sit on present
    types with distinct odd parts.
    """
    try:
        data = json.loads(cache_file.read_text())
        if data.get("schema") != 1 or data.get("digest") != digest:
            return None
        fps = tuple(_fingerprint_from_json(n, entry) for entry in data["groups"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    if [(fp.name, fp.order) for fp in fps] != [(g.name, g.expected_order) for g in groups]:
        return None
    for fp in fps:
        for t in fp.types_present:
            if sum(t) != n or min(t) < 1 or list(t) != sorted(t, reverse=True):
                return None
        for t, marks in fp.split_incidence:
            if not marks or t not in fp.types_present:
                return None
            if t == (1,) * n or not has_distinct_odd_parts(Partition(t)):
                return None
    return fps


@lru_cache(maxsize=None)
def degree_fingerprints(n: int, cache_dir: str | None = None) -> tuple[Fingerprint, ...]:
    """Fingerprints of every cataloged group of degree n, disk-cached.

    A cache file that is missing, stale or unsound is recomputed and
    replaced atomically (temporary file in the same directory, then rename).
    """
    catalog = primitive_catalog(n)
    if not catalog.complete:
        raise CatalogAbsent(f"no complete primitive catalog at degree {n}")
    if not catalog.groups:
        return ()
    digest = _catalog_digest(catalog.groups)
    cache_path = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_file = cache_path / f"fingerprints-deg{n}.json"
    if cache_file.exists():
        fps = _load_fingerprints(cache_file, n, digest, catalog.groups)
        if fps is not None:
            return fps
    fps = tuple(_compute_fingerprint(spec) for spec in catalog.groups)
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


def fingerprint(spec: GroupSpec, cache_dir: str | None = None) -> Fingerprint:
    for fp in degree_fingerprints(spec.degree, cache_dir):
        if fp.name == spec.name:
            return fp
    return _compute_fingerprint(spec)


# ---------------------------------------------------------------------------
# the per-type feature record, the sharing verdict and the graph features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sharing:
    """A common proper subgroup witnessing that a pair is not an edge."""

    family: str  # alternating | intransitive | imprimitive | primitive
    witness: str

    def __str__(self) -> str:
        return f"{self.family}({self.witness})"


class TypeRecord:
    """The features of one cycle type that decide every pair it is in.

    ``even`` is 1 for an even type in an S_n profile and 0 otherwise;
    ``sums`` holds the partial sums 1..n//2; bit k of ``blocks`` is set when
    the type lies in the wreath product of the k-th proper block size.  The
    primitive masks are filled on the first pair that gets that far: bit 2k
    is fingerprint k and bit 2k+1 its mirror, ``plus`` for the PLUS or
    unsplit class and ``minus`` for the MINUS class.
    """

    __slots__ = ("even", "sums", "blocks", "plus", "minus")

    def __init__(self, even: int, sums: int, blocks: int):
        self.even = even
        self.sums = sums
        self.blocks = blocks
        self.plus: int | None = None
        self.minus: int | None = None


class TypeProfile:
    """Feature records of the cycle types of one degree and group kind.

    A record is built on the first lookup of its type, and the fingerprints
    are read on the first pair that parity, partial sums and block sizes
    leave open, so degrees without a catalog answer every pair those decide.
    Verdicts are prebuilt ``Sharing`` objects keyed by the lowest common
    feature bit.
    """

    def __init__(self, n: int, sym: bool, cache_dir: str | None):
        self.n = n
        self.sym = sym
        self.cache_dir = cache_dir
        self.half_mask = (1 << (n // 2 + 1)) - 2  # bits 1..n//2
        self.block_sizes = proper_block_sizes(n)
        self.records: dict[tuple[int, ...], TypeRecord] = {}
        self.alternating = Sharing("alternating", f"A_{n}")
        self.intransitive = {
            1 << i: Sharing("intransitive", f"i={i}") for i in range(1, n // 2 + 1)
        }
        self.imprimitive = {
            1 << k: Sharing("imprimitive", f"m={m}") for k, m in enumerate(self.block_sizes)
        }
        self.primitive: dict[int, Sharing] | None = None
        self._fingerprints: tuple[Fingerprint, ...] = ()

    def fill(self, parts: tuple[int, ...]) -> TypeRecord:
        """Build, store and return the record of a type not yet looked up."""
        if sum(parts) != self.n:
            raise ValueError("degree mismatch")
        t = Partition(parts)
        even = int(self.sym and (self.n - len(parts)) % 2 == 0)
        blocks = 0
        for k, m in enumerate(self.block_sizes):
            if wreath_member(t, m):
                blocks |= 1 << k
        record = TypeRecord(even, partial_sum_mask(t) & self.half_mask, blocks)
        self.records[parts] = record
        return record

    def fill_primitive(self, parts: tuple[int, ...], record: TypeRecord) -> None:
        """Set the primitive masks of a record; CatalogAbsent without a catalog."""
        if self.primitive is None:
            self._fingerprints = degree_fingerprints(self.n, self.cache_dir)
            self.primitive = {}
            for k, fp in enumerate(self._fingerprints):
                self.primitive[1 << (2 * k)] = Sharing("primitive", fp.name)
                self.primitive[1 << (2 * k + 1)] = Sharing("primitive", fp.name + "'")
        split = not self.sym and has_distinct_odd_parts(Partition(parts))
        plus = minus = 0
        for k, fp in enumerate(self._fingerprints):
            if parts not in fp.types_present:
                continue
            if not split:
                plus |= 3 << (2 * k)
                continue
            incidence = fp.incidence(parts)
            if Split.PLUS in incidence:
                plus |= 1 << (2 * k)
                minus |= 1 << (2 * k + 1)
            if Split.MINUS in incidence:
                minus |= 1 << (2 * k)
                plus |= 1 << (2 * k + 1)
        record.plus = plus
        record.minus = minus if split else plus

    def features(self, label: ClassLabel) -> int:
        """Every feature of a class as one mask, for the column build.

        Bit 0 is S_n parity, bits 1..n//2 the partial sums, then one bit per
        block size and two per fingerprint.  Two classes of this profile
        share a proper subgroup exactly when their masks meet.
        """
        parts = label.cycle_type.parts
        record = self.records.get(parts) or self.fill(parts)
        if record.plus is None:
            self.fill_primitive(parts, record)
        primitive = record.minus if label.split is Split.MINUS else record.plus
        block_shift = self.n // 2 + 1
        primitive_shift = block_shift + len(self.block_sizes)
        return (
            record.even
            | record.sums
            | record.blocks << block_shift
            | primitive << primitive_shift  # type: ignore[operator]
        )


@lru_cache(maxsize=None)
def type_profile(n: int, sym: bool, cache_dir: str | None = None) -> TypeProfile:
    """The shared feature records of degree n in S_n (sym) or A_n."""
    return TypeProfile(n, sym, cache_dir)


def shares_subgroup(
    c1: ClassLabel, c2: ClassLabel, cache_dir: str | None = None
) -> Sharing | None:
    """First witnessing family for the pair, or None (= edge in the graph).

    Check order: alternating parity, intransitive partial sums, imprimitive
    wreath products, primitive fingerprints (each with its mirror).  Each
    family is one AND of the two classes' feature records, and the witness
    is the lowest common bit: the smallest partial sum, the smallest block
    size, the first fingerprint in catalog order before its mirror.
    """
    parts1, parts2 = c1.cycle_type.parts, c2.cycle_type.parts
    profile = type_profile(sum(parts1), c1.group is GroupKind.SYM, cache_dir)
    records = profile.records
    r1 = records.get(parts1) or profile.fill(parts1)
    r2 = records.get(parts2) or profile.fill(parts2)  # raises on a degree mismatch
    if c1.group is not c2.group:
        raise ValueError("group mismatch")
    if r1.even & r2.even:
        return profile.alternating
    common = r1.sums & r2.sums
    if common:
        return profile.intransitive[common & -common]
    common = r1.blocks & r2.blocks
    if common:
        return profile.imprimitive[common & -common]
    if r1.plus is None:
        profile.fill_primitive(parts1, r1)
    if r2.plus is None:
        profile.fill_primitive(parts2, r2)
    p1 = r1.minus if c1.split is Split.MINUS else r1.plus
    p2 = r2.minus if c2.split is Split.MINUS else r2.plus
    common = p1 & p2  # type: ignore[operator]
    if common:
        return profile.primitive[common & -common]  # type: ignore[index]
    return None
