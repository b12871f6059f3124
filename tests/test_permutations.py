import collections
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invgraph import permutations
from invgraph.arith import proper_block_sizes
from invgraph.partitions import Partition, enumerate_partitions, has_distinct_odd_parts
from invgraph.permutations import (
    ClassLabel,
    ClosureCapExceeded,
    GroupKind,
    Permutation,
    Split,
    alternating_group_generators,
    canonical_of_type,
    chain_member,
    chain_order,
    class_labels,
    closure_images,
    conjugacy_class,
    conjugator,
    format_cycles,
    is_primitive,
    is_transitive,
    parse_cycles,
    split_label,
    stabilizer_chain,
    symmetric_group_generators,
)
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    primitive_catalog,
    wreath_product_generators,
)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def test_cycle_type_examples():
    assert Permutation.identity(5).cycle_type() == Partition([1] * 5)
    n = 9
    rotation = Permutation((i + 1) % n for i in range(n))
    assert rotation.cycle_type() == Partition([n])
    g = Permutation.from_cycles(7, [(0, 1, 2), (3, 4)])
    assert g.cycle_type() == Partition([3, 2, 1, 1])


def test_composition_convention():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert (p * q)(1) == p(q(1))
    assert p * p == Permutation.identity(3)
    assert (p * q).cycle_type() == Partition([3])


def test_parse_and_format_roundtrip():
    for text in ["(1,2,3)(4,5)", "(1,11)", "()"]:
        perm = parse_cycles(text, 11)
        assert parse_cycles(format_cycles(perm), 11) == perm
    with pytest.raises(ValueError):
        parse_cycles("(1,12)", 11)


def test_conjugator_examples():
    x = parse_cycles("(1,2,3)", 3)
    assert conjugator(x, x) is not None
    y = parse_cycles("(1,3,2)", 3)
    s = conjugator(x, y)
    assert s.inverse() * x * s == y
    assert conjugator(x, parse_cycles("(1,2)", 3)) is None


@given(st.integers(3, 10), st.randoms(use_true_random=False))
def test_conjugator_random_pairs(n, rng):
    x = random_perm(rng, n)
    g = random_perm(rng, n)
    y = x.conjugate_by(g)
    s = conjugator(x, y)
    assert s is not None and s.inverse() * x * s == y


def test_closure_symmetric_groups():
    for n in range(2, 8):
        gens = [g.images for g in symmetric_group_generators(n)]
        assert len(closure_images(gens, n)) == math.factorial(n)


def test_closure_identity_and_cap():
    assert len(closure_images([Permutation.identity(4).images], 4)) == 1
    with pytest.raises(ClosureCapExceeded) as info:
        closure_images([g.images for g in symmetric_group_generators(8)], 8, cap=1000)
    assert info.value.partial_count > 1000


def test_closure_images_matches_reference_on_symmetric_groups(reference_closure):
    for n in range(3, 7):
        gens = [g.images for g in symmetric_group_generators(n)]
        elements = closure_images(gens, n)
        assert elements == reference_closure(gens, n)
        assert len(elements) == math.factorial(n)


def _catalog_generators(n, name):
    (spec,) = [g for g in primitive_catalog(n).groups if g.name == name]
    return spec.generators


# published numbers of conjugacy classes
CLASS_COUNTS = [
    ("S5", lambda: symmetric_group_generators(5), 5, 7),
    ("A5", lambda: [parse_cycles("(1,2,3)", 5), parse_cycles("(1,2,3,4,5)", 5)], 5, 5),
    ("PSL(3,2)", lambda: _catalog_generators(7, "PSL(3,2)"), 7, 6),
    ("PGL(2,7)", lambda: _catalog_generators(8, "PGL(2,7)"), 8, 9),
    ("AGL(3,2)", lambda: _catalog_generators(8, "AGL(3,2)"), 8, 11),
    ("M11", lambda: _catalog_generators(11, "M11"), 11, 10),
    ("M12", lambda: _catalog_generators(12, "M12"), 12, 15),
    ("PSL(3,3)", lambda: _catalog_generators(13, "PSL(3,3)"), 13, 12),
    ("PSL(2,16)", lambda: _catalog_generators(17, "PSL(2,16)"), 17, 17),
]


def _class_representatives(chain, degree):
    """Elements that meet every class: the top level of the class walk."""
    *_, top = permutations._class_levels(chain, degree)
    return [rep for rep, _ in top]


def _sift_tables(levels, degree):
    """Per level, its base point and the table of u^-1 by orbit point."""
    identity = bytes(range(degree))
    return [
        (next(iter(t)), {y: bytes.maketrans(u, identity) for y, u in t.items()}) for t in levels
    ]


def _edited_chain(levels, generators, degree):
    """A chain record of edited levels: the sift tables re-derived from
    them, ``generators`` at the top level, and below it the generators of
    the next level down plus the transversal elements whose points their
    orbit of the base point misses.  Those span each level of a sound
    chain, and on a broken one they keep each fixture on the check it
    exists for."""
    strong = []
    gens = []
    for transversal in reversed(levels[1:]):
        gens = list(gens)
        base = next(iter(transversal))
        reached = [base]  # the next level down fixes the base point
        seen = {base}
        for y, u in transversal.items():
            if y not in seen:
                gens.append(u)
                for point in reached:  # breadth-first; reached grows while it is walked
                    for g in gens:
                        if g[point] not in seen:
                            seen.add(g[point])
                            reached.append(g[point])
        strong.insert(0, gens)
    return permutations.StabilizerChain(
        levels, _sift_tables(levels, degree), [list(generators), *strong]
    )


def _class_count(reps, gens, degree):
    """The number of classes of the group ``gens`` span that ``reps`` meet."""
    covered = set()
    count = 0
    for rep in reps:
        if rep not in covered:
            covered.update(conjugacy_class(rep, gens, degree))
            count += 1
    return count


@pytest.mark.parametrize(
    "name,generators,degree,classes", CLASS_COUNTS, ids=[c[0] for c in CLASS_COUNTS]
)
def test_class_representatives_match_published_class_counts(name, generators, degree, classes):
    # the walk may return several elements of one class; walking each one's
    # class under the group's generators merges them
    gens = [g.images for g in generators()]
    reps = _class_representatives(stabilizer_chain(gens, degree), degree)
    assert _class_count(reps, gens, degree) == classes


@pytest.mark.parametrize("name", ["PSL(3,2)", "PGL(2,7)", "AGL(3,2)", "M11"])
def test_class_walk_rejects_a_chain_of_the_wrong_order(name):
    # one transversal point too few or too many; the walk must raise rather
    # than stop with some classes missing
    (_, generators, degree, _) = [c for c in CLASS_COUNTS if c[0] == name][0]
    gens = [g.images for g in generators()]
    chain = stabilizer_chain(gens, degree)
    broken = []
    for level, transversal in enumerate(chain):
        for point in list(transversal)[1:]:
            fewer = [dict(t) for t in chain]
            del fewer[level][point]
            broken.append(_edited_chain(fewer, gens, degree))
        more = [dict(t) for t in chain]
        more[level][degree] = bytes(range(degree))
        broken.append(_edited_chain(more, gens, degree))
    for wrong in broken:
        with pytest.raises(RuntimeError, match="class walk"):
            _class_representatives(wrong, degree)


def _translations_and_a_rotation():
    # the chain of the translations x -> x ^ v of F_2^3 (order 8), walked
    # under them and the rotation of the three coordinates, which span a
    # group of order 24: the seven translations other than the identity
    # fall into classes of 3, 3 and 1; 3 does not divide 8, but 8 // 3 is
    # even, and the classes cover exactly the seven
    translations = [bytes(x ^ v for x in range(8)) for v in (1, 2, 4)]
    rotation = bytes((x << 1 & 7) | x >> 2 for x in range(8))
    levels = list(stabilizer_chain(translations, 8))
    return _edited_chain(levels, translations + [rotation], 8), 8


def _rotations_of_a_square():
    # the chain of the rotations of a square (order 4), walked under the
    # dihedral group of order 8: the three rotations other than the
    # identity fall into classes of 2 and 1, which cover them, but a class
    # of 2 elements of order 4 needs a centralizer of order 4, not 4 / 2
    rotation = bytes([1, 2, 3, 0])
    levels = list(stabilizer_chain([rotation], 4))
    return _edited_chain(levels, [rotation, bytes([0, 3, 2, 1])], 4), 4


def _catalog_chain_cut(name, degree, level, points):
    # a catalog group's chain with the given points removed from one level
    gens = [g.images for g in _catalog_generators(degree, name)]
    levels = [dict(t) for t in stabilizer_chain(gens, degree)]
    for point in points:
        del levels[level][point]
    return _edited_chain(levels, gens, degree), degree


def _catalog_chain_mixed(name, degree, level, point, into):
    # a catalog group's chain with one transversal element replaced by one
    # of another level: ``into`` is (level, point) of the replaced element
    gens = [g.images for g in _catalog_generators(degree, name)]
    levels = [dict(t) for t in stabilizer_chain(gens, degree)]
    levels[into[0]][into[1]] = levels[level][point]
    return _edited_chain(levels, gens, degree), degree


@pytest.mark.parametrize(
    "case,message",
    [
        (_translations_and_a_rotation, "covered a class of 3 elements of order 2, which chain"),
        (_rotations_of_a_square, "covered a class of 2 elements of order 4, which chain"),
        # the first level cut down to its base point 1: every element fixes it
        (
            lambda: _catalog_chain_cut("PSL(3,2)", 7, 0, [5, 3, 4, 0, 2, 6]),
            "counted 24 elements of chain order 24 with a fixed point in an orbit of 1 points",
        ),
        # every class passes, but their sizes do not add up to the rest
        (
            lambda: _catalog_chain_cut("PSL(2,7)", 8, 0, [1, 7]),
            "covered 21 elements with no fixed point in an orbit of 6 points, where "
            "chain order 126 leaves 5",
        ),
        # base points 0, 1, 3: level 1's element taking 1 to 3 replaces
        # level 2's element taking 3 to 6, so the walk of level 2 returns a
        # representative that fixes no point of level 1's orbit {1, 2, 3, 6}
        (
            lambda: _catalog_chain_mixed("S3wrS2(product)", 9, 1, 3, into=(2, 6)),
            "met an element of the level below with no fixed point in an orbit of 4 points",
        ),
    ],
    ids=["class-size", "element-order", "fixed-point-count", "coverage", "mixed-levels"],
)
def test_class_walk_checks_each_class_against_the_chain_order(case, message):
    # each case is caught by one check of the walk alone: with that check
    # removed, the walk returns without noticing, or, for mixed levels,
    # divides by a fixed-point count of 0
    chain, degree = case()
    with pytest.raises(RuntimeError, match=re.escape("class walk " + message)):
        _class_representatives(chain, degree)


def test_class_walk_of_m12_walks_few_elements(monkeypatch):
    # only the classes with no fixed point in each level's base orbit are
    # walked; covering every class of M12 would walk its 95,040 elements
    walked = []
    walk = permutations.conjugacy_class

    def counted(x, generators, degree):
        members = walk(x, generators, degree)
        walked.append(len(members))
        return members

    monkeypatch.setattr(permutations, "conjugacy_class", counted)
    gens = [g.images for g in _catalog_generators(12, "M12")]
    chain = stabilizer_chain(gens, 12)
    assert chain_order(chain) == 95040
    reps = _class_representatives(chain, 12)
    assert 0 < sum(walked) <= 40000
    monkeypatch.undo()
    assert _class_count(reps, gens, 12) == 15


def test_stabilizer_chain_orders_of_symmetric_and_alternating_groups():
    for n in range(1, 11):
        sym = [g.images for g in symmetric_group_generators(n)]
        assert chain_order(stabilizer_chain(sym, n)) == math.factorial(n), n
        if n >= 3:
            alt = [g.images for g in alternating_group_generators(n)]
            assert chain_order(stabilizer_chain(alt, n)) == math.factorial(n) // 2, n


def _groups_with_known_orders():
    for n in sorted(EXACT_DEGREES):
        for spec in primitive_catalog(n).groups:
            yield spec.name, [g.images for g in spec.generators], n, spec.expected_order
    for n in range(3, 9):
        yield f"S{n}", [g.images for g in symmetric_group_generators(n)], n, math.factorial(n)
        alt = [g.images for g in alternating_group_generators(n)]
        yield f"A{n}", alt, n, math.factorial(n) // 2


def test_stabilizer_chain_stopped_at_the_known_order_is_complete():
    # the class walk raises when a chain under-reports, so equal class
    # counts show that the early chain lists every element
    for name, gens, n, order in _groups_with_known_orders():
        full = stabilizer_chain(gens, n)
        early = stabilizer_chain(gens, n, order=order)
        assert chain_order(full) == order, name
        assert chain_order(early) == chain_order(full), name
        assert _class_count(_class_representatives(early, n), gens, n) == _class_count(
            _class_representatives(full, n), gens, n
        ), name


def _oracle_wreath_products():
    for n in (4, 6, 8, 9, 10):
        for m in proper_block_sizes(n):
            gens = [g.images for g in wreath_product_generators(m, n // m)]
            yield f"S{m}wrS{n // m}", gens, n


def test_class_level_weights_count_each_level():
    # at every level j the weights sum to |H_j| times the scale; where H_j
    # is small, the weights of each of its classes sum to the class size
    groups = [g[:3] for g in _groups_with_known_orders()] + list(_oracle_wreath_products())
    for name, gens, n in groups:
        chain = stabilizer_chain(gens, n)
        scale = math.lcm(*range(1, n + 1)) ** len(chain)
        levels = list(permutations._class_levels(chain, n))
        assert len(levels) == len(chain) + 1, name
        for j, weighted in zip(range(len(chain), -1, -1), levels):
            order = chain_order(chain[j:])
            assert sum(w for _, w in weighted) == order * scale, (name, j)
            if order > 2000:
                continue
            level_gens = [u for t in chain[j:] for u in t.values()]
            class_of, sizes, totals = {}, [], []
            for rep, w in weighted:
                if rep not in class_of:
                    members = conjugacy_class(rep, level_gens, n)
                    class_of.update(dict.fromkeys(members, len(sizes)))
                    sizes.append(len(members))
                    totals.append(0)
                totals[class_of[rep]] += w
            assert totals == [size * scale for size in sizes], (name, j)


@pytest.mark.parametrize(
    "degree,name",
    [(11, "M11"), (12, "M12"), (13, "PSL(3,3)"), (17, "PGammaL(2,16)"), (10, "S5wrS2")],
)
def test_counted_class_sizes_match_the_walked_classes(monkeypatch, degree, name):
    # each class counted through its centralizer has the size a walk of the
    # class under its level's generators finds
    if name == "S5wrS2":
        gens = [g.images for g in wreath_product_generators(5, 2)]
    else:
        gens = [g.images for g in _catalog_generators(degree, name)]
    chain = stabilizer_chain(gens, degree)
    counted = []
    count = permutations._count_class

    def recording(x, in_level, order, x_order):
        size, coset_tables = count(x, in_level, order, x_order)
        counted.append((x, size, order))
        return size, coset_tables

    monkeypatch.setattr(permutations, "_count_class", recording)
    _class_representatives(chain, degree)
    monkeypatch.undo()
    assert counted, name
    level_of = {chain_order(chain[j:]): j for j in range(len(chain))}
    for rep, size, order in counted:
        level_gens = [u for t in chain[level_of[order]:] for u in t.values()]
        assert size == len(conjugacy_class(rep, level_gens, degree)), (name, rep)


def test_class_walk_of_m12_counts_its_large_classes(monkeypatch):
    # the classes of a small S_n-centralizer are counted, not walked, which
    # leaves the walk a few thousand of M12's 95,040 elements
    walked = []
    walk = permutations.conjugacy_class

    def walking(x, generators, degree):
        members = walk(x, generators, degree)
        walked.append(len(members))
        return members

    monkeypatch.setattr(permutations, "conjugacy_class", walking)
    gens = [g.images for g in _catalog_generators(12, "M12")]
    reps = _class_representatives(stabilizer_chain(gens, 12), 12)
    assert 0 < sum(walked) <= 5000
    monkeypatch.undo()
    assert _class_count(reps, gens, 12) == 15


@pytest.mark.parametrize(
    "case,message",
    [
        # M12 without point 1 at the top level: 11 elements of S_12 that
        # centralize an element of type (6,6) sift through the chain, but a
        # centralizer holds the element's powers, so its order is a multiple
        # of 6
        (
            lambda: _catalog_chain_cut("M12", 12, 0, [1]),
            "counted a centralizer of 11 elements for an element of order 6, which chain "
            "order 87120",
        ),
        # PGammaL(2,8) without point 2 at level 1: a centralizer of 6
        # elements cannot divide the chain order 147
        (
            lambda: _catalog_chain_cut("PGammaL(2,8)", 9, 1, [2]),
            "counted a centralizer of 6 elements for an element of order 6, which chain "
            "order 147",
        ),
    ],
    ids=["element-order", "chain-order"],
)
def test_class_count_checks_each_centralizer_against_the_chain_order(case, message):
    chain, degree = case()
    with pytest.raises(RuntimeError, match=re.escape("class walk " + message)):
        _class_representatives(chain, degree)


def test_class_walk_builds_no_chains(monkeypatch):
    # each level walks its classes under generators read off the chain, so
    # the class walks of the catalog groups and the oracle's wreath products
    # build no stabilizer chain of their own
    chains = []
    build = permutations.stabilizer_chain

    def counting(generators, degree, **options):
        chains.append(degree)
        return build(generators, degree, **options)

    groups = [
        ([g.images for g in spec.generators], n)
        for n in sorted(EXACT_DEGREES)
        for spec in primitive_catalog(n).groups
    ] + [(gens, n) for _, gens, n in _oracle_wreath_products()]
    assert len(groups) == 70
    prepared = [(stabilizer_chain(gens, n), n) for gens, n in groups]
    monkeypatch.setattr(permutations, "stabilizer_chain", counting)
    for chain, n in prepared:
        _class_representatives(chain, n)
    assert len(chains) == 0


def test_stabilizer_chain_record_carries_its_tables_and_strong_generators():
    # the record's top level is the given generators; each level's strong
    # generators span the group of the levels from it down (Handbook of
    # Computational Group Theory, 4.4); and each sift table is the one its
    # transversal gives, also in a record stopped early
    groups = [g[:3] for g in _groups_with_known_orders()] + list(_oracle_wreath_products())
    for name, gens, n in groups:
        chain = stabilizer_chain(gens, n)
        identity = bytes(range(n))
        given = [g for g in dict.fromkeys(map(bytes, gens)) if g != identity]
        assert chain.strong[0] == given, name
        assert len(chain.strong) == len(chain.sifts) == len(chain), name
        for j in range(len(chain)):
            assert chain_order(stabilizer_chain(chain.strong[j], n)) == chain_order(chain[j:]), (
                name,
                j,
            )
        assert chain.sifts == _sift_tables(chain, n), name
        # stopped at the group's order, the record is already the full one
        early = stabilizer_chain(gens + [identity, gens[0]], n, order=chain_order(chain))
        assert chain_order(early) == chain_order(chain), name
        assert early.sifts == _sift_tables(early, n), name
        assert (early, early.strong) == (chain, chain.strong), name


def test_chain_member_accepts_exactly_the_group():
    # of the 5,040 elements of S_7, the 168 of PSL(3,2) and no other sift
    # to the identity through its chain
    gens = [g.images for g in _catalog_generators(7, "PSL(3,2)")]
    member = chain_member(stabilizer_chain(gens, 7), 7)
    every = closure_images([g.images for g in symmetric_group_generators(7)], 7)
    assert {x for x in every if member(x)} == closure_images(gens, 7)


def test_centralizer_generators_span_the_centralizer():
    # for every class of S_n, the generators must span exactly the elements
    # of S_n that commute with its canonical representative
    for n in range(3, 8):
        tail = bytes(range(n, 256))
        sym = closure_images([g.images for g in symmetric_group_generators(n)], n)
        for t in enumerate_partitions(n):
            x = bytes(canonical_of_type(t).images)
            x_table = x + tail
            commuting = {g for g in sym if x.translate(g + tail) == g.translate(x_table)}
            assert closure_images(permutations.centralizer_generators(x), n) == commuting, t


def test_normalizer_generators_span_the_normalizer_of_the_cyclic_group():
    # |N_{S_n}(<x>)| = |C_{S_n}(x)| * phi(|x|), since every unit power of x
    # has x's cycle type; x is scrambled so no generator relies on layout
    rng = random.Random(23)
    for n in range(2, 9):
        tail = bytes(range(n, 256))
        for t in enumerate_partitions(n):
            images = list(range(n))
            rng.shuffle(images)
            s = Permutation(images)
            x = bytes(canonical_of_type(t).conjugate_by(s).images)
            cyclic = [x]
            while cyclic[-1] != bytes(range(n)):
                cyclic.append(cyclic[-1].translate(x + tail))
            order = len(cyclic)
            phi = sum(math.gcd(k, order) == 1 for k in range(1, order + 1))
            centralizer = math.prod(
                k**m * math.factorial(m) for k, m in collections.Counter(t.parts).items()
            )
            gens = permutations.normalizer_generators(x)
            assert chain_order(stabilizer_chain(gens, n)) == centralizer * phi, t
            for g in gens:
                inverse = bytes.maketrans(g, bytes(range(n)))
                assert g.translate(x.translate(inverse) + tail) in cyclic, (t, g)


def test_stabilizer_chain_of_the_identity():
    for n in (1, 4, 9):
        identity = tuple(range(n))
        assert stabilizer_chain([identity], n) == []
        assert chain_order([]) == 1
        assert _class_representatives(stabilizer_chain([identity], n), n) == [bytes(identity)]


def test_split_label_examples():
    plus = parse_cycles("(1,2,3)", 3)
    minus = parse_cycles("(1,3,2)", 3)
    assert split_label(plus) is Split.PLUS
    assert split_label(minus) is Split.MINUS
    assert split_label(parse_cycles("(1,2)(3,4)", 5)) is Split.NONE
    with pytest.raises(ValueError):
        split_label(parse_cycles("(1,2)", 4))


def _random_split_element(rng, n):
    """A random even permutation whose cycle type has distinct odd parts."""
    candidates = [
        p
        for p in (Partition([n]), Partition([n - 1, 1]), Partition([n - 4, 3, 1]))
        if all(x >= 1 for x in p.parts) and has_distinct_odd_parts(p)
    ]
    base = canonical_of_type(rng.choice(candidates))
    return base.conjugate_by(random_perm(rng, n))


def test_split_label_conjugation_invariance_and_flip():
    rng = random.Random(7)
    for n in (5, 7, 9, 11):
        for _ in range(25):
            h = _random_split_element(rng, n)
            g = random_perm(rng, n)
            conj = h.conjugate_by(g)
            if g.is_even:
                assert split_label(conj) is split_label(h)
            else:
                assert split_label(conj) is not split_label(h)


def test_class_labels_counts():
    assert len(class_labels(6, GroupKind.SYM)) == 10  # p(6) - 1
    a5 = class_labels(5, GroupKind.ALT)
    texts = [l.text() for l in a5]
    assert "5+" in texts and "5-" in texts
    a4 = class_labels(4, GroupKind.ALT)
    assert [l.text() for l in a4] == ["3,1+", "3,1-", "2,2"]


def _reference_class_labels(n, group):
    """The vertices listed label by label from a fresh enumeration, as
    ``class_labels`` did before the per-degree type list."""
    out = []
    for p in enumerate_partitions(n):
        if p.parts == (1,) * n or group is GroupKind.ALT and (n - len(p)) % 2:
            continue
        if group is GroupKind.ALT and has_distinct_odd_parts(p):
            out += [ClassLabel(p, group, Split.PLUS), ClassLabel(p, group, Split.MINUS)]
        else:
            out.append(ClassLabel(p, group))
    return out


def test_class_labels_match_per_label_listing():
    # the same labels (type, group and split tag) in the same order, and the
    # S_n and A_n lists of one degree hold the same Partition objects
    for n in range(3, 25):
        sym, alt = class_labels(n, GroupKind.SYM), class_labels(n, GroupKind.ALT)
        assert sym == _reference_class_labels(n, GroupKind.SYM), n
        assert alt == _reference_class_labels(n, GroupKind.ALT), n
        shared = {id(label.cycle_type) for label in sym}
        assert all(id(label.cycle_type) in shared for label in alt), n


def test_class_label_validation():
    with pytest.raises(ValueError):
        ClassLabel(Partition([1, 1, 1]), GroupKind.SYM)  # identity
    with pytest.raises(ValueError):
        ClassLabel(Partition([2, 1]), GroupKind.ALT)  # odd type
    with pytest.raises(ValueError):
        ClassLabel(Partition([3]), GroupKind.ALT)  # missing split tag
    with pytest.raises(ValueError):
        ClassLabel(Partition([2, 2]), GroupKind.ALT, Split.PLUS)  # spurious split


def test_transitivity_and_primitivity():
    gens = symmetric_group_generators(6)
    assert is_transitive(gens, 6) and is_primitive(gens, 6)
    blocks = [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)]
    assert is_transitive(blocks, 4) and not is_primitive(blocks, 4)
