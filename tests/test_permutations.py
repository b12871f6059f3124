import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invgraph import permutations
from invgraph.partitions import Partition, has_distinct_odd_parts
from invgraph.permutations import (
    ClassLabel,
    ClosureCapExceeded,
    GroupKind,
    Permutation,
    Split,
    alternating_group_generators,
    canonical_of_type,
    chain_order,
    class_labels,
    class_representatives,
    closure_images,
    conjugator,
    format_cycles,
    is_primitive,
    is_transitive,
    parse_cycles,
    split_label,
    stabilizer_chain,
    symmetric_group_generators,
)
from invgraph.subgroup_membership import EXACT_DEGREES, primitive_catalog


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


@pytest.mark.parametrize(
    "name,generators,degree,classes", CLASS_COUNTS, ids=[c[0] for c in CLASS_COUNTS]
)
def test_class_representatives_match_published_class_counts(name, generators, degree, classes):
    gens = [g.images for g in generators()]
    reps = list(class_representatives(stabilizer_chain(gens, degree), gens, degree))
    assert len(reps) == classes


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
            broken.append(fewer)
        more = [dict(t) for t in chain]
        more[level][degree] = bytes(range(degree))
        broken.append(more)
    for wrong in broken:
        with pytest.raises(RuntimeError, match="class walk covered"):
            list(class_representatives(wrong, gens, degree))


@pytest.mark.parametrize(
    "name,degree,level,point,order,size",
    [
        # the classes the walk finds (1, 21, 56, 24 and 24) sum to 126
        ("PSL(3,2)", 7, -1, 4, 126, 56),
        # 42 divides 126, but 126 / 42 is no multiple of the element order 4
        ("PSL(3,2)", 7, -1, 5, 126, 42),
        # 100 // 15 is a multiple of the element order 2, but 15 does not
        # divide 100; the classes found (15, 1, 24, 20, 10, 30) sum to 100
        ("PGL(2,5)", 6, 0, 5, 100, 15),
    ],
)
def test_class_walk_checks_each_class_against_the_chain_order(
    name, degree, level, point, order, size
):
    gens = [g.images for g in _catalog_generators(degree, name)]
    chain = stabilizer_chain(gens, degree)
    del chain[level][point]
    assert chain_order(chain) == order
    with pytest.raises(RuntimeError, match=f"class walk covered a class of {size} elements"):
        list(class_representatives(chain, gens, degree))


def test_class_walk_reads_few_products_of_m12(monkeypatch):
    # small classes are powers of large ones, so the walk finds every class
    # long before it has read the chain's 95,040 products
    read = []
    chain_elements = permutations._chain_elements

    def counted(chain, degree):
        for x in chain_elements(chain, degree):
            read.append(x)
            yield x

    monkeypatch.setattr(permutations, "_chain_elements", counted)
    gens = [g.images for g in _catalog_generators(12, "M12")]
    chain = stabilizer_chain(gens, 12)
    assert chain_order(chain) == 95040
    assert len(list(class_representatives(chain, gens, 12))) == 15
    assert 0 < len(read) <= 1000


def test_stabilizer_chain_orders_of_symmetric_and_alternating_groups():
    for n in range(1, 9):
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
        assert len(list(class_representatives(early, gens, n))) == len(
            list(class_representatives(full, gens, n))
        ), name


def test_stabilizer_chain_of_the_identity():
    for n in (1, 4, 9):
        identity = tuple(range(n))
        assert stabilizer_chain([identity], n) == []
        assert chain_order([]) == 1
        assert list(class_representatives([], [identity], n)) == [bytes(identity)]


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
