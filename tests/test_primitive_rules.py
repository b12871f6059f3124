import math

import pytest

from invgraph.arith import divisors, primes
from invgraph.partitions import Partition, enumerate_partitions, power_type
from invgraph.permutations import GroupKind
from invgraph.primitive_rules import (
    affine_excludes,
    excludes,
    families_of,
    jones_families,
    jordan_excludes,
    mueller_families,
    product_action_excludes,
    projective_cardinality_solutions,
    projective_line_excludes,
    theorem_verdict,
)
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    TypeProfile,
    degree_fingerprints,
    primitive_catalog,
)


def case_ids(tags):
    return {t.case_id for t in tags}


def test_jordan_excludes_examples():
    n = 9
    assert jordan_excludes(Partition([3] + [1] * (n - 3)))
    # two equal coprime cycles power down to one cycle with many fixed points
    assert jordan_excludes(Partition([2, 2, 9]))  # degree 13, i=2
    assert jordan_excludes(Partition([3, 3, 7]))  # degree 13, i=3
    assert not jordan_excludes(Partition([9]))
    assert not jordan_excludes(Partition([2, 2, 2]))


def _jordan_reference(t):
    # builds the cycle type of every power, as jordan_excludes once did
    for k in divisors(math.lcm(*t.parts)):
        pt = power_type(t, k)
        big = [p for p in pt.parts if p > 1]
        if len(big) == 1 and pt.multiplicity(1) >= 3:
            return True
    return False


def test_jordan_excludes_matches_power_type_reference():
    for n in range(1, 31):
        for t in enumerate_partitions(n):
            assert jordan_excludes(t) == _jordan_reference(t), t


def test_jones_families_examples():
    assert "J-1c" in case_ids(jones_families(11, 0))
    assert jones_families(7, 2) == []
    tags10 = jones_families(10, 2)
    assert case_ids(tags10) == {"J-3"} and tags10[0].parameters == (("q", 9),)
    assert case_ids(jones_families(7, 0)) == {"J-1a", "J-1b"}
    assert jones_families(9, 3) == []
    with pytest.raises(ValueError):
        jones_families(8, 7)


def test_mueller_families_examples():
    assert "M-3i" in case_ids(mueller_families(22, 11))
    ids16 = case_ids(mueller_families(16, 8))
    assert {"M-1e-iv", "M-1e-v", "M-1e-vi"} <= ids16
    assert case_ids(mueller_families(12, 2)) == {"M-3h"}
    assert "M-2a" in case_ids(mueller_families(9, 3))
    assert "M-3b" in case_ids(mueller_families(10, 5))


def test_affine_excludes_examples():
    # a power fixing three points rules out every affine group on 2^m points
    assert affine_excludes(Partition([3, 5]), 2, 3)
    assert not affine_excludes(Partition([1] * 8), 2, 3)
    n = 16
    w = Partition([3, 3] + [2] * 5)
    assert affine_excludes(w, 2, 4)
    with pytest.raises(ValueError):
        affine_excludes(Partition([4, 4]), 3, 2)


def test_projective_line_excludes_examples():
    assert not projective_line_excludes(Partition([7 - 1, 1, 1]), 7, semilinear=False)
    n = 26
    z = Partition([14, 3, 2] + [1] * 7)
    assert projective_line_excludes(z, 25, semilinear=True)
    w = Partition([2, 2, 4])  # fixes 4 points at the square, 4 >= 3
    assert projective_line_excludes(w, 7, semilinear=False)
    with pytest.raises(ValueError):
        projective_line_excludes(Partition([5, 1]), 7, semilinear=True)


def test_product_action_excludes_examples():
    w25 = Partition([9, 6, 6, 1, 1, 1, 1])
    assert product_action_excludes(w25)
    assert not product_action_excludes(Partition([25]))
    w16 = Partition([13, 1, 1, 1])
    assert product_action_excludes(w16)
    with pytest.raises(ValueError):
        product_action_excludes(Partition([5, 1]))


def test_product_action_exclusion_against_enumeration(cache_dir):
    # brute force the 384-element product-action group on 16 points
    from invgraph.subgroup_membership import _product_action_spec
    from invgraph.permutations import closure_images, cycle_type_of_images

    spec = _product_action_spec(4)
    elements = closure_images([g.images for g in spec.generators], 16)
    assert len(elements) == 1152  # S4 x S4 x C2
    realized = {cycle_type_of_images(e) for e in elements}
    from invgraph.partitions import enumerate_partitions

    for t in enumerate_partitions(16):
        if product_action_excludes(t):
            assert t.parts not in realized, t


def test_projective_cardinality_solutions():
    assert projective_cardinality_solutions(13) == [(3, 3)]
    assert projective_cardinality_solutions(7) == [(2, 3)]
    assert set(projective_cardinality_solutions(31)) == {(5, 3), (2, 5)}
    assert projective_cardinality_solutions(19) == []


def test_even_degree_double_prime_forces_dimension_two():
    for p in primes(5000):
        if p == 2:
            continue
        assert all(d == 2 for _, d in projective_cardinality_solutions(2 * p)), p


def test_catalog_consistency_with_families(cache_dir):
    # every realized full-cycle-with-fixed-points or two-cycle type must be
    # predicted by the classification lists
    for n in range(5, 14):
        for fp in degree_fingerprints(n, cache_dir):
            for t in fp.types:
                part = Partition(t)
                if part.parts == (1,) * n:
                    continue
                big = [p for p in part.parts if p > 1]
                if len(big) == 1:
                    k = part.multiplicity(1)
                    if k <= n - 2:
                        assert jones_families(n, k), (fp.name, t)
                elif len(part.parts) == 2:
                    assert mueller_families(n, min(part.parts)), (fp.name, t)


def test_jordan_soundness_against_catalog(cache_dir):
    from invgraph.partitions import enumerate_partitions

    for n in sorted(EXACT_DEGREES):
        realized = set()
        for fp in degree_fingerprints(n, cache_dir):
            realized.update(fp.types)
        for t in enumerate_partitions(n):
            if jordan_excludes(t):
                assert t.parts not in realized, (n, t)


def test_family_predicates_admit_every_catalog_group(cache_dir):
    # a type h of G with one nontrivial cycle, or two cycles, has G among its
    # classified families: some tag of h must let every type of G through
    checked = 0
    for n in sorted(EXACT_DEGREES):
        for fp in degree_fingerprints(n, cache_dir):
            types = [Partition(g) for g in fp.types]
            for h in types:
                if len(h.parts) != 2 and sum(p > 1 for p in h.parts) != 1:
                    continue
                assert any(
                    all(excludes(tag, g) is not True for g in types) for tag in families_of(h)
                ), (fp.name, h)
                checked += 1
    assert checked == 97


# per exact degree, the rule-open vertex pairs, then those the theorem tier
# calls edges by Jordan's test and by the families, then those it leaves open
_THEOREM_TIER_PAIRS = {
    GroupKind.SYM: {
        3: (1, 0, 0, 1), 4: (1, 0, 0, 1), 5: (4, 3, 0, 1), 6: (2, 0, 0, 2),
        7: (13, 11, 0, 2), 8: (9, 7, 0, 2), 9: (26, 21, 1, 4), 10: (20, 12, 4, 4),
        11: (74, 66, 1, 7), 12: (45, 37, 1, 7), 13: (157, 140, 3, 14),
        17: (564, 506, 50, 8), 19: (1013, 904, 103, 6),
    },
    GroupKind.ALT: {
        3: (1, 0, 0, 1), 4: (2, 0, 0, 2), 5: (5, 0, 0, 5), 6: (4, 0, 2, 2),
        7: (13, 4, 2, 7), 8: (17, 11, 0, 6), 9: (15, 9, 0, 6), 10: (28, 16, 10, 2),
        11: (62, 33, 2, 27), 12: (59, 33, 10, 16), 13: (123, 69, 3, 51),
        17: (418, 269, 106, 43), 19: (719, 476, 232, 11),
    },
}


def test_theorem_tier_edges_are_exact_edges(graph, cache_dir):
    # every unordered pair of vertices whose rule masks do not meet: an edge
    # by Jordan's test or by the families must be an edge of the exact graph
    for group, expected in _THEOREM_TIER_PAIRS.items():
        for n in sorted(EXACT_DEGREES):
            g = graph(n, group)
            profile = TypeProfile(n, group is GroupKind.SYM)
            types = [v.cycle_type for v in g.vertices]
            masks = [profile.rule_mask(t.parts) for t in types]
            counts = [0, 0, 0, 0]
            for i, a in enumerate(types):
                for j in range(i + 1, len(types)):
                    if masks[i] & masks[j]:
                        continue
                    b = types[j]
                    counts[0] += 1
                    if jordan_excludes(a) or jordan_excludes(b):
                        assert theorem_verdict(a, b) is None
                        counts[1] += 1
                    elif theorem_verdict(a, b) is None:
                        counts[2] += 1
                    else:
                        counts[3] += 1
                        continue
                    assert g.adjacency[i] >> j & 1, (n, group, a, b)
            assert tuple(counts) == expected[n], (n, group)


def test_affine_soundness_against_catalog(cache_dir):
    from invgraph.partitions import enumerate_partitions

    targets = {8: ("AGL(3,2)", 2, 3), 9: ("AGL(2,3)", 3, 2)}
    for n, (name, p, m) in targets.items():
        fp = next(f for f in degree_fingerprints(n, cache_dir) if f.name == name)
        for t in enumerate_partitions(n):
            if affine_excludes(t, p, m):
                assert t.parts not in fp.types, (n, t)


def test_projective_line_soundness_against_catalog(cache_dir):
    from invgraph.partitions import enumerate_partitions

    for q, n in ((8, 9), (9, 10)):
        fp = next(
            f for f in degree_fingerprints(n, cache_dir) if f.name == f"PGammaL(2,{q})"
        )
        for t in enumerate_partitions(n):
            if projective_line_excludes(t, q, semilinear=True):
                assert t.parts not in fp.types, (q, t)
            if projective_line_excludes(t, q, semilinear=False):
                pgl_name = "PGL(2,9)" if q == 9 else "PSL(2,8)"
                pgl = next(
                    f for f in degree_fingerprints(n, cache_dir) if f.name == pgl_name
                )
                assert t.parts not in pgl.types, (q, t)


def test_odd_cycle_count_parity_in_semilinear_group(cache_dir):
    # enumerated check on the 1440-element group on 10 points: an even fixed
    # count forces an even number of i-cycles for every odd i
    from invgraph.permutations import closure_images
    from invgraph.subgroup_membership import primitive_catalog

    spec = next(g for g in primitive_catalog(10).groups if g.name == "PGammaL(2,9)")
    elements = closure_images([g.images for g in spec.generators], 10)
    assert len(elements) == 1440
    from invgraph.permutations import cycle_type_of_images

    for e in elements:
        t = Partition(cycle_type_of_images(e))
        if t.multiplicity(1) % 2 == 0:
            for i in set(t.parts):
                if i % 2 == 1:
                    assert t.multiplicity(i) % 2 == 0, t
