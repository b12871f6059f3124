import collections
import gc
import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from invgraph import subgroup_membership
from invgraph.graph_engine import build_graph
from invgraph.arith import divisors, proper_block_sizes
from invgraph.partitions import (
    Partition,
    enumerate_partitions,
    even_class_partitions,
    has_distinct_odd_parts,
    is_even_type,
    is_partial_sum,
    partial_sum_mask,
)
from invgraph.permutations import (
    GroupKind,
    Permutation,
    Split,
    chain_order,
    closure_images,
    format_cycles,
    is_primitive,
    is_transitive,
    split_label,
    stabilizer_chain,
)
from invgraph.primitive_rules import FamilyTag, Open
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    CatalogAbsent,
    ClassLabel,
    Fingerprint,
    Sharing,
    TypeProfile,
    _row_fingerprints,
    _split_sign,
    class_labels,
    degree_fingerprints,
    primitive_catalog,
    shares_subgroup,
    type_labels,
    type_profile,
    wreath_member,
    wreath_member_oracle,
    wreath_product_generators,
)

EXPECTED_CATALOG = {
    3: [],
    4: [],
    5: ["C5", "D10", "AGL(1,5)"],
    6: ["PSL(2,5)", "PGL(2,5)"],
    7: ["C7", "D14", "7:3", "AGL(1,7)", "PSL(3,2)"],
    8: ["AGL(1,8)", "AGammaL(1,8)", "PSL(2,7)", "PGL(2,7)", "AGL(3,2)"],
    9: [
        "E9:C4", "AGL(1,9)", "E9:Q8", "AGammaL(1,9)", "S3wrS2(product)",
        "ASL(2,3)", "AGL(2,3)", "PSL(2,8)", "PGammaL(2,8)",
    ],
    10: [
        "A5(2-sets)", "S5(2-sets)", "PSL(2,9)", "PGL(2,9)", "PSigmaL(2,9)",
        "M10", "PGammaL(2,9)",
    ],
    11: ["C11", "D22", "11:5", "AGL(1,11)", "PSL(2,11)@11", "M11"],
    12: ["PSL(2,11)@12", "PGL(2,11)@12", "M11@12", "M12"],
    13: ["C13", "D26", "13:3", "13:4", "13:6", "AGL(1,13)", "PSL(3,3)"],
    17: [
        "C17", "D34", "17:4", "17:8", "AGL(1,17)", "PSL(2,16)",
        "PSigmaL(2,16)", "PGammaL(2,16)",
    ],
    19: ["C19", "D38", "19:3", "19:6", "19:9", "AGL(1,19)"],
}


def test_intransitive_verdict_examples(cache_dir):
    def family(t1, t2):
        # two even types are asked in A_n, where parity cannot answer first
        group = GroupKind.ALT if is_even_type(t1) and is_even_type(t2) else GroupKind.SYM
        c1, c2 = (type_labels(t, group)[0] for t in (t1, t2))
        verdict = shares_subgroup(c1, c2, cache_dir)
        return verdict and verdict.family

    assert family(Partition([11, 1]), Partition([11, 1])) == "intransitive"
    assert family(Partition([12]), Partition([6, 3, 2, 1])) != "intransitive"
    assert family(Partition([6, 5, 1]), Partition([9, 3])) != "intransitive"
    with pytest.raises(ValueError):
        family(Partition([3]), Partition([4]))


def test_wreath_member_examples():
    assert wreath_member(Partition([10, 2]), 2)
    assert not wreath_member(Partition([9, 3]), 2)
    assert wreath_member(Partition([10, 3, 2, 1, 1, 1]), 6)  # degree 18
    assert wreath_member(Partition([2, 2, 2]), 2)
    assert wreath_member(Partition([6]), 2)
    assert not wreath_member(Partition([5, 1]), 2)


def test_wreath_member_two_part_rule():
    # membership of (i, n-i) in blocks of size m: m | i or (n/m) | i
    for n in range(4, 61):
        for m in proper_block_sizes(n):
            for i in range(1, n // 2 + 1):
                expected = i % m == 0 or i % (n // m) == 0
                assert wreath_member(Partition([n - i, i]), m) == expected, (n, m, i)


def test_wreath_product_generators_are_distinct():
    # for m = 2 the m-cycle is the transposition; for k = 2 the block
    # rotation is the block swap
    for m in range(1, 13):
        for k in range(1, 12 // m + 1):
            gens = wreath_product_generators(m, k)
            assert len(set(gens)) == len(gens), (m, k)


def _wreath_one_group_search(t, m):
    # the block search one group at a time, with no bulk step, kept as a
    # reference: split the parts into groups, each with a block-cycle length
    # d dividing its parts and sum(part / d) == m, the d's summing to n / m
    counts = tuple(sorted({(v, t.parts.count(v)) for v in set(t.parts)}, reverse=True))
    memo = {}

    def complete_group(counts_now, d, need, start):
        if need == 0:
            yield counts_now
            return
        for idx in range(start, len(counts_now)):
            v, c = counts_now[idx]
            if v % d or v // d > need:
                continue
            for take in range(min(c, need // (v // d)), 0, -1):
                reduced = list(counts_now)
                if c - take:
                    reduced[idx] = (v, c - take)
                    next_start = idx + 1
                else:
                    del reduced[idx]
                    next_start = idx
                yield from complete_group(tuple(reduced), d, need - take * (v // d), next_start)

    def solve(counts_now, blocks_left):
        if not counts_now:
            return blocks_left == 0
        if blocks_left <= 0:
            return False
        key = (counts_now, blocks_left)
        if key not in memo:
            v, c = counts_now[0]
            removed = ((v, c - 1),) + counts_now[1:] if c > 1 else counts_now[1:]
            memo[key] = any(
                solve(rest, blocks_left - d)
                for d in divisors(v)
                if d <= blocks_left and v // d <= m
                for rest in complete_group(removed, d, m - v // d, 0)
            )
        return memo[key]

    return solve(counts, t.n // m)


def test_wreath_member_matches_one_group_search():
    # every partition of n <= 24 at every proper block size; the uncached
    # function, so the process-wide cache stays as small as the other tests
    # leave it
    checks = 0
    for n in range(4, 25):
        for m in proper_block_sizes(n):
            for t in enumerate_partitions(n):
                assert wreath_member.__wrapped__(t, m) == _wreath_one_group_search(t, m), (t, m)
                checks += 1
    assert checks == 18894


def test_wreath_member_leaves_no_reference_cycles():
    # reference counting alone frees each search's state, so the cyclic
    # collector finds nothing after a batch of block decisions; fresh
    # profiles make them, since ``wreath_member`` reads the shared profile,
    # which earlier calls may have filled
    degrees = {n: list(enumerate_partitions(n)) for n in range(4, 17)}
    gc.collect()
    gc.disable()
    try:
        for n, types in degrees.items():
            profile = TypeProfile(n, True)
            for t in types:
                profile.rule_mask(t.parts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_wreath_member_shared_block_cycles():
    cases = [
        # a part divisible by m may have to share its block cycle: 25, 20 and
        # 5 share one cycle of five blocks (5 + 4 + 1 = 10), while 25 and 5
        # alone fit no three blocks, so splitting 20 off is no shortcut
        ((25, 20, 5), 10, True),
        ((25, 5), 10, False),
        # the bulk step fires (each 4 a cycle of two blocks) and fails, and
        # the one-group search must still say no
        ((4, 4, 4, 4, 3, 1), 2, False),
        # 9, 6 and 3 share one cycle of three blocks (3 + 2 + 1 = 6), so the
        # part 6, which fills a block alone, cannot be dropped: (9, 3) fills
        # no two blocks of size 6
        ((9, 6, 3), 6, True),
        ((9, 3), 6, False),
    ]
    for parts, m, expected in cases:
        t = Partition(parts)
        assert wreath_member(t, m) == _wreath_one_group_search(t, m) == expected, parts


def test_two_block_and_pair_rules_match_one_group_search():
    # the rules for k = 2 blocks and for blocks of size m = 2, on every
    # partition of even n <= 30
    checks = 0
    for n in range(4, 31, 2):
        for t in enumerate_partitions(n):
            for m in {2, n // 2}:
                assert wreath_member.__wrapped__(t, m) == _wreath_one_group_search(t, m), (t, m)
                checks += 1
    assert checks == 31735


def _profile_block_bits(profile, t):
    bits = profile.rule_mask(t.parts) >> profile.block_shift
    assert bits >> len(profile.block_sizes) == 0, t
    return [bool(bits >> i & 1) for i in range(len(profile.block_sizes))]


def test_rule_mask_block_bits_match_one_group_search():
    # the block bits of a fresh S_n profile, decided by rule where one
    # applies (two blocks, blocks of size two, k | g, m | g, at most two
    # parts) and by the search elsewhere, against the reference search,
    # which has no rules
    checks = 0
    for n in range(3, 25):
        profile = TypeProfile(n, True)
        for t in enumerate_partitions(n):
            want = [_wreath_one_group_search(t, m) for m in profile.block_sizes]
            assert _profile_block_bits(profile, t) == want, t
            checks += len(want)
    assert checks == 18894
    # every type of one or two parts up to n = 360
    for n in range(25, 361):
        profile = TypeProfile(n, True)
        for i in range(n // 2 + 1):
            t = Partition([n - i, i] if i else [n])
            want = [_wreath_one_group_search(t, m) for m in profile.block_sizes]
            assert _profile_block_bits(profile, t) == want, t
    # (9, 6): at m = 5 only k = 3 divides the gcd 3, and at m = 3 only m does
    profile = TypeProfile(15, True)
    t = Partition([9, 6])
    bits = _profile_block_bits(profile, t)
    for m in (5, 3):
        k = 15 // m
        assert (math.gcd(9, 6) % k == 0) != (math.gcd(9, 6) % m == 0), m
        assert bits[profile.block_sizes.index(m)] and _wreath_one_group_search(t, m), m


def test_alternating_rule_mask_is_the_symmetric_mask_without_parity():
    # an A_n profile reads the rule bits of its degree's S_n profile and drops
    # bit 0, the parity bit; its partial-sum bits are the type's own
    for n in sorted(EXACT_DEGREES | {14, 15, 16, 21}):
        sym, alt = TypeProfile(n, True), TypeProfile(n, False)
        sums = (1 << sym.block_shift) - 2
        for t in even_class_partitions(n):
            want = sym.rule_mask(t.parts)
            assert want & 1, t
            assert alt.rule_mask(t.parts) == want & ~1, t
            assert alt.rule_mask(t.parts) & (sums | 1) == partial_sum_mask(t) & sums, t


def test_wreath_oracle_small_degrees():
    # full agreement at degree <= 10 here; degree 12 runs in the acceptance suite
    for n in (4, 6, 8, 9, 10):
        for m in proper_block_sizes(n):
            for t in enumerate_partitions(n):
                assert wreath_member(t, m) == wreath_member_oracle(t, m), (t, m)


def test_half_sum_against_even_partitions():
    # an even-n type reaching n/2 shares the two-block wreath group with
    # every type whose parts are all even
    for n in (4, 6, 8, 10, 12):
        for z in enumerate_partitions(n):
            if not is_partial_sum(z, n // 2):
                continue
            for w in enumerate_partitions(n):
                if any(p % 2 for p in w.parts):
                    continue
                assert wreath_member(z, n // 2) and wreath_member(w, n // 2)


def test_catalog_inventory():
    for n, names in EXPECTED_CATALOG.items():
        catalog = primitive_catalog(n)
        assert [g.name for g in catalog.groups] == names


# primitive groups of each degree, A_n and S_n included (OEIS A000019;
# Dixon & Mortimer, Permutation Groups, Appendix B)
PRIMITIVE_GROUP_COUNTS = {
    3: 2, 4: 2, 5: 5, 6: 4, 7: 7, 8: 7, 9: 11, 10: 9, 11: 8, 12: 6, 13: 9, 17: 10, 19: 8,
}


def test_catalog_counts_match_the_published_counts():
    assert EXACT_DEGREES <= PRIMITIVE_GROUP_COUNTS.keys()
    for n in sorted(EXACT_DEGREES):
        assert len(primitive_catalog(n).groups) + 2 == PRIMITIVE_GROUP_COUNTS[n], n


def test_catalog_specs_are_pinned():
    # sha256 over every group in catalog order of its name, degree, family,
    # generator images in order and order; the cache pin above sees only
    # names, orders and sorted generator images
    digest = hashlib.sha256()
    for spec in _all_catalog_groups():
        images = [g.images for g in spec.generators]
        record = (spec.name, spec.degree, spec.family.value, images, spec.expected_order)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "0bf33a77927a6f2393d50027bb7c95f2e9b612c36bc1157d902f949a15df2746"
    )


def test_catalog_groups_differ_in_order_or_fingerprint(cache_dir):
    # a group listed twice would pass the count test while another group of
    # its degree is missing; equal orders occur (168 at 8, 72 at 9, 720 at
    # 10), so the fingerprints must tell those groups apart
    for n in sorted(EXACT_DEGREES):
        seen = {}
        for fp in degree_fingerprints(n, cache_dir):
            key = (fp.order, frozenset(fp.types.items()))
            assert key not in seen, (n, seen.get(key), fp.name)
            seen[key] = fp.name


def test_catalog_absent_outside_supported_degrees():
    for n in (14, 20):
        with pytest.raises(CatalogAbsent):
            primitive_catalog(n)
    with pytest.raises(CatalogAbsent):
        degree_fingerprints(14)


def test_catalog_groups_are_primitive_and_proper(cache_dir):
    for n in sorted(EXACT_DEGREES):
        for spec in primitive_catalog(n).groups:
            assert is_transitive(spec.generators, n), spec.name
            assert is_primitive(spec.generators, n), spec.name
            assert spec.expected_order < math.factorial(n) // 2, spec.name
        # order re-verified against the closure inside fingerprinting
        degree_fingerprints(n, cache_dir)


def test_fingerprint_examples(cache_dir):
    fps5 = {fp.name: fp for fp in degree_fingerprints(5, cache_dir)}
    agl = fps5["AGL(1,5)"]
    assert agl.types.keys() == {
        (1, 1, 1, 1, 1), (2, 2, 1), (4, 1), (5,),
    }
    c5 = fps5["C5"]
    assert c5.types[(5,)] == {Split.PLUS, Split.MINUS}
    fps11 = {fp.name: fp for fp in degree_fingerprints(11, cache_dir)}
    assert (2, 2, 2, 2, 1, 1, 1) in fps11["M11"].types


def test_fingerprint_split_symmetry_for_groups_with_odd_elements(cache_dir):
    # a subgroup normalized by an odd permutation meets both split classes of
    # any type it contains; containing an odd element is the easy certificate
    for n in sorted(EXACT_DEGREES):
        fingerprints = {fp.name: fp for fp in degree_fingerprints(n, cache_dir)}
        for spec in primitive_catalog(n).groups:
            elements = closure_images([g.images for g in spec.generators], n)
            has_odd = any(
                not is_even_type(Partition([len(c) for c in _cycles(e)]))
                for e in elements
            )
            if not has_odd:
                continue
            for inc in fingerprints[spec.name].types.values():
                assert inc in (frozenset(), {Split.PLUS, Split.MINUS}), spec.name


def _cycles(images):
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = True
            point = images[point]
        out.append(cycle)
    return out


def _all_catalog_groups():
    return [spec for n in sorted(EXACT_DEGREES) for spec in primitive_catalog(n).groups]


def test_closure_images_matches_reference_on_catalog(reference_closure):
    for spec in _all_catalog_groups():
        if spec.degree > 13:
            continue
        gens = [g.images for g in spec.generators]
        elements = closure_images(gens, spec.degree)
        assert elements == reference_closure(gens, spec.degree), spec.name


def _reference_fingerprint(spec, elements):
    # one cycle-type classification and split test per element
    types = {}
    for images in elements:
        t = tuple(sorted((len(c) for c in _cycles(images)), reverse=True))
        inc = types.setdefault(t, set())
        if has_distinct_odd_parts(Partition(t)) and t != (1,) * spec.degree:
            if len(inc) < 2:
                inc.add(split_label(Permutation(images)))
    return Fingerprint(
        spec.name, len(elements), {t: frozenset(inc) for t, inc in types.items()}
    )


def test_compute_fingerprint_matches_per_element_reference(reference_closure):
    for spec in _all_catalog_groups():
        elements = reference_closure([g.images for g in spec.generators], spec.degree)
        (fp,) = _row_fingerprints((spec,))
        assert fp == _reference_fingerprint(spec, elements), spec.name


def test_cold_fingerprints_read_normal_subgroups_off_their_overgroups(
    tmp_path, monkeypatch, reference_closure
):
    # a group normalized by a larger walked group of its row takes its
    # fingerprint from that group's classes; a group contained in a larger
    # one without being normal in it runs its own walk
    names = {tuple(bytes(g.images) for g in s.generators): s.name for s in _all_catalog_groups()}
    walked = []
    walk = subgroup_membership._class_levels

    def counted(chain, degree):
        walked.append(names[tuple(chain.strong[0])])
        return walk(chain, degree)

    monkeypatch.setattr(subgroup_membership, "_class_levels", counted)
    where = str(tmp_path / "cache")
    for n in sorted(EXACT_DEGREES):
        for spec, fp in zip(primitive_catalog(n).groups, degree_fingerprints(n, where)):
            elements = reference_closure([g.images for g in spec.generators], spec.degree)
            assert fp == _reference_fingerprint(spec, elements), spec.name
    assert len(walked) == 23
    assert {"AGammaL(1,8)", "AGammaL(1,9)", "PSL(2,11)@11", "M11@12"} <= set(walked)


def test_derived_fingerprints_check_the_class_equation(tmp_path, monkeypatch):
    # without the identity among AGL(1,7)'s representatives, its classes
    # inside its normal subgroup 7:3 count one element short
    walk = subgroup_membership._class_levels

    def dropping(chain, degree):
        *levels, top = walk(chain, degree)
        return iter(levels + [top[1:]])

    monkeypatch.setattr(subgroup_membership, "_class_levels", dropping)
    message = r"^7:3: the classes of AGL\(1,7\) inside it count 20 elements, not 21$"
    with pytest.raises(RuntimeError, match=message):
        degree_fingerprints(7, str(tmp_path / "cache"))
    assert not (tmp_path / "cache" / "fingerprints-deg7.json").exists()


def test_stabilizer_chain_matches_reference_closure_on_catalog(reference_closure):
    # each transversal maps its base point to every orbit point with an
    # element of the group that fixes the earlier base points
    for spec in _all_catalog_groups():
        gens = [g.images for g in spec.generators]
        elements = reference_closure(gens, spec.degree)
        chain = stabilizer_chain(gens, spec.degree)
        assert chain_order(chain) == len(elements), spec.name
        fixed = []
        for transversal in chain:
            (base,) = [y for y, u in transversal.items() if u == bytes(range(spec.degree))]
            for y, u in transversal.items():
                assert u[base] == y and u in elements, spec.name
                assert all(u[b] == b for b in fixed), spec.name
            fixed.append(base)


def test_stabilizer_chain_orders_of_wreath_products():
    for m in range(1, 13):
        for k in range(1, 12 // m + 1):
            gens = [g.images for g in wreath_product_generators(m, k)]
            order = chain_order(stabilizer_chain(gens, m * k))
            assert order == math.factorial(m) ** k * math.factorial(k), (m, k)


def test_wreath_oracle_refuses_a_group_above_the_cap_before_enumerating():
    # S_7 wr S_2 has 50,803,200 elements; the closed-form order rules it out
    with pytest.raises(ValueError) as info:
        wreath_member_oracle(Partition([7, 7]), 7)
    assert type(info.value) is ValueError
    assert f"order {math.factorial(7) ** 2 * 2}," in str(info.value)


def test_split_sign_matches_split_label():
    # every permutation of a splitting type at degrees 4, 5 and 8: the
    # types (3,1), (5), and (7,1) and (5,3)
    for n in (4, 5, 8):
        checked = 0
        for images in itertools.permutations(range(n)):
            cycles = _cycles(images)
            t = tuple(sorted(map(len, cycles), reverse=True))
            if t != (1,) * n and has_distinct_odd_parts(Partition(t)):
                assert _split_sign(cycles) is split_label(Permutation(images)), images
                checked += 1
        assert checked == {4: 8, 5: 24, 8: 5760 + 2688}[n]


def test_compute_fingerprint_rejects_wrong_chain_order():
    (spec,) = [g for g in primitive_catalog(7).groups if g.name == "PSL(3,2)"]
    with pytest.raises(RuntimeError, match="chain order 168 != expected 167"):
        _row_fingerprints((spec._replace(expected_order=167),))


def test_fingerprint_cache_bytes_are_pinned(tmp_path):
    # sha256 of every fingerprints-deg{n}.json written into an empty cache,
    # concatenated in degree order (degrees 3 and 4 have no catalog groups,
    # so no file); computed with the per-element fingerprint
    where = str(tmp_path / "cache")
    for n in sorted(EXACT_DEGREES):
        degree_fingerprints(n, where)
    digest = hashlib.sha256()
    for n in sorted(EXACT_DEGREES):
        path = tmp_path / "cache" / f"fingerprints-deg{n}.json"
        if path.exists():
            digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "19a86dbc4a6e25643de4572c3f9506af66c2f2b2033051e3bbdb501a211e24a9"
    )


def test_fingerprint_cache_roundtrip(tmp_path):
    where = str(tmp_path / "cache")
    first = degree_fingerprints(7, where)
    path = tmp_path / "cache" / "fingerprints-deg7.json"
    assert path.exists()
    # corrupt, then force a reload through a fresh cache key
    data = json.loads(path.read_text())
    data["digest"] = "stale"
    path.write_text(json.dumps(data))
    degree_fingerprints.cache_clear()
    second = degree_fingerprints(7, where)
    assert first == second
    assert json.loads(path.read_text())["digest"] != "stale"


def test_shares_subgroup_examples(cache_dir):
    # full-cycle classes at prime degree stay inside the one-dimensional
    # affine chain; in the alternating graph the verdict is that family,
    # in the symmetric graph the (cheaper) parity check fires first
    for n in (5, 7, 11):
        full_sym = ClassLabel(Partition([n]), GroupKind.SYM)
        verdict = shares_subgroup(full_sym, full_sym, cache_dir)
        assert verdict is not None and verdict.family == "alternating"
        plus = ClassLabel(Partition([n]), GroupKind.ALT, Split.PLUS)
        minus = ClassLabel(Partition([n]), GroupKind.ALT, Split.MINUS)
        verdict = shares_subgroup(plus, minus, cache_dir)
        assert verdict is not None and verdict.family == "primitive"
    # a three-cycle class meets no nontrivial primitive group, so in the
    # alternating graph it is joined to the full-cycle classes
    n = 7
    three = ClassLabel(Partition([3] + [1] * (n - 3)), GroupKind.ALT)
    for split in (Split.PLUS, Split.MINUS):
        full = ClassLabel(Partition([n]), GroupKind.ALT, split)
        assert shares_subgroup(three, full, cache_dir) is None


def test_shares_subgroup_is_symmetric(cache_dir):
    for n, group in ((7, GroupKind.SYM), (8, GroupKind.ALT)):
        labels = class_labels(n, group)
        for a in labels:
            for b in labels:
                left = shares_subgroup(a, b, cache_dir)
                right = shares_subgroup(b, a, cache_dir)
                assert (left is None) == (right is None)


def test_shares_subgroup_input_validation(cache_dir):
    a = ClassLabel(Partition([3]), GroupKind.SYM)
    b = ClassLabel(Partition([4]), GroupKind.SYM)
    with pytest.raises(ValueError, match="^degree mismatch$"):
        shares_subgroup(a, b, cache_dir)
    c = ClassLabel(Partition([2, 2]), GroupKind.ALT)
    d = ClassLabel(Partition([2, 1, 1]), GroupKind.SYM)
    with pytest.raises(ValueError, match="^group mismatch$"):
        shares_subgroup(c, d, cache_dir)
    # degree and group both differ: the degree is reported, whichever label
    # comes first and whether or not it has had a verdict before
    e = ClassLabel(Partition([3]), GroupKind.ALT, Split.PLUS)
    for pair in ((e, b), (b, e), (c, a), (a, c)):
        with pytest.raises(ValueError, match="^degree mismatch$"):
            shares_subgroup(*pair, cache_dir)
    # a first verdict that raises CatalogAbsent leaves both labels able to
    # answer the pairs the rules decide
    x = ClassLabel(Partition([14]), GroupKind.SYM)
    y = ClassLabel(Partition([13, 1]), GroupKind.SYM)
    with pytest.raises(CatalogAbsent, match="; not 14$"):
        shares_subgroup(x, y, cache_dir)
    assert shares_subgroup(x, x, cache_dir) == Sharing("imprimitive", "m=2")
    assert shares_subgroup(y, y, cache_dir) == Sharing("alternating", "A_14")
    z = ClassLabel(Partition([12, 1, 1]), GroupKind.SYM)
    assert shares_subgroup(y, z, cache_dir) == Sharing("intransitive", "i=1")
    with pytest.raises(ValueError, match="^degree mismatch$"):
        shares_subgroup(x, b, cache_dir)


def test_verdict_state_keeps_no_label_alive(cache_dir):
    # one rule-decided and one fingerprint-decided verdict, then the labels
    # are dropped: nothing the verdict keeps may refer to them
    labels = type_labels(Partition([7]), GroupKind.ALT)
    assert shares_subgroup(labels[0], labels[0], cache_dir) == Sharing("primitive", "C7")
    sym = type_labels(Partition([4, 3]), GroupKind.SYM)
    assert shares_subgroup(sym[0], sym[0], cache_dir) == Sharing("intransitive", "i=3")
    refs = [weakref.ref(label) for label in labels + sym]
    del labels, sym
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_value_types_keep_their_values(cache_dir):
    # reprs recorded from the frozen dataclasses these types were: the
    # verdict digest pin hashes the repr of each Sharing
    sym = ClassLabel(Partition([3, 2, 2]), GroupKind.SYM)
    assert repr(sym) == (
        "ClassLabel(cycle_type=Partition('3,2,2'), group=<GroupKind.SYM: 'sym'>,"
        " split=<Split.NONE: ''>)"
    )
    minus = ClassLabel(Partition([7]), GroupKind.ALT, Split.MINUS)
    assert repr(minus) == (
        "ClassLabel(cycle_type=Partition('7'), group=<GroupKind.ALT: 'alt'>,"
        " split=<Split.MINUS: '-'>)"
    )
    sharings = [
        Sharing("alternating", "A_7"),
        Sharing("intransitive", "i=3"),
        Sharing("imprimitive", "m=2"),
        Sharing("primitive", "PSL(3,2)'"),
    ]
    assert list(map(repr, sharings)) == [
        "Sharing(family='alternating', witness='A_7')",
        "Sharing(family='intransitive', witness='i=3')",
        "Sharing(family='imprimitive', witness='m=2')",
        "Sharing(family='primitive', witness=\"PSL(3,2)'\")",
    ]
    assert str(sharings[3]) == "primitive(PSL(3,2)')"
    assert sharings[1] == Sharing("intransitive", "i=3") != sharings[2]
    assert hash(sharings[1]) == hash(Sharing("intransitive", "i=3"))
    tag = FamilyTag("J-2a", (("q", 7),))
    assert repr(tag) == "FamilyTag(case_id='J-2a', parameters=(('q', 7),))"
    assert repr(Open((tag,), (FamilyTag("M-2a"),))) == (
        "Open(admitted=(FamilyTag(case_id='J-2a', parameters=(('q', 7),)),),"
        " unexcluded=(FamilyTag(case_id='M-2a', parameters=()),))"
    )
    spec = primitive_catalog(12).groups[0]
    assert spec.name == "PSL(2,11)@12"
    # the verdict state a label carries is not part of its value: the
    # verdict gives ``minus`` its fingerprint bits, which ``fresh`` lacks
    fresh = ClassLabel(Partition([7]), GroupKind.ALT, Split.MINUS)
    before = hash(minus)
    assert shares_subgroup(minus, minus, cache_dir) == Sharing("primitive", "C7")
    assert minus._bits is not None and fresh._bits is None
    assert minus == fresh and hash(minus) == hash(fresh) == before
    assert minus != ClassLabel(Partition([7]), GroupKind.ALT, Split.PLUS)
    assert minus != (Partition([7]), GroupKind.ALT, Split.MINUS)
    for value, name in ((sym, "group"), (sym, "_rules"), (sharings[0], "family"), (spec, "name")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


# Prints the modules that importing the package and its command line adds.
_MODULES_THE_IMPORT_ADDS = """
import sys
before = set(sys.modules)
import invgraph, invgraph.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_package_import_loads_neither_dataclasses_nor_inspect():
    # every result is one short process, so what the import loads is paid
    # on each one: dataclasses generates code for its types at import and
    # pulls in inspect
    src = os.path.dirname(os.path.dirname(subgroup_membership.__file__))
    done = subprocess.run(
        [sys.executable, "-s", "-c", _MODULES_THE_IMPORT_ADDS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "invgraph.cli" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []


# Builds S_7 and A_7 under each directory named on the command line, in
# that order and in one process, and prints per directory the adjacency
# rows and every pair's verdict.
_BUILDS_UNDER_EACH_DIRECTORY = """
import json, sys
from invgraph.graph_engine import build_graph
from invgraph.permutations import GroupKind
from invgraph.subgroup_membership import shares_subgroup
runs = []
for cache in sys.argv[1:]:
    graphs = [build_graph(7, group, cache) for group in GroupKind]
    verdicts = []
    for g in graphs:
        for i, a in enumerate(g.vertices):
            for b in g.vertices[i:]:
                v = shares_subgroup(a, b, cache)
                verdicts.append(None if v is None else [v.family, v.witness])
    runs.append({"adjacency": [list(g.adjacency) for g in graphs], "verdicts": verdicts})
print(json.dumps(runs))
"""


def test_builds_under_two_cache_dirs_write_and_answer_alike(tmp_path):
    # the profiles are one per degree and group kind for the whole process,
    # yet each build reads or writes its own directory's file, and both
    # directories give the same graphs and the same verdicts
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    src = os.path.dirname(os.path.dirname(subgroup_membership.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _BUILDS_UNDER_EACH_DIRECTORY, str(first), str(second)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    under_first, under_second = json.loads(done.stdout)
    cache_file = "fingerprints-deg7.json"
    assert (first / cache_file).read_bytes() == (second / cache_file).read_bytes()
    assert under_first == under_second
    names = {spec.name for spec in primitive_catalog(7).groups}
    witnesses = {v[1] for v in under_first["verdicts"] if v and v[0] == "primitive"}
    assert witnesses
    assert all(w in names or w.endswith("'") and w[:-1] in names for w in witnesses), witnesses


# degrees and groups whose graphs the verdict-state tests build afresh: each
# has rule-decided and rule-open pairs, and the A_n ones have split classes
_SEEDED_GRAPHS = ((7, GroupKind.SYM), (8, GroupKind.ALT), (12, GroupKind.SYM), (13, GroupKind.ALT))


def test_graph_build_seeds_each_vertex_with_its_verdict_state(tmp_path):
    # before any verdict, every vertex of a graph carries the state a fresh
    # label of the same class is built with, table and profile included,
    # and its fingerprint bits, which the fresh label gets only at its
    # first pair that the rules leave open
    cache = str(tmp_path)
    for n, group in _SEEDED_GRAPHS:
        profile = type_profile(n, group is GroupKind.SYM)
        for label in build_graph(n, group, cache).vertices:
            assert label._names is profile.names and label._profile is profile, label
            halves = profile.primitive_masks(label.cycle_type.parts, cache)
            assert label._bits == halves[label.split is Split.MINUS], label
            fresh = ClassLabel(label.cycle_type, label.group, label.split)
            assert fresh._rules == label._rules, label
            assert fresh._names is label._names and fresh._profile is profile, label
            assert fresh._bits is None, label
            shares_subgroup(fresh, fresh, cache)
            # a nonzero rule mask meets itself, so the pair read no bits
            assert fresh._bits == (None if label._rules else label._bits), label


# types of degree 1000, far past every catalog: a full cycle (odd, so a
# class of S_n only), a type whose A_n class splits, and three even types
# with a repeated part
_DEGREE_1000_TYPES = ([1000], [999, 1], [500, 500], [3] + [1] * 997, [7, 5, 3] + [1] * 985)


def test_labels_are_built_with_their_verdict_state_and_read_no_fingerprint(
    graph, tmp_path, monkeypatch
):
    # relisting every vertex of every exact graph, and listing labels at
    # degrees 14 and 1000, which have no catalog, reads no fingerprint and
    # makes no cache directory, named or default; each label is built with
    # the rule mask, table and profile of its graph vertex, or of its
    # profile off the catalog, and without fingerprint bits
    graphs = [graph(n, group) for n in sorted(EXACT_DEGREES) for group in GroupKind]

    def refuse(*args):
        raise AssertionError("building a label read a fingerprint")

    monkeypatch.setattr(subgroup_membership, "degree_fingerprints", refuse)
    monkeypatch.setattr(TypeProfile, "primitive_masks", refuse)
    monkeypatch.setenv("INVGRAPH_CACHE_DIR", str(tmp_path / "named"))
    monkeypatch.chdir(tmp_path)
    for g in graphs:
        fresh = class_labels(g.degree, g.group)
        assert fresh == list(g.vertices)
        for label, vertex in zip(fresh, g.vertices):
            assert label._rules == vertex._rules, label
            assert label._names is vertex._names and label._profile is vertex._profile, label
            assert label._bits is None, label
    for n, types in ((14, None), (1000, _DEGREE_1000_TYPES)):
        for group in GroupKind:
            sym = group is GroupKind.SYM
            if types is None:
                labels = class_labels(n, group)
            else:
                kept = [Partition(t) for t in types if sym or (n - len(t)) % 2 == 0]
                labels = [label for t in kept for label in type_labels(t, group)]
            profile = type_profile(n, sym)
            for label in labels:
                parts = label.cycle_type.parts
                assert label._names is profile.names and label._profile is profile, label
                assert label._rules == profile.rule_mask(parts), label
                assert label._bits is None, label
    assert os.listdir(tmp_path) == []


def test_graph_labels_and_fresh_labels_share_one_name_table(tmp_path):
    # mixing a graph vertex with a fresh label of any class of the same
    # degree and group, at the label's first verdict or later, in either
    # order, gives the vertices' verdict and edge bit; across groups or
    # degrees the pair is refused as before
    cache = str(tmp_path)
    for n, group in _SEEDED_GRAPHS:
        g = build_graph(n, group, cache)
        fresh = [
            next(lbl for lbl in type_labels(v.cycle_type, group) if lbl.split is v.split)
            for v in g.vertices
        ]
        for i, a in enumerate(g.vertices):
            for j, b in enumerate(fresh):
                verdict = shares_subgroup(a, b, cache)
                assert verdict == shares_subgroup(b, a, cache)
                assert verdict == shares_subgroup(a, g.vertices[j], cache), (a, b)
                first = ClassLabel(b.cycle_type, group, b.split)
                assert verdict == shares_subgroup(first, a, cache), (a, b)
                first = ClassLabel(b.cycle_type, group, b.split)
                assert verdict == shares_subgroup(a, first, cache), (a, b)
                assert (g.adjacency[i] >> j & 1) == (i != j and verdict is None), (a, b)
        table = g.vertices[0]._names
        assert all(lbl._names is table for lbl in g.vertices + tuple(fresh))
        other_group = GroupKind.ALT if group is GroupKind.SYM else GroupKind.SYM
        other = type_labels(Partition([3] + [1] * (n - 3)), other_group)[0]
        with pytest.raises(ValueError, match="^group mismatch$"):
            shares_subgroup(g.vertices[0], other, cache)
        larger = type_labels(Partition([3] + [1] * (n - 2)), group)[0]
        with pytest.raises(ValueError, match="^degree mismatch$"):
            shares_subgroup(larger, g.vertices[0], cache)


def test_rule_decided_verdicts_on_graph_vertices_read_no_profile(tmp_path, monkeypatch):
    # every pair of graph vertices, edges and fingerprint-decided pairs
    # included, is answered from the labels alone: no profile, no
    # fingerprint bits and no fingerprint read is asked
    cache = str(tmp_path)
    graphs = [build_graph(n, group, cache) for n, group in _SEEDED_GRAPHS]
    expected = {
        (a, b): _reference_shares_subgroup(a, b, cache)
        for g in graphs
        for a in g.vertices
        for b in g.vertices
    }
    families = collections.Counter(v and v.family for v in expected.values())
    assert families[None] > 300 and families["primitive"] > 50, families
    assert len(expected) > 9000

    def refuse(*args):
        raise AssertionError("a verdict on graph vertices asked for its state")

    monkeypatch.setattr(subgroup_membership, "type_profile", refuse)
    monkeypatch.setattr(subgroup_membership, "_label_bits", refuse)
    monkeypatch.setattr(subgroup_membership, "degree_fingerprints", refuse)
    monkeypatch.setattr(TypeProfile, "primitive_masks", refuse)
    for (a, b), want in expected.items():
        assert shares_subgroup(a, b, cache) == want, (a, b)


def test_fresh_labels_off_the_catalog_answer_the_pairs_the_rules_decide(tmp_path):
    # at degree 14, which has no catalog, each pair of labels at their first
    # verdict is answered when the rules decide it and otherwise raises the
    # catalog's own message
    cache = str(tmp_path)
    with pytest.raises(CatalogAbsent) as absent:
        primitive_catalog(14)
    types = [label.cycle_type for label in class_labels(14, GroupKind.SYM)]
    decided = open_pairs = 0
    for t1 in types:
        for t2 in types:
            a, b = ClassLabel(t1, GroupKind.SYM), ClassLabel(t2, GroupKind.SYM)
            want = _reference_rule_sharing(a, b)
            if want is None:
                with pytest.raises(CatalogAbsent) as raised:
                    shares_subgroup(a, b, cache)
                assert str(raised.value) == str(absent.value), (a, b)
                open_pairs += 1
            else:
                assert shares_subgroup(a, b, cache) == want, (a, b)
                decided += 1
    assert decided > 10_000 and open_pairs > 100, (decided, open_pairs)


# Lists the S_14 classes, whose profile is fresh in a new process, asks
# every pair's verdict under the directory named on the command line, and
# prints how often primitive_catalog was asked, the number of types in
# pairs the rules leave open and the messages those pairs raised.
_VERDICTS_OFF_THE_CATALOG = """
import json, sys
from invgraph.permutations import GroupKind
from invgraph.subgroup_membership import (
    CatalogAbsent, class_labels, primitive_catalog, shares_subgroup,
)
labels = class_labels(14, GroupKind.SYM)
misses = primitive_catalog.cache_info().misses
messages, open_types = set(), set()
for i, a in enumerate(labels):
    for b in labels[i:]:
        try:
            shares_subgroup(a, b, sys.argv[1])
        except CatalogAbsent as exc:
            messages.add(str(exc))
            open_types |= {a.cycle_type.parts, b.cycle_type.parts}
asked = primitive_catalog.cache_info().misses - misses
print(json.dumps([asked, len(open_types), sorted(messages)]))
"""


def test_absent_catalog_is_asked_once_per_profile(tmp_path):
    # every pair the rules leave open at degree 14 raises the catalog's own
    # message, and only the first one asks primitive_catalog; the labels
    # are built with the process's one S_14 profile, so the pairs run in a
    # fresh process, where no earlier verdict can have filled it
    src = os.path.dirname(os.path.dirname(subgroup_membership.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _VERDICTS_OFF_THE_CATALOG, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    asked, open_types, messages = json.loads(done.stdout)
    assert open_types > 1
    assert asked == 1
    with pytest.raises(CatalogAbsent) as first:
        primitive_catalog(14)
    assert messages == [str(first.value)]


def _reference_contains(fp, label, mirrored):
    incidence = fp.types.get(label.cycle_type.parts)
    if incidence is None:
        return False
    if label.split is Split.NONE:
        return True
    side = label.split
    if mirrored:
        side = Split.MINUS if side is Split.PLUS else Split.PLUS
    return side in incidence


def _reference_rule_sharing(c1, c2):
    """The verdict of the parity, partial-sum and block rules, recomputed
    per pair from the types; None for a pair they leave open."""
    n = c1.degree
    t1, t2 = c1.cycle_type, c2.cycle_type
    if c1.group is GroupKind.SYM and is_even_type(t1) and is_even_type(t2):
        return Sharing("alternating", f"A_{n}")
    common = partial_sum_mask(t1) & partial_sum_mask(t2) & ((1 << (n // 2 + 1)) - 2)
    if common:
        return Sharing("intransitive", f"i={(common & -common).bit_length() - 1}")
    for m in proper_block_sizes(n):
        if wreath_member(t1, m) and wreath_member(t2, m):
            return Sharing("imprimitive", f"m={m}")
    return None


def _reference_shares_subgroup(c1, c2, cache_dir):
    """The verdict recomputed per pair from the types and fingerprints."""
    rules = _reference_rule_sharing(c1, c2)
    if rules is not None:
        return rules
    n = c1.degree
    for fp in degree_fingerprints(n, cache_dir):
        for mirrored in (False, True):
            if _reference_contains(fp, c1, mirrored) and _reference_contains(fp, c2, mirrored):
                return Sharing("primitive", fp.name + ("'" if mirrored else ""))
    return None


def test_shares_subgroup_matches_per_pair_reference(graph, cache_dir):
    # every unordered pair and the diagonal, at every exact degree; the bulk
    # build reads the same records, so its edge bits must be the None verdicts
    for n in sorted(EXACT_DEGREES):
        for group in (GroupKind.SYM, GroupKind.ALT):
            g = graph(n, group)
            vertices = g.vertices
            for i, a in enumerate(vertices):
                row = g.adjacency[i]
                for j in range(i, len(vertices)):
                    b = vertices[j]
                    verdict = shares_subgroup(a, b, cache_dir)
                    assert verdict == _reference_shares_subgroup(a, b, cache_dir), (a, b)
                    assert (row >> j & 1) == (i != j and verdict is None), (a, b)
                    if verdict is None or verdict.family == "primitive":
                        # a rule-open pair: exact mode never reads the theorem tier
                        assert subgroup_membership.verdict(a, b, cache_dir) == verdict, (a, b)


_SWEEP_THEN_NAME_COUNT = """
import sys
from invgraph.graph_engine import build_graph
from invgraph.permutations import GroupKind
from invgraph.subgroup_membership import EXACT_DEGREES, shares_subgroup, type_profile
for n in sorted(EXACT_DEGREES):
    for group in GroupKind:
        vertices = build_graph(n, group, sys.argv[1]).vertices
        for i, a in enumerate(vertices):
            for b in vertices[i + 1:]:
                shares_subgroup(a, b, sys.argv[1])
print(sum(len(type_profile(n, sym).names) for n in EXACT_DEGREES for sym in (True, False)))
"""


def test_verdict_names_stay_bounded_after_the_full_sweep(cache_dir):
    # every unordered pair of all 26 exact graphs, in a fresh process so the
    # profiles start empty: ``names`` holds one verdict per common mask met,
    # 2,355 when this test was written (199 when it was keyed by lowest bit)
    src = os.path.dirname(os.path.dirname(subgroup_membership.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_THEN_NAME_COUNT, cache_dir],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 2355


def test_verdict_names_hold_one_object_per_verdict(graph):
    # every common mask a sweep meets is named by its lowest bit, so equal
    # verdicts are one object however many masks name them
    vertices = graph(12, GroupKind.SYM).vertices
    for i, a in enumerate(vertices):
        for b in vertices[i + 1:]:
            shares_subgroup(a, b)
    names = vertices[0]._names
    assert len(names) > len(set(names.values()))
    assert len({id(v) for v in names.values()}) == len(set(names.values()))


# Loads the fingerprints of every exact degree from the directory named on
# the command line, then counts the ``Partition``s built while building all
# 26 exact graphs.
_PARTITIONS_BUILT_BY_THE_GRAPHS = """
import sys
from invgraph.graph_engine import build_graph
from invgraph.partitions import Partition
from invgraph.permutations import GroupKind
from invgraph.subgroup_membership import EXACT_DEGREES, degree_fingerprints
for n in EXACT_DEGREES:
    degree_fingerprints(n, sys.argv[1])
built = 0
init = Partition.__init__
def counting_init(self, parts):
    global built
    built += 1
    init(self, parts)
Partition.__init__ = counting_init
for n in sorted(EXACT_DEGREES):
    for group in GroupKind:
        build_graph(n, group, sys.argv[1])
print(built)
"""


def test_graph_builds_make_one_partition_per_type(cache_dir):
    # the 1,156 types of the exact degrees, each listed once for both groups;
    # the rule bits build none (2,480 when rule_mask and the block bits each
    # built one to key the partial-sum cache)
    src = os.path.dirname(os.path.dirname(subgroup_membership.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _PARTITIONS_BUILT_BY_THE_GRAPHS, cache_dir],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == sum(len(list(enumerate_partitions(n))) for n in EXACT_DEGREES)


def test_shares_subgroup_without_catalog(cache_dir):
    # degree 14 has no catalog: pairs that parity, partial sums and block
    # sizes decide keep their answers, the rest raise CatalogAbsent
    def sym(text):
        return ClassLabel(Partition(map(int, text.split(","))), GroupKind.SYM)

    assert shares_subgroup(sym("14"), sym("14"), cache_dir) == Sharing("imprimitive", "m=2")
    assert shares_subgroup(sym("13,1"), sym("12,1,1"), cache_dir) == Sharing(
        "intransitive", "i=1"
    )
    assert shares_subgroup(sym("13,1"), sym("13,1"), cache_dir) == Sharing(
        "alternating", "A_14"
    )
    with pytest.raises(CatalogAbsent):
        shares_subgroup(sym("14"), sym("13,1"), cache_dir)
    assert shares_subgroup(sym("14"), sym("14"), cache_dir) == Sharing("imprimitive", "m=2")
    plus = ClassLabel(Partition(map(int, "13,1".split(","))), GroupKind.ALT, Split.PLUS)
    other = ClassLabel(Partition(map(int, "12,2".split(","))), GroupKind.ALT)
    with pytest.raises(CatalogAbsent):
        shares_subgroup(plus, other, cache_dir)


# rule-open pairs, and those the theorem tier calls edges and leaves open,
# counted over the unordered pairs and the diagonal
_THEOREM_TIER_COUNTS = {
    (14, GroupKind.SYM): (103, 100, 3),
    (14, GroupKind.ALT): (111, 107, 4),
    (15, GroupKind.SYM): (199, 198, 1),
    (15, GroupKind.ALT): (99, 88, 11),
    (16, GroupKind.SYM): (220, 205, 15),
    (16, GroupKind.ALT): (242, 220, 22),
    (18, GroupKind.SYM): (372, 367, 5),
    (18, GroupKind.ALT): (332, 328, 4),
}


@pytest.mark.parametrize("n", [14, 15, 16, 18])
def test_rule_verdicts_without_catalog_match_reference(n, cache_dir):
    # every unordered pair and the diagonal: the feature masks give the
    # reference verdict wherever the rules decide, and both raise
    # CatalogAbsent on the pairs the rules leave open
    def verdict(check, a, b):
        try:
            return check(a, b, cache_dir)
        except CatalogAbsent:
            return CatalogAbsent

    for group in (GroupKind.SYM, GroupKind.ALT):
        labels = class_labels(n, group)
        counts = [0, 0, 0]
        for i, a in enumerate(labels):
            for b in labels[i:]:
                expected = verdict(_reference_shares_subgroup, a, b)
                assert verdict(shares_subgroup, a, b) == expected, (a, b)
                # the one verdict: the rules' answer where they decide, and
                # edge or open alike in either order where they do not
                answer = subgroup_membership.verdict(a, b, cache_dir)
                reverse = subgroup_membership.verdict(b, a, cache_dir)
                if expected is not CatalogAbsent:
                    assert answer == expected, (a, b)
                    continue
                assert (answer is None) == (reverse is None), (a, b)
                assert answer is None or isinstance(answer, Open), (a, b)
                counts[0] += 1
                counts[1 + (answer is not None)] += 1
        assert tuple(counts) == _THEOREM_TIER_COUNTS[n, group]


def _tamper_order(data):
    data["groups"][0]["order"] += 1


def _tamper_type_sum(data):
    data["groups"][0]["types"].append("5,1")


def _tamper_split_mark(data):
    # (2,2,1,1,1) is a type of PSL(3,2) with a repeated part, so it cannot split
    data["groups"][-1]["split"]["2,2,1,1,1"] = "+"


def _tamper_unlisted_split(data):
    # AGL(1,8) has order 56, so no element of order 15, and no group of
    # degree 8 meets the type (5,3): a mark on it names an unlisted type
    (agl,) = [group for group in data["groups"] if group["name"] == "AGL(1,8)"]
    agl["split"]["5,3"] = "+"


def _tamper_dropped_split(data):
    # C7 meets the split type (7) in both A_7 classes; without its marks the
    # file would say it meets neither
    del data["groups"][0]["split"]["7"]


_TAMPERS = [
    (7, _tamper_order),
    (7, _tamper_type_sum),
    (7, _tamper_split_mark),
    (8, _tamper_unlisted_split),
    (7, _tamper_dropped_split),
]


@pytest.mark.parametrize("n,tamper", _TAMPERS, ids=[tamper.__name__ for _, tamper in _TAMPERS])
def test_fingerprint_cache_rejects_unsound_data(tmp_path, n, tamper):
    where = str(tmp_path / "cache")
    first = degree_fingerprints(n, where)
    path = tmp_path / "cache" / f"fingerprints-deg{n}.json"
    sound = path.read_text()
    data = json.loads(sound)
    tamper(data)
    path.write_text(json.dumps(data))
    degree_fingerprints.cache_clear()
    # the digest still matches, so only the content checks can catch it
    assert degree_fingerprints(n, where) == first
    assert path.read_text() == sound


def test_fingerprint_cache_recovers_from_truncated_file(tmp_path):
    where = str(tmp_path / "cache")
    first = degree_fingerprints(8, where)
    path = tmp_path / "cache" / "fingerprints-deg8.json"
    sound = path.read_text()
    path.write_text(sound[: len(sound) // 2])
    degree_fingerprints.cache_clear()
    assert degree_fingerprints(8, where) == first
    assert path.read_text() == sound
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_curated_generators_are_rederived():
    # the script checks M11 and M12 by closure, then re-runs both seeded
    # searches; the catalog must list exactly the pairs they find
    script = Path(__file__).resolve().parent.parent / "scripts" / "find_curated_generators.py"
    spec = importlib.util.spec_from_file_location("find_curated_generators", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    derived = module.searched_pairs()
    listed = {
        group.name: tuple(format_cycles(g) for g in group.generators)
        for n in (11, 12)
        for group in primitive_catalog(n).groups
        if group.name in derived
    }
    assert len(derived) == 2
    assert derived == listed
