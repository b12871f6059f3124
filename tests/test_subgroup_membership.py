import importlib.util
import json
import math
from pathlib import Path

import pytest

from invgraph.arith import proper_block_sizes
from invgraph.partitions import (
    Partition,
    enumerate_partitions,
    has_distinct_odd_parts,
    is_even_type,
    is_partial_sum,
    partial_sum_mask,
)
from invgraph.permutations import (
    ClassLabel,
    GroupKind,
    Permutation,
    Split,
    closure_images,
    is_primitive,
    is_transitive,
    split_label,
)
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    CatalogAbsent,
    Sharing,
    _compute_fingerprint,
    degree_fingerprints,
    fingerprint,
    primitive_catalog,
    shares_intransitive,
    shares_subgroup,
    wreath_member,
    wreath_member_oracle,
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


def test_shares_intransitive_examples():
    n = 12
    assert shares_intransitive(Partition([11, 1]), Partition([11, 1]))
    assert not shares_intransitive(Partition([12]), Partition([6, 3, 2, 1]))
    assert not shares_intransitive(Partition([6, 5, 1]), Partition([9, 3]))
    with pytest.raises(ValueError):
        shares_intransitive(Partition([3]), Partition([4]))


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
        assert catalog.complete
        assert [g.name for g in catalog.groups] == names


def test_catalog_absent_outside_supported_degrees():
    assert not primitive_catalog(14).complete
    assert not primitive_catalog(20).complete
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
    assert agl.types_present == {
        (1, 1, 1, 1, 1), (2, 2, 1), (4, 1), (5,),
    }
    c5 = fps5["C5"]
    assert c5.incidence((5,)) == {Split.PLUS, Split.MINUS}
    fps11 = {fp.name: fp for fp in degree_fingerprints(11, cache_dir)}
    assert (2, 2, 2, 2, 1, 1, 1) in fps11["M11"].types_present


def test_fingerprint_split_symmetry_for_groups_with_odd_elements(cache_dir):
    # a subgroup normalized by an odd permutation meets both split classes of
    # any type it contains; containing an odd element is the easy certificate
    for n in sorted(EXACT_DEGREES):
        for spec in primitive_catalog(n).groups:
            elements, _ = closure_images([g.images for g in spec.generators], n)
            has_odd = any(
                not is_even_type(Partition([len(c) for c in _cycles(e)]))
                for e in elements
            )
            if not has_odd:
                continue
            fp = fingerprint(spec, cache_dir)
            for _, inc in fp.split_incidence:
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
        elements, truncated = closure_images(gens, spec.degree)
        assert not truncated
        assert elements == reference_closure(gens, spec.degree), spec.name


def _reference_fingerprint(spec, elements):
    # one cycle-type classification and split test per element
    types = set()
    incidence = {}
    for images in elements:
        t = tuple(sorted((len(c) for c in _cycles(images)), reverse=True))
        types.add(t)
        if has_distinct_odd_parts(Partition(t)) and t != (1,) * spec.degree:
            inc = incidence.setdefault(t, set())
            if len(inc) < 2:
                inc.add(split_label(Permutation(images)))
    return (
        spec.degree,
        spec.name,
        len(elements),
        frozenset(types),
        tuple(sorted((t, frozenset(inc)) for t, inc in incidence.items())),
    )


def test_compute_fingerprint_matches_per_element_reference(reference_closure):
    for spec in _all_catalog_groups():
        elements = reference_closure([g.images for g in spec.generators], spec.degree)
        fp = _compute_fingerprint(spec)
        expected = _reference_fingerprint(spec, elements)
        got = (fp.degree, fp.name, fp.order, fp.types_present, fp.split_incidence)
        assert got == expected, spec.name


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
    from invgraph.permutations import class_labels

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
    with pytest.raises(ValueError):
        shares_subgroup(a, b, cache_dir)
    c = ClassLabel(Partition([2, 2]), GroupKind.ALT)
    d = ClassLabel(Partition([2, 1, 1]), GroupKind.SYM)
    with pytest.raises(ValueError):
        shares_subgroup(c, d, cache_dir)


def _reference_contains(fp, label, mirrored):
    parts = label.cycle_type.parts
    if parts not in fp.types_present:
        return False
    if label.split is Split.NONE:
        return True
    side = label.split
    if mirrored:
        side = Split.MINUS if side is Split.PLUS else Split.PLUS
    return side in fp.incidence(parts)


def _reference_shares_subgroup(c1, c2, cache_dir):
    """The verdict recomputed per pair from the types and fingerprints."""
    n = c1.degree
    t1, t2 = c1.cycle_type, c2.cycle_type
    if c1.group is GroupKind.SYM and is_even_type(t1) and is_even_type(t2):
        return Sharing("alternating", f"A_{n}")
    if shares_intransitive(t1, t2):
        common = partial_sum_mask(t1) & partial_sum_mask(t2) & ((1 << (n // 2 + 1)) - 2)
        return Sharing("intransitive", f"i={(common & -common).bit_length() - 1}")
    for m in proper_block_sizes(n):
        if wreath_member(t1, m) and wreath_member(t2, m):
            return Sharing("imprimitive", f"m={m}")
    for fp in degree_fingerprints(n, cache_dir):
        for mirrored in (False, True) if fp.mirror_differs else (False,):
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


def test_shares_subgroup_without_catalog(cache_dir):
    # degree 14 has no catalog: pairs that parity, partial sums and block
    # sizes decide keep their answers, the rest raise CatalogAbsent
    def sym(text):
        return ClassLabel(Partition.from_string(text), GroupKind.SYM)

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
    plus = ClassLabel(Partition.from_string("13,1"), GroupKind.ALT, Split.PLUS)
    other = ClassLabel(Partition.from_string("12,2"), GroupKind.ALT)
    with pytest.raises(CatalogAbsent):
        shares_subgroup(plus, other, cache_dir)


def _tamper_order(data):
    data["groups"][0]["order"] += 1


def _tamper_type_sum(data):
    data["groups"][0]["types"].append("5,1")


def _tamper_split_mark(data):
    # (2,2,1,1,1) is a type of PSL(3,2) with a repeated part, so it cannot split
    data["groups"][-1]["split"]["2,2,1,1,1"] = "+"


@pytest.mark.parametrize("tamper", [_tamper_order, _tamper_type_sum, _tamper_split_mark])
def test_fingerprint_cache_rejects_unsound_data(tmp_path, tamper):
    where = str(tmp_path / "cache")
    first = degree_fingerprints(7, where)
    path = tmp_path / "cache" / "fingerprints-deg7.json"
    sound = path.read_text()
    data = json.loads(sound)
    tamper(data)
    path.write_text(json.dumps(data))
    degree_fingerprints.cache_clear()
    # the digest still matches, so only the content checks can catch it
    assert degree_fingerprints(7, where) == first
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


def _stanzas(text):
    blocks = (block.strip() for block in text.split("\n\n"))
    return [block for block in blocks if block.startswith("group ")]


def test_curated_generators_are_rederived(capsys):
    root = Path(__file__).resolve().parent.parent
    script = root / "scripts" / "find_curated_generators.py"
    spec = importlib.util.spec_from_file_location("find_curated_generators", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    derived = _stanzas(capsys.readouterr().out)
    shipped = _stanzas((root / "src" / "invgraph" / "data" / "curated_groups.txt").read_text())
    assert len(derived) == 4
    assert derived == shipped
