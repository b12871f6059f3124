import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import invgraph
from invgraph.arith import is_prime, proper_block_sizes
from invgraph.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_with_sums_in,
    has_distinct_odd_parts,
    is_even_type,
    partial_sum_mask,
)
from invgraph.permutations import ClassLabel, GroupKind, Split
from invgraph.graph_engine import isolated_vertices
from invgraph.primitive_rules import excludes, families_of, jordan_excludes
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    TypeProfile,
    shares_subgroup,
    wreath_member,
)
from invgraph.witness_verifier import (
    LEMMA_IDS,
    InadmissibleDegree,
    WitnessClaim,
    WitnessReport,
    _LANE_BITS,
    _disjoint_partners,
    _first_partition,
    _sum_masks,
    build_isolated_family,
    construct_witness,
    table1,
    verify_isolated_family,
    verify_lm,
    verify_sper,
    verify_witness,
)
from test_acceptance import _witness_cases


def test_construct_examples():
    claim = construct_witness("mun", 11)
    assert claim.witness == Partition([3, 2, 2, 2, 2])
    assert claim.targets == (Partition([10, 1]),)
    claim = construct_witness("p", 25)
    assert claim.witness == Partition([9, 6, 6, 1, 1, 1, 1])
    assert claim.targets == (Partition([20, 5]),)
    claim = construct_witness("enne_odd", 11)
    assert claim.witness == Partition([6, 1, 1, 1, 1, 1])
    assert claim.targets == (Partition([11]),)
    claim = construct_witness("jd", 12)
    assert claim.witness == Partition([4, 4, 3, 1])
    assert claim.targets == (Partition([10, 2]),)


def test_construct_sign_requirements():
    # parity is part of each construction: even where an even class is needed
    for n in (11, 13, 21, 29):
        assert is_even_type(construct_witness("mun", n).witness)
    for n in (12, 16, 20):
        assert not is_even_type(construct_witness("mun", n, GroupKind.SYM).witness)
        assert is_even_type(construct_witness("mun", n, GroupKind.ALT).witness)
        assert is_even_type(construct_witness("enne_even", n).witness)
    for n in (16, 18, 22, 26, 36):
        assert not is_even_type(construct_witness("sim", n).witness)


def test_construct_rejects_inadmissible():
    with pytest.raises(InadmissibleDegree):
        construct_witness("enne_even", 18)
    with pytest.raises(InadmissibleDegree):
        construct_witness("p", 23)  # prime
    with pytest.raises(InadmissibleDegree):
        construct_witness("sim", 24)  # 23 is prime
    with pytest.raises(InadmissibleDegree):
        construct_witness("p2", 128)  # m = 7
    with pytest.raises(InadmissibleDegree):
        construct_witness("altodd_w", 33)
    with pytest.raises(InadmissibleDegree):
        construct_witness("jd", 10)


def test_construct_rejects_groups_a_lemma_does_not_live_in():
    for lemma, n, group in [
        ("enne_odd", 13, GroupKind.ALT), ("mun", 13, GroupKind.ALT),
        ("p", 25, GroupKind.ALT), ("p", 50, GroupKind.SYM), ("sim", 16, GroupKind.ALT),
        ("jd", 12, GroupKind.SYM), ("p2", 64, GroupKind.SYM),
        ("altodd_z", 33, GroupKind.SYM), ("altodd_w", 35, GroupKind.SYM),
    ]:
        with pytest.raises(InadmissibleDegree):
            construct_witness(lemma, n, group)


def test_every_lemma_id_builds_a_claim():
    # lm is the exact whole-degree check, not a construction
    for lemma in LEMMA_IDS:
        if lemma == "lm":
            continue
        built = []
        for n in range(11, 131):
            try:
                built.append(construct_witness(lemma, n))
            except InadmissibleDegree:
                pass
        assert built, lemma


def test_witness_json_is_pinned(cache_dir):
    # sha256 of the concatenated criterion-9 reports, computed before the
    # witness shapes were shared between constructions
    digest = hashlib.sha256()
    for lemma, n, group in _witness_cases():
        report = verify_witness(construct_witness(lemma, n, group), cache_dir)
        digest.update(report.to_json().encode())
    assert digest.hexdigest() == "77f97c744ee354025354f1610556232860e453a7cb50b652ff3289ab00f0f02b"


def test_witness_json_is_pinned_beyond_129(cache_dir):
    # every admissible claim at n = 130..300, above the degrees the benchmark
    # runs; the count, ledger and sha256 of the concatenated reports were
    # computed before the survivors were enumerated from a mask and before
    # Jordan's test took its closed form
    digest = hashlib.sha256()
    claims, ledgered = 0, []
    for n in range(130, 301):
        for lemma in LEMMA_IDS[1:]:
            for group in GroupKind:
                try:
                    claim = construct_witness(lemma, n, group)
                except InadmissibleDegree:
                    continue
                report = verify_witness(claim, cache_dir)
                digest.update(report.to_json().encode())
                claims += 1
                if report.ledger:
                    ledgered.append((lemma, n, group))
    assert (claims, ledgered) == (800, [])
    assert digest.hexdigest() == "39ece0c690b35582ba4fe25010ce1f64a5b9fbca5f5ac57019e12ec1b311fbc5"


def test_prime_interval_for_general_constructions():
    for n in (55, 65, 77, 91, 115, 119, 121):
        claim = construct_witness("p", n)
        note = next(note for note in claim.notes if note.startswith("q="))
        q = int(note[2:])
        p = int(next(x for x in claim.notes if x.startswith("target")).split("=")[1])
        assert is_prime(q) and q * p > n and q * p < 2 * n


def test_verify_examples(cache_dir):
    report = verify_witness(construct_witness("enne_even", 20), cache_dir)
    assert report.fully_certified
    report = verify_witness(construct_witness("jd", 12), cache_dir)
    assert report.fully_certified
    assert report.claim.witness == Partition([4, 4, 3, 1])


def test_report_json_schema(cache_dir):
    report = verify_witness(construct_witness("mun", 11), cache_dir)
    payload = json.loads(report.to_json())
    for key in ("lemma", "n", "witness", "targets", "nonadjacency", "adjacency",
                "ledger"):
        assert key in payload
    assert payload["adjacency"] == "verified"


def test_altodd_w_extra_target_at_35(cache_dir):
    claim = construct_witness("altodd_w", 35)
    assert Partition([30, 3, 2]) in claim.targets
    report = verify_witness(claim, cache_dir)
    # the witness powers down to a short cycle with many fixed points, so
    # even the three-orbit extra target needs no classification assumption
    assert report.fully_certified


def _expand_classes(t, group):
    if group is GroupKind.ALT and has_distinct_odd_parts(t):
        return [ClassLabel(t, group, Split.PLUS), ClassLabel(t, group, Split.MINUS)]
    return [ClassLabel(t, group)]


def _common_wreath(a, b, n):
    for m in proper_block_sizes(n):
        if wreath_member(a, m) and wreath_member(b, m):
            return m
    return None


def _reference_verify_witness(claim, cache_dir):
    """The verifier with its own parity, partial-sum and block tests, asking
    ``shares_subgroup`` only at the cataloged degrees."""
    n, w, group = claim.n, claim.witness, claim.group
    exact = n in EXACT_DEGREES
    w_label = _expand_classes(w, group)[0]
    half_square = Partition([n // 2, n // 2]) if n % 2 == 0 else None
    w_mask = partial_sum_mask(w)
    allowed = sum(1 << i for i in {0, n} | {i for i in range(1, n) if not w_mask >> i & 1})
    counterexamples, extras = [], []
    w_even = is_even_type(w)
    for q in enumerate_partitions_with_sums_in(n, allowed):
        if q == w or q in claim.targets or q.parts == (1,) * n:
            continue
        if group is GroupKind.ALT and not is_even_type(q):
            continue
        if group is GroupKind.SYM and w_even and is_even_type(q):
            continue
        if _common_wreath(w, q, n) is not None:
            continue
        if exact and all(
            shares_subgroup(w_label, ql, cache_dir) is not None
            for ql in _expand_classes(q, group)
        ):
            continue
        if claim.allow_even_extras and all(p % 2 == 0 for p in q.parts) and q != half_square:
            extras.append(q)
            continue
        counterexamples.append(q)
    nonadjacency_ok = not counterexamples
    for must_miss in claim.require_nonadjacent:
        if must_miss in extras or must_miss in counterexamples:
            nonadjacency_ok = False
            counterexamples.append(must_miss)
    failures, ledger = [], []
    half_mask = (1 << (n // 2 + 1)) - 2
    for t in claim.targets:
        if group is GroupKind.SYM and w_even and is_even_type(t):
            failures.append(f"{t}: both classes are even")
            continue
        if partial_sum_mask(w) & partial_sum_mask(t) & half_mask:
            failures.append(f"{t}: common partial sum")
            continue
        m = _common_wreath(w, t, n)
        if m is not None:
            failures.append(f"{t}: common wreath product with block size {m}")
            continue
        if exact:
            for tl in _expand_classes(t, group):
                verdict = shares_subgroup(w_label, tl, cache_dir)
                if verdict is not None:
                    failures.append(f"{tl}: shared {verdict}")
            continue
        if jordan_excludes(w) or jordan_excludes(t):
            continue
        for tag in families_of(t):
            outcome = excludes(tag, w)
            if outcome is False:
                failures.append(f"{t}: predicate admits membership for family {tag}")
            elif outcome is None:
                ledger.append(f"{t}: family {tag} not excluded by rule predicates")
    return WitnessReport(
        claim, nonadjacency_ok, tuple(counterexamples), tuple(extras),
        not failures, tuple(failures), tuple(ledger),
    )


# witness and target types that share one family, at a cataloged degree and
# at one without a catalog; (9,3) and (15,7) split in A_n, so both of their
# classes must be reported
_SHARED_TARGETS = [
    (12, GroupKind.SYM, (11, 1), (7, 5), "alternating(A_12)", 1),
    (12, GroupKind.SYM, (11, 1), (10, 1, 1), "intransitive(i=1)", 1),
    (12, GroupKind.SYM, (12,), (10, 2), "imprimitive(m=2)", 1),
    (12, GroupKind.ALT, (4, 4, 3, 1), (9, 3), "intransitive(i=3)", 2),
    (22, GroupKind.SYM, (21, 1), (13, 9), "alternating(A_22)", 1),
    (22, GroupKind.SYM, (21, 1), (20, 1, 1), "intransitive(i=1)", 1),
    (22, GroupKind.SYM, (22,), (20, 2), "imprimitive(m=2)", 1),
    (22, GroupKind.ALT, (7, 7, 4, 4), (15, 7), "intransitive(i=7)", 2),
]


def _shared_target_claim(n, group, witness, target):
    return WitnessClaim("synthetic", n, group, Partition(witness), (Partition(target),))


@pytest.mark.parametrize(
    "n, group, witness, target, verdict, classes",
    _SHARED_TARGETS,
    ids=[f"{n}{group.value}-{verdict}" for n, group, _, _, verdict, _ in _SHARED_TARGETS],
)
def test_shared_target_fails(cache_dir, n, group, witness, target, verdict, classes):
    report = verify_witness(_shared_target_claim(n, group, witness, target), cache_dir)
    assert not report.adjacency_ok
    assert not report.ledger
    assert len(report.adjacency_failures) == classes
    for failure in report.adjacency_failures:
        assert failure.endswith(f": shared {verdict}"), failure


def test_split_witness_is_rejected_naming_the_claim(cache_dir):
    # the 7-cycle's A_7 class splits: a report from the PLUS class alone
    # would leave half the witness unchecked
    claim = WitnessClaim("x", 7, GroupKind.ALT, Partition([7]), ())
    with pytest.raises(ValueError, match=r"^claim x at n=7 \(alt\): witness 7 splits"):
        verify_witness(claim, cache_dir)


def test_witness_of_another_degree_is_rejected_naming_the_claim(cache_dir):
    claim = WitnessClaim("x", 12, GroupKind.SYM, Partition([5, 3, 2, 1]), (Partition([12]),))
    message = r"^claim x at n=12 \(sym\): witness 5,3,2,1 has degree 11$"
    with pytest.raises(ValueError, match=message):
        verify_witness(claim, cache_dir)


def test_odd_witness_in_alternating_group_is_rejected(cache_dir):
    claim = _shared_target_claim(12, GroupKind.ALT, (12,), (11, 1))
    with pytest.raises(ValueError):
        verify_witness(claim, cache_dir)


def test_verify_witness_matches_reference(cache_dir):
    # every report field but the failure wording, on every criterion-9 claim
    # and on the failing claims above
    claims = [construct_witness(lemma, n, group) for lemma, n, group in _witness_cases()]
    claims += [_shared_target_claim(*case[:4]) for case in _SHARED_TARGETS]
    compared = [f for f in WitnessReport._fields if f != "adjacency_failures"]
    for claim in claims:
        got = verify_witness(claim, cache_dir)
        want = _reference_verify_witness(claim, cache_dir)
        for name in compared:
            assert getattr(got, name) == getattr(want, name), (claim, name)


def test_witness_rows_agree_with_exact_graphs(graph, cache_dir):
    # where a lemma applies at a cataloged degree, its certified adjacency set
    # must be exactly the witness's row in the exact graph
    cases = [
        ("mun", 11, GroupKind.SYM), ("mun", 12, GroupKind.SYM),
        ("mun", 12, GroupKind.ALT), ("mun", 13, GroupKind.SYM),
        ("enne_odd", 11, GroupKind.SYM), ("enne_odd", 13, GroupKind.SYM),
        ("enne_even", 12, GroupKind.SYM), ("enne_even", 12, GroupKind.ALT),
        ("jd", 12, GroupKind.ALT),
    ]
    for lemma, n, group in cases:
        claim = construct_witness(lemma, n, group)
        report = verify_witness(claim, cache_dir)
        assert report.acceptable, (lemma, n)
        g = graph(n, group)
        idx = next(
            i for i, v in enumerate(g.vertices) if v.cycle_type == claim.witness
        )
        row_types = {
            g.vertices[j].cycle_type
            for j in range(len(g.vertices))
            if g.adjacency[idx] >> j & 1
        }
        expected = set(claim.targets) | set(report.allowed_extras)
        assert row_types <= expected, (lemma, n, row_types)
        assert set(claim.targets) <= row_types, (lemma, n)


def test_small_nonsum_pairs_verifier():
    ok15, _ = verify_sper(15)
    assert ok15
    ok20, _ = verify_sper(20)
    assert ok20
    # outside the stated range the check simply reports what it finds
    ok14, ce14 = verify_sper(14)
    assert isinstance(ok14, bool)
    # the stated range has one genuine exception: a completing pair at 17
    ok17, ce17 = verify_sper(17)
    assert not ok17
    assert {p.parts for p in ce17} == {(12, 3, 2), (7, 6, 4)}


def _sper_pair_loop(n):
    # the quadratic scan over all partition pairs a <= b, kept as a reference
    parts = list(enumerate_partitions(n))
    half_mask = (1 << (n // 2 + 1)) - 2
    masks = [partial_sum_mask(p) for p in parts]
    good = [
        any(not m >> i & 1 and not m >> (2 * i) & 1 for i in (2, 3, 5, 7)) for m in masks
    ]
    for a in range(len(parts)):
        ma = masks[a] & half_mask
        for b in range(a, len(parts)):
            if ma & masks[b]:
                continue
            if not (good[a] or good[b]):
                return False, (parts[a], parts[b])
    return True, None


def test_sper_matches_pair_loop():
    # same verdict and the same ordered pair, including the exceptions at 14 and 17
    for n in range(1, 25):
        assert verify_sper(n) == _sper_pair_loop(n), n
    assert [p.parts for p in verify_sper(14)[1]] == [(9, 3, 2), (6, 4, 4)]
    assert [p.parts for p in verify_sper(17)[1]] == [(12, 3, 2), (7, 6, 4)]


def _disjoint_partner_scan(masks, top):
    # the pairwise scan the per-bit index replaced, kept as its reference
    half_mask = (1 << (top + 1)) - 2
    return [
        sum(1 << b for b, mb in enumerate(masks) if not ma & half_mask & mb) for ma in masks
    ]


def test_sper_index_matches_the_pairwise_scan():
    for n in range(1, 31):
        masks = sorted(_sum_masks(n))
        for top in range(n // 2 + 1):
            assert _disjoint_partners(masks, top) == _disjoint_partner_scan(masks, top), (n, top)
    rng = random.Random(5)
    for _ in range(300):
        masks = [rng.getrandbits(12) for _ in range(rng.randrange(1, 40))]
        top = rng.randrange(0, 12)
        assert _disjoint_partners(masks, top) == _disjoint_partner_scan(masks, top), (masks, top)
    # masks over three or more lanes, with top on and beside a lane boundary
    # and bits set above it
    w = _LANE_BITS
    for _ in range(100):
        masks = [rng.getrandbits(3 * w + 8) for _ in range(rng.randrange(1, 40))]
        top = rng.choice([w - 1, w, w + 1, 2 * w, 3 * w + 1, rng.randrange(2 * w, 3 * w + 7)])
        assert _disjoint_partners(masks, top) == _disjoint_partner_scan(masks, top), (masks, top)
    for top in (0, 1, w, 3 * w + 1):
        assert _disjoint_partners([], top) == []
        assert _disjoint_partners([0b110], top) == [int(top < 1)]
        assert _disjoint_partners([1 << 40 | 1], top) == [1]
    two, three, five, seven = (1 << i | 1 << 2 * i for i in (2, 3, 5, 7))
    for n in range(31, 37):
        bad = [m for m in _sum_masks(n) if m & two and m & three and m & five and m & seven]
        assert _disjoint_partners(bad, n // 2) == _disjoint_partner_scan(bad, n // 2), n


def test_sper_mask_set_is_every_partitions_mask():
    for n in range(1, 31):
        expected = {partial_sum_mask(p) for p in enumerate_partitions(n)}
        assert _sum_masks(n) == expected, n


def test_sper_first_partition_is_first_in_enumeration_order():
    for n in range(1, 21):
        first = {}
        for p in enumerate_partitions(n):
            first.setdefault(partial_sum_mask(p), p)
        for mask, p in first.items():
            assert _first_partition(n, mask) == p, (n, p)


def test_sper_rejects_a_degree_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError):
            verify_sper(n)


def test_sper_verified_18_to_36():
    for n in range(18, 37):
        assert verify_sper(n) == (True, None), n


def test_sper_verified_37_to_42():
    for n in range(37, 43):
        assert verify_sper(n) == (True, None), n


def _even_class_count(m: int) -> int:
    # the even classes of S_m, identity excluded, number (p(m) + d(m)) / 2 - 1:
    # p(m) counts partitions and d(m) partitions into distinct odd parts, the
    # difference between even and odd classes; both from coefficient
    # recurrences of their generating functions
    p = [1] + [0] * m
    d = [1] + [0] * m
    for part in range(1, m + 1):
        for j in range(part, m + 1):
            p[j] += p[j - part]
        if part % 2:
            for j in range(m, part - 1, -1):
                d[j] += d[j - part]
    return (p[m] + d[m]) // 2 - 1


def _moved_degree(n: int, group: GroupKind) -> int:
    # the family lives on n/2 points at even n, (n+1)/2 in S_n at odd n,
    # and n/p in A_n at odd n with p the smallest prime factor of n
    if n % 2 == 0:
        return n // 2
    if group is GroupKind.SYM:
        return (n + 1) // 2
    return n // min(p for p in range(3, n + 1) if n % p == 0)


def test_isolated_family_counts_and_membership(graph):
    for n in range(6, 14):
        for group in (GroupKind.SYM, GroupKind.ALT):
            if n % 2 and group is GroupKind.ALT and is_prime(n):
                continue
            members = build_isolated_family(n, group)
            assert len(members) == _even_class_count(_moved_degree(n, group)), (n, group)
            assert verify_isolated_family(n, group)
            iso = {v.cycle_type for v in isolated_vertices(graph(n, group))}
            assert set(members) <= iso, (n, group)


def test_witness_with_no_targets_is_isolated_in_exact_graphs(graph, cache_dir):
    # an unsplit vertex certifies as a witness with no targets exactly when
    # its row in the exact graph is empty
    checked = 0
    for n in sorted(EXACT_DEGREES):
        if n < 5:
            continue
        for group in (GroupKind.SYM, GroupKind.ALT):
            g = graph(n, group)
            for label, row in zip(g.vertices, g.adjacency):
                if label.split is not Split.NONE:
                    continue
                claim = WitnessClaim("isolated", n, group, label.cycle_type, ())
                assert verify_witness(claim, cache_dir).nonadjacency_ok == (row == 0), label
                checked += 1
    assert checked == 1686


def test_isolated_family_certified_without_catalog(monkeypatch):
    def no_catalog(self, parts, cache_dir):
        raise AssertionError(f"catalog read for {parts}")

    monkeypatch.setattr(TypeProfile, "primitive_masks", no_catalog)
    cases = 0
    for n in range(6, 41):
        for group in (GroupKind.SYM, GroupKind.ALT):
            if n % 2 and group is GroupKind.ALT and is_prime(n):
                with pytest.raises(InadmissibleDegree):
                    build_isolated_family(n, group)
                continue
            assert verify_isolated_family(n, group), (n, group)
            family = build_isolated_family(n, group)
            assert len(family) == _even_class_count(_moved_degree(n, group)), (n, group)
            cases += 1
    assert cases == 61


def test_isolated_family_examples():
    twelve = build_isolated_family(12, GroupKind.SYM)
    assert all(p.multiplicity(1) >= 6 for p in twelve)
    assert len(twelve) == _even_class_count(6) == 5
    nine = build_isolated_family(9, GroupKind.ALT)
    assert nine == [Partition([3] + [1] * 6)]
    thirteen = build_isolated_family(13, GroupKind.SYM)
    assert len(thirteen) == 7  # even classes of degree 7


def test_lm_degree_19(cache_dir):
    ok, predicted = verify_lm(19, cache_dir)
    assert ok
    assert predicted == [Partition([3] * 6 + [1])]


def test_lm_rejects_bad_degrees(cache_dir):
    for bad in (9, 11, 13, 23):  # nonprime / excluded / projective cardinality
        with pytest.raises(InadmissibleDegree):
            verify_lm(bad, cache_dir)


def test_table1(cache_dir):
    rows = table1(cache_dir)
    assert rows == [
        (3, 1, 1), (4, 1, 2), (5, 3, 2), (6, "null graph", 2),
        (7, 4, 2), (8, 6, 3), (9, 3, 3), (10, 4, 3),
    ]


# Runs every witness claim construct_witness accepts at n = 11..129 and
# prints the claim count and the sizes of the process-lifetime caches.
_CLAIMS_THEN_CACHE_SIZES = """
import json, sys
from invgraph import subgroup_membership as sm
from invgraph import witness_verifier as wv
from invgraph.permutations import GroupKind
claims = 0
for lemma in wv.LEMMA_IDS[1:]:
    for group in GroupKind:
        for n in range(11, 130):
            try:
                claim = wv.construct_witness(lemma, n, group)
            except wv.InadmissibleDegree:
                continue
            wv.verify_witness(claim, sys.argv[1])
            claims += 1
caches = (sm.type_profile, sm.wreath_member, sm.primitive_catalog)
print(json.dumps([claims, *(f.cache_info().currsize for f in caches)]))
"""


def test_witness_claims_leave_bounded_caches(tmp_path):
    # the caches live as long as the process, so the claims run in a fresh one
    src = os.path.dirname(os.path.dirname(invgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CLAIMS_THEN_CACHE_SIZES, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    claims, profiles, wreath, catalogs = json.loads(done.stdout)
    assert claims == 514
    # the counts when this test was written: a profile per degree and group
    # claimed, a catalog per exact degree from 11 up, and the block
    # memberships of the types the claims name (none since the profiles read
    # ``_block_bits``)
    assert profiles <= 207
    assert wreath <= 4190
    assert catalogs <= 5
