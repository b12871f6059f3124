"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time

from invgraph.arith import is_prime, primes, proper_block_sizes
from invgraph.partitions import (
    Partition,
    enumerate_partitions,
    partial_sum_mask,
    power_type,
)
from invgraph.permutations import ClassLabel, GroupKind, Split
from invgraph.graph_engine import (
    SpecialDiameter,
    adjacency_diff,
    diameter,
    isolated_vertices,
    oracle_adjacency,
    xi_subgraph,
)
from invgraph.subgroup_membership import wreath_member, wreath_member_oracle
from invgraph.witness_verifier import construct_witness, verify_sper, verify_witness


def _report(number: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())


TABLE1_EXPECTED = {
    3: (1, 1), 4: (1, 2), 5: (3, 2), 6: ("null graph", 2),
    7: (4, 2), 8: (6, 3), 9: (3, 3), 10: (4, 3),
}


def test_criterion_01_small_degree_table(graph):
    start = time.time()
    got = {}
    for n in range(3, 11):
        row = []
        for group in (GroupKind.SYM, GroupKind.ALT):
            d = diameter(xi_subgraph(graph(n, group)))
            row.append("null graph" if d is SpecialDiameter.EMPTY else d)
        got[n] = tuple(row)
    elapsed = time.time() - start
    ok = got == TABLE1_EXPECTED and elapsed < 300
    _report("1", ok, f"degrees 3..10 in {elapsed:.1f}s")
    assert got == TABLE1_EXPECTED
    assert elapsed < 300


def test_criterion_02_degree_six_empty_graph(graph):
    g = graph(6, GroupKind.SYM)
    ok = len(g.vertices) == 10 and len(g.edges()) == 0
    _report("2", ok, f"{len(g.vertices)} vertices, {len(g.edges())} edges")
    assert ok


def test_criterion_03_exact_diameters_11_to_13(graph):
    expected = {
        (11, GroupKind.SYM): 4, (12, GroupKind.SYM): 5, (13, GroupKind.SYM): 4,
        (11, GroupKind.ALT): 3, (12, GroupKind.ALT): 4, (13, GroupKind.ALT): 3,
    }
    got = {
        key: diameter(xi_subgraph(graph(*key))) for key in expected
    }
    ok = got == expected
    _report("3", ok, str(sorted((k[0], k[1].value, v) for k, v in got.items())))
    assert got == expected


def test_criterion_04_degree_17_alternating(graph):
    start = time.time()
    d = diameter(xi_subgraph(graph(17, GroupKind.ALT)))
    elapsed = time.time() - start
    ok = d == 3 and elapsed < 1800
    _report("4", ok, f"d(Xi(A_17)) = {d} in {elapsed:.1f}s")
    assert d == 3
    assert elapsed < 1800


def test_criterion_05_isolated_vertex_characterization(graph):
    exceptions = set()
    for n in range(3, 14):
        for group in (GroupKind.SYM, GroupKind.ALT):
            if not isolated_vertices(graph(n, group)):
                exceptions.add((n, group))
    expected = {(3, GroupKind.SYM), (3, GroupKind.ALT), (4, GroupKind.ALT)}
    ok = exceptions == expected
    _report("5", ok, f"isolated-free graphs: {sorted((n, g.value) for n, g in exceptions)}")
    assert exceptions == expected


def test_criterion_06_degree_19_isolated_set(graph):
    iso = [v.cycle_type for v in isolated_vertices(graph(19, GroupKind.ALT))]
    expected = [Partition([3] * 6 + [1])]
    ok = iso == expected
    _report("6", ok, f"isolated of the degree-19 alternating graph: {[str(p) for p in iso]}")
    assert iso == expected


def test_criterion_07_edge_oracle(graph):
    start = time.time()
    total_diffs = 0
    for n in (5, 6, 7, 8):
        for group in (GroupKind.SYM, GroupKind.ALT):
            diffs = adjacency_diff(graph(n, group), oracle_adjacency(n, group))
            total_diffs += len(diffs)
    elapsed = time.time() - start
    ok = total_diffs == 0 and elapsed < 600
    _report("7", ok, f"{total_diffs} diffs in {elapsed:.1f}s")
    assert total_diffs == 0
    assert elapsed < 600


def test_criterion_08_wreath_oracle():
    diffs = []
    for n in (4, 6, 8, 9, 10, 12):
        for m in proper_block_sizes(n):
            for t in enumerate_partitions(n):
                if wreath_member(t, m) != wreath_member_oracle(t, m):
                    diffs.append((t, m))
    ok = not diffs
    _report("8", ok, f"{len(diffs)} diffs")
    assert diffs == []


def _witness_cases():
    for n in range(11, 61):
        if n % 2:
            yield "mun", n, None
            if n != 18:
                yield "enne_odd", n, None
        else:
            yield "mun", n, GroupKind.SYM
            yield "mun", n, GroupKind.ALT
            if n != 18:
                yield "enne_even", n, GroupKind.SYM
                yield "enne_even", n, GroupKind.ALT
    for n in range(21, 122, 2):
        if not is_prime(n):
            yield "p", n, None
    for n in range(50, 121, 2):
        d = n // 2
        if d >= 25 and d % 2 and not is_prime(d):
            yield "p", n, None
    for n in range(16, 61, 2):
        if n == 18 or not is_prime(n - 1):
            yield "sim", n, None
    for n in range(12, 97, 4):
        d = n
        j = 0
        while d % 2 == 0:
            d //= 2
            j += 1
        if j >= 2 and d >= 3:
            yield "jd", n, None
    for m in (6, 8, 9):
        yield "p2", 2**m, None
    for n in range(33, 122, 2):
        if not is_prime(n):
            yield "altodd_z", n, None
            if n != 33:
                yield "altodd_w", n, None


def test_criterion_09_witness_suite(cache_dir):
    start = time.time()
    failures = []
    ledgered = []
    count = 0
    for lemma, n, group in _witness_cases():
        count += 1
        report = verify_witness(construct_witness(lemma, n, group), cache_dir)
        if not report.acceptable:
            failures.append((lemma, n, report.counterexamples, report.adjacency_failures))
        elif report.ledger:
            ledgered.append((lemma, n))
    elapsed = time.time() - start
    ok = not failures and elapsed < 1200
    _report("9", ok, f"{count} claims, {len(ledgered)} ledgered ({ledgered}), {elapsed:.1f}s")
    assert failures == []
    assert elapsed < 1200


def test_criterion_10_property_suites(graph):
    rng = random.Random(1)
    # partial-sum complement symmetry and the power composition law
    for _ in range(200):
        n = rng.randint(1, 30)
        parts = []
        while sum(parts) < n:
            parts.append(rng.randint(1, n - sum(parts)))
        p = Partition(parts)
        mask = partial_sum_mask(p)
        assert all((mask >> i & 1) == (mask >> (n - i) & 1) for i in range(n + 1))
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        assert power_type(power_type(p, a), b) == power_type(p, a * b)
    # structure at the first missing sum, exhaustively to degree 25
    for n in range(2, 26):
        for p in enumerate_partitions(n):
            mask = partial_sum_mask(p)
            missing = [i for i in range(1, n // 2 + 1) if not mask >> i & 1]
            if missing:
                i = missing[0]
                assert sum(x for x in p.parts if x < i) == i - 1
                assert all(x >= i + 1 for x in p.parts if x >= i)
    # no twin-class edges in any built alternating graph (degree >= 4)
    for n in list(range(4, 14)) + [17, 19]:
        g = graph(n, GroupKind.ALT)
        index = {v: i for i, v in enumerate(g.vertices)}
        for v in g.vertices:
            if v.split is Split.PLUS:
                twin = ClassLabel(v.cycle_type, v.group, Split.MINUS)
                assert not g.adjacency[index[v]] >> index[twin] & 1
    # dimension-two-only solutions for twice a prime
    from invgraph.primitive_rules import projective_cardinality_solutions

    for p in primes(5000):
        if p > 2:
            assert all(d == 2 for _, d in projective_cardinality_solutions(2 * p))
    _report("10 (properties)", True, "symmetry, powers, gap structure, twins, dimension scan")


def test_criterion_10_small_nonsum_pairs_15_to_24():
    # the stated expectation is Verified at every 15 <= n <= 24; the check is
    # implemented faithfully and n = 17 genuinely fails: (12,3,2) and (7,6,4)
    # have disjoint partial sums yet i or 2i is reached for every i in
    # {2,3,5,7} on both sides (2+3+12 = 4+6+7 = 17, so both complete early).
    results = {n: verify_sper(n) for n in range(15, 25)}
    bad = {n: ce for n, (ok, ce) in results.items() if not ok}
    ok = not bad
    detail = "all verified" if ok else ", ".join(
        f"n={n}: {tuple(str(p) for p in ce)}" for n, ce in bad.items()
    )
    _report("10 (disjoint-sum pairs)", ok, detail)
    assert ok, f"counterexamples found: {detail}"
