import collections
import hashlib
import itertools
import json
from functools import lru_cache
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgraph import graph_engine, permutations
from invgraph.partitions import Partition, enumerate_partitions, has_distinct_odd_parts
from invgraph.permutations import (
    ClassLabel,
    GroupKind,
    Permutation,
    Split,
    class_labels,
    closure_images,
    conjugacy_class,
    cycle_type_of_images,
    cyclic_powers,
    split_label,
    symmetric_group_generators,
)
from invgraph.graph_engine import (
    ClassGraph,
    SpecialDiameter,
    adjacency_diff,
    build_graph,
    diameter,
    export,
    isolated_vertices,
    oracle_adjacency,
    xi_subgraph,
)
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    CatalogAbsent,
    TypeProfile,
    degree_fingerprints,
    shares_subgroup,
    type_profile,
)


def test_smallest_graphs(graph):
    s3 = graph(3, GroupKind.SYM)
    assert len(s3.vertices) == 2 and s3.edges() == [(0, 1)]
    assert diameter(xi_subgraph(s3)) == 1
    a4 = graph(4, GroupKind.ALT)
    assert [v.text() for v in a4.vertices] == ["3,1+", "3,1-", "2,2"]
    assert isolated_vertices(a4) == []
    assert diameter(xi_subgraph(a4)) == 2


def test_degree_six_symmetric_graph_is_empty(graph):
    g = graph(6, GroupKind.SYM)
    assert len(g.vertices) == 10
    assert g.edges() == []
    xi = xi_subgraph(g)
    assert xi.vertices == ()
    assert diameter(xi) is SpecialDiameter.EMPTY


def test_vertex_counts(graph):
    from invgraph.partitions import enumerate_partitions, is_even_type, has_distinct_odd_parts

    for n in (5, 8, 11):
        parts = list(enumerate_partitions(n))
        assert len(graph(n, GroupKind.SYM).vertices) == len(parts) - 1
        evens = [p for p in parts if is_even_type(p) and p.parts != (1,) * n]
        splits = [p for p in evens if has_distinct_odd_parts(p)]
        assert len(graph(n, GroupKind.ALT).vertices) == len(evens) + len(splits)


def test_adjacency_is_symmetric_and_loop_free(graph):
    for n, group in ((7, GroupKind.SYM), (9, GroupKind.ALT)):
        g = graph(n, group)
        for i, row in enumerate(g.adjacency):
            assert not row >> i & 1
            for j in range(len(g.vertices)):
                assert (row >> j & 1) == (g.adjacency[j] >> i & 1)


def test_no_edges_between_twin_split_classes(graph):
    # the two classes sharing a cycle type are never joined (degree >= 4)
    for n in range(4, 14):
        g = graph(n, GroupKind.ALT)
        index = {v: i for i, v in enumerate(g.vertices)}
        for v in g.vertices:
            if v.split is Split.PLUS:
                twin = ClassLabel(v.cycle_type, v.group, Split.MINUS)
                assert not g.adjacency[index[v]] >> index[twin] & 1, v


def test_isolated_examples(graph):
    a11 = graph(11, GroupKind.ALT)
    iso = {v.cycle_type for v in isolated_vertices(a11)}
    assert Partition([2, 2, 2, 2, 1, 1, 1]) in iso  # the involution class inside M11
    for n in range(5, 14):
        g = graph(n, GroupKind.SYM)
        iso = {v.cycle_type for v in isolated_vertices(g)}
        assert Partition([3] + [1] * (n - 3)) in iso, n


def test_reduced_graph_keeps_nonisolated_only(graph):
    g = graph(8, GroupKind.SYM)
    xi = xi_subgraph(g)
    assert len(xi.vertices) == 9 and len(xi.edges()) == 8
    assert diameter(xi) == 6
    assert all(row for row in xi.adjacency)
    again = xi_subgraph(xi)
    assert again.vertices == xi.vertices and again.adjacency == xi.adjacency


def test_diameter_degenerate_cases():
    one = ClassGraph_single()
    assert diameter(one) == 0
    two = one.__class__(5, GroupKind.SYM, one.vertices * 2, (0, 0))
    assert diameter(two) is SpecialDiameter.DISCONNECTED


def ClassGraph_single():
    from invgraph.graph_engine import ClassGraph

    vertex = ClassLabel(Partition([5]), GroupKind.SYM)
    return ClassGraph(5, GroupKind.SYM, (vertex,), (0,))


def test_build_rejects_uncataloged_degrees(cache_dir):
    with pytest.raises(CatalogAbsent) as info:
        build_graph(14, GroupKind.SYM, cache_dir)
    # the message names every supported degree
    listed = str(info.value).split("degrees ", 1)[1].split(";", 1)[0]
    assert [int(d) for d in listed.split(", ")] == sorted(EXACT_DEGREES)


def test_diameter_invariant_under_vertex_reordering(graph):
    from invgraph.graph_engine import ClassGraph

    g = xi_subgraph(graph(5, GroupKind.SYM))
    count = len(g.vertices)
    order = list(reversed(range(count)))
    rows = []
    for new_i in range(count):
        row = 0
        for new_j in range(count):
            if g.adjacency[order[new_i]] >> order[new_j] & 1:
                row |= 1 << new_j
        rows.append(row)
    shuffled = ClassGraph(
        g.degree, g.group, tuple(g.vertices[i] for i in order), tuple(rows)
    )
    assert diameter(shuffled) == diameter(g)


def _bfs_diameter(rows):
    """Reference: one breadth-first search from every vertex over neighbour lists."""
    count = len(rows)
    if count == 0:
        return SpecialDiameter.EMPTY
    near = [[j for j in range(count) if row >> j & 1] for row in rows]
    best = 0
    for start in range(count):
        dist = {start: 0}
        queue = [start]
        for v in queue:  # queue grows while it is walked
            for w in near[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) < count:
            return SpecialDiameter.DISCONNECTED
        best = max(best, max(dist.values()))
    return best


def _graph_of_rows(rows):
    vertex = ClassLabel(Partition([5]), GroupKind.SYM)
    return ClassGraph(5, GroupKind.SYM, (vertex,) * len(rows), tuple(rows))


@st.composite
def _symmetric_rows(draw):
    """Bit-mask rows of a loop-free undirected graph on up to 16 vertices.

    Random edges leave some rows empty; half the draws add a random spanning
    tree, which makes the graph connected with a spread of diameters.
    """
    count = draw(st.integers(0, 16))
    rows = [0] * count
    if count >= 2:
        vertex = st.integers(0, count - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * count))
        if draw(st.booleans()):
            edges += [(i, draw(st.integers(0, i - 1))) for i in range(1, count)]
        for i, j in edges:
            if i != j:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def test_diameter_matches_per_source_bfs(graph):
    @settings(deadline=None)
    @given(_symmetric_rows())
    def check(rows):
        assert diameter(_graph_of_rows(rows)) == _bfs_diameter(rows)

    check()
    path = [0] * 200
    for i in range(199):
        path[i] |= 1 << i + 1
        path[i + 1] |= 1 << i
    assert diameter(_graph_of_rows(path)) == _bfs_diameter(path) == 199
    full = (1 << 30) - 1
    complete = [full ^ 1 << i for i in range(30)]
    assert diameter(_graph_of_rows(complete)) == _bfs_diameter(complete) == 1
    for n in sorted(EXACT_DEGREES):
        for group in (GroupKind.SYM, GroupKind.ALT):
            g = graph(n, group)
            for h in (g, xi_subgraph(g)):
                assert diameter(h) == _bfs_diameter(h.adjacency), (n, group, len(h.vertices))


def test_exports(graph):
    s3 = graph(3, GroupKind.SYM)
    payload = json.loads(export(s3, "json"))
    assert payload["schema"] == 1
    assert len(payload["vertices"]) == 2 and payload["edges"] == [[0, 1]]
    assert payload["xi_diameter"] == 1
    a5 = graph(5, GroupKind.ALT)
    dot = export(a5, "dot")
    assert dot.startswith("graph Lambda_A5 {")
    assert '"5+"' in dot and '"5-"' in dot
    csv = export(graph(6, GroupKind.SYM), "csv")
    assert csv == "v1,v2\n"
    s6 = json.loads(export(graph(6, GroupKind.SYM), "json"))
    assert s6["edges"] == [] and s6["xi_diameter"] == "empty"
    with pytest.raises(ValueError):
        export(s3, "xml")


def test_export_is_byte_stable(graph):
    g = graph(7, GroupKind.ALT)
    for fmt in ("dot", "json", "csv"):
        assert export(g, fmt) == export(g, fmt)


def test_degree_twelve_row_structure(graph):
    # known adjacency rows of the degree-12 symmetric graph
    g = graph(12, GroupKind.SYM)
    index = {str(v.cycle_type): i for i, v in enumerate(g.vertices)}

    def row(text):
        i = index[text]
        return sorted(
            str(g.vertices[j].cycle_type)
            for j in range(len(g.vertices))
            if g.adjacency[i] >> j & 1
        )

    assert row("8,4") == ["7,3,2"]
    assert row("6,5,1") == ["9,3"]
    assert row("7,3,2") == ["11,1", "12", "4,4,4", "6,6", "8,4"]
    assert row("3,1,1,1,1,1,1,1,1,1") == []


def test_asymmetric_split_incidence_exists(cache_dir):
    # at degree 9 the two projective groups meet exactly one of the two
    # 9-cycle classes; their mirrored conjugates meet the other, so the
    # sharing test must consult both orientations
    from invgraph.subgroup_membership import degree_fingerprints

    asym = {
        fp.name
        for fp in degree_fingerprints(9, cache_dir)
        if any(len(inc) == 1 for inc in fp.types.values())
    }
    assert asym == {"PSL(2,8)", "PGammaL(2,8)"}


def test_prime_degree_lower_bound_structure(graph):
    # at prime degree the three-cycle class joins exactly the two full-cycle
    # classes, while (1, h, h) is non-isolated yet misses them: distance >= 3
    for n in (11, 13):
        g = graph(n, GroupKind.ALT)
        index = {v.text(): i for i, v in enumerate(g.vertices)}
        three = index["3," + ",".join(["1"] * (n - 3))]
        row = {
            g.vertices[j].text()
            for j in range(len(g.vertices))
            if g.adjacency[three] >> j & 1
        }
        assert row == {f"{n}+", f"{n}-"}
        h = (n - 1) // 2
        mid = index[f"{h},{h},1"]
        mid_row = {
            g.vertices[j].text()
            for j in range(len(g.vertices))
            if g.adjacency[mid] >> j & 1
        }
        assert mid_row and not any(t.startswith(f"{n}") for t in mid_row)


def test_extended_degree_diameters(graph):
    assert diameter(xi_subgraph(graph(17, GroupKind.SYM))) == 4
    assert diameter(xi_subgraph(graph(19, GroupKind.SYM))) == 4
    assert diameter(xi_subgraph(graph(19, GroupKind.ALT))) == 3


def test_oracle_agreement_small(graph):
    for n, group in ((5, GroupKind.SYM), (5, GroupKind.ALT), (6, GroupKind.ALT)):
        exact = graph(n, group)
        oracle = oracle_adjacency(n, group)
        assert adjacency_diff(exact, oracle) == []


def _reference_class_elements(n, group):
    """Every element of the group, sorted into classes by scanning all n!."""
    alt = group is GroupKind.ALT
    splits = {}
    out = {}
    for images in itertools.permutations(range(n)):
        parts = cycle_type_of_images(images)
        if len(parts) == n:
            continue  # the identity
        split = ""
        if alt:
            if (n - len(parts)) % 2:
                continue
            if parts not in splits:
                splits[parts] = has_distinct_odd_parts(Partition(parts))
            if splits[parts]:
                split = split_label(Permutation(images)).value
        out.setdefault((parts, split), []).append(bytes(images))
    return out


def test_class_elements_match_the_full_scan():
    for n in range(3, 9):
        for group in (GroupKind.SYM, GroupKind.ALT):
            walked = graph_engine._class_elements(n, group)
            scanned = _reference_class_elements(n, group)
            assert walked.keys() == scanned.keys(), (n, group)
            for key, members in walked.items():
                assert len(members) == len(set(members)), (n, group, key)
                assert set(members) == set(scanned[key]), (n, group, key)
            order = factorial(n) // (1 if group is GroupKind.SYM else 2)
            assert sum(map(len, walked.values())) == order - 1, (n, group)


def test_oracle_rejects_large_degree():
    with pytest.raises(ValueError):
        oracle_adjacency(10, GroupKind.SYM)


def test_oracle_generation_test_matches_closure(monkeypatch):
    """Every pair the oracle decides by its chain gets the closure's answer."""
    chain_generates = graph_engine._generates
    pairs = []

    def recording(x, y, n, order):
        pairs.append((x, y, n, order))
        return chain_generates(x, y, n, order)

    monkeypatch.setattr(graph_engine, "_generates", recording)
    for n in (5, 6):
        for group in (GroupKind.SYM, GroupKind.ALT):
            oracle_adjacency(n, group)
    answers = []
    for x, y, n, order in pairs:
        answers.append(len(closure_images([x, y], n)) == order)
        assert chain_generates(x, y, n, order) == answers[-1], (x, y, n)
    assert set(answers) == {True, False}


def test_oracle_raises_when_the_classes_miss_an_element(monkeypatch):
    listed = graph_engine._class_elements

    def short(n, group):
        classes = listed(n, group)
        next(iter(classes.values())).pop()
        return classes

    monkeypatch.setattr(graph_engine, "_class_elements", short)
    with pytest.raises(RuntimeError, match="hold 119 elements, not 120"):
        oracle_adjacency(5, GroupKind.SYM)


def _reference_oracle(n, group):
    """Adjacency with every member y of the second class tested, none skipped."""
    labels = class_labels(n, group)
    classes = graph_engine._class_elements(n, group)
    members = [classes[(lbl.cycle_type.parts, lbl.split.value)] for lbl in labels]
    order = factorial(n) // (1 if group is GroupKind.SYM else 2)
    rows = [0] * len(labels)
    for i, j in itertools.combinations(range(len(labels)), 2):
        fixed, moving = sorted((members[i], members[j]), key=len, reverse=True)
        x = fixed[0]
        if all(graph_engine._generates(x, y, n, order) for y in moving):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def test_oracle_matches_the_reference_without_orbit_skipping():
    for n, group in (
        (5, GroupKind.SYM),
        (5, GroupKind.ALT),
        (6, GroupKind.SYM),
        (6, GroupKind.ALT),
        (7, GroupKind.ALT),
    ):
        assert oracle_adjacency(n, group).adjacency == _reference_oracle(n, group), (n, group)


def test_oracle_skips_the_normalizer_and_unit_power_orbits(monkeypatch):
    # without the skipping the oracle makes 284 tests on A_7 and 2,775 on S_8
    chain_generates = graph_engine._generates
    calls = []

    def counting(x, y, n, order):
        calls.append(n)
        return chain_generates(x, y, n, order)

    monkeypatch.setattr(graph_engine, "_generates", counting)
    for n, group, most in ((7, GroupKind.ALT, 100), (8, GroupKind.SYM, 800)):
        calls.clear()
        oracle_adjacency(n, group)
        assert 0 < len(calls) <= most, (n, group, len(calls))


def test_oracle_marks_the_normalizer_orbits_of_every_unit_power(monkeypatch):
    """The set marked after each generating y is the union of the normalizer
    orbits of y's unit powers, one walk per power as a reference."""
    mark = graph_engine._mark
    marked = []

    def recording(y, normalizer, n, seen):
        fresh = set()
        mark(y, normalizer, n, fresh)
        marked.append((y, normalizer, n, fresh))
        seen.update(fresh)

    monkeypatch.setattr(graph_engine, "_mark", recording)
    for n, group in ((7, GroupKind.ALT), (6, GroupKind.SYM)):
        marked.clear()
        oracle_adjacency(n, group)
        assert marked, (n, group)
        for y, normalizer, n, fresh in marked:
            reference = set()
            powers = cyclic_powers(y)
            for k, power in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1 and power not in reference:
                    reference.update(conjugacy_class(power, normalizer, n))
            assert fresh == reference, (n, group, y)


def test_xi_of_a_graph_without_isolated_vertices_is_itself(graph):
    xi = xi_subgraph(graph(8, GroupKind.SYM))
    assert xi_subgraph(xi) is xi


def test_set_bit_walks_match_per_bit_reference(graph):
    for n, group in ((9, GroupKind.ALT), (12, GroupKind.SYM)):
        g = graph(n, group)
        count = len(g.vertices)

        def bits(row):
            return [j for j in range(count) if row >> j & 1]

        assert g.edges() == [
            (i, j) for i in range(count) for j in bits(g.adjacency[i]) if j > i
        ]
        # toggle the pairs (0, k) for every third k, in both rows
        rows = list(g.adjacency)
        for k in range(1, count, 3):
            rows[0] ^= 1 << k
            rows[k] ^= 1
        other = ClassGraph(n, group, g.vertices, tuple(rows))
        assert adjacency_diff(g, other) == [
            (g.vertices[0], g.vertices[k]) for k in range(1, count, 3)
        ]


def test_verdict_and_export_digests_are_pinned(graph, cache_dir):
    # every per-pair verdict (ordered pairs, diagonal included) and every
    # exact JSON export, SYM then ALT at each degree in increasing order
    verdicts = hashlib.sha256()
    exports = hashlib.sha256()
    for n in sorted(EXACT_DEGREES):
        for group in (GroupKind.SYM, GroupKind.ALT):
            g = graph(n, group)
            for a in g.vertices:
                for b in g.vertices:
                    verdicts.update(repr(shares_subgroup(a, b, cache_dir)).encode())
            exports.update(export(g, "json").encode())
    assert verdicts.hexdigest() == (
        "c381215b2743fb5f76647bb5a89b11f47ab615d116387b32dfc4c56efa54806b"
    )
    assert exports.hexdigest() == (
        "358e71178207f74978c6c798a3777dd60d12669b1166371922e4797c81a35dbd"
    )


def _reference_rows(features):
    """Adjacency rows by the per-vertex column loop: a vertex's non-neighbours
    are itself and every vertex having one of its feature bits."""
    columns = {}
    for i, rest in enumerate(features):
        while rest:
            low = rest & -rest
            columns[low] = columns.get(low, 0) | 1 << i
            rest ^= low
    full = (1 << len(features)) - 1
    rows = []
    for i, rest in enumerate(features):
        blocked = 1 << i
        while rest:
            low = rest & -rest
            blocked |= columns[low]
            rest ^= low
        rows.append(full & ~blocked)
    return rows


def _check_twin_rows(g, features):
    """Every row is the reference row, and vertices with one nonzero
    feature mask hold one row object; returns the number of distinct masks."""
    assert list(g.adjacency) == _reference_rows(features)
    first = {}
    for i, mask in enumerate(features):
        if mask:
            assert g.adjacency[i] is g.adjacency[first.setdefault(mask, i)], g.vertices[i]
    return len(set(features))


def test_twin_classes_share_one_row(graph, cache_dir):
    # only A_3's two classes have mask 0: degree 3 has no block size and no
    # catalog group, and (3) has no partial sum in 1..1
    masks = classes = 0
    for n in sorted(EXACT_DEGREES):
        for group in GroupKind:
            g = graph(n, group)
            features = [v._rules | v._bits for v in g.vertices]
            masks += _check_twin_rows(g, features)
            classes += len(g.vertices)
    assert (masks, classes) == (704, 1753)


def test_vertices_with_mask_zero_get_their_own_rows(cache_dir, monkeypatch):
    # no class of S_7 has mask 0, so two of its vertices are patched to it:
    # each is adjacent to every vertex but itself, the other one included
    features = TypeProfile.features

    def patched(self, labels, cache_dir):
        out = features(self, labels, cache_dir)
        out[0] = out[3] = 0
        return out

    monkeypatch.setattr(TypeProfile, "features", patched)
    g = build_graph.__wrapped__(7, GroupKind.SYM, cache_dir)
    _check_twin_rows(g, patched(type_profile(7, True), g.vertices, cache_dir))
    full = (1 << len(g.vertices)) - 1
    assert g.adjacency[0] == full ^ 1 and g.adjacency[3] == full ^ 1 << 3


def test_both_groups_of_a_degree_enumerate_its_types_once(graph, cache_dir, monkeypatch):
    # with the profiles warm, building S_n and A_n afresh constructs at most
    # p(n) Partitions: the one enumeration the two groups share
    for n in EXACT_DEGREES:
        for group in GroupKind:
            graph(n, group)
    p = {n: sum(1 for _ in enumerate_partitions(n)) for n in EXACT_DEGREES}
    fresh = lru_cache(maxsize=None)(permutations._degree_types.__wrapped__)
    monkeypatch.setattr(permutations, "_degree_types", fresh)
    made = collections.Counter()
    init = Partition.__init__

    def counting(self, parts):
        init(self, parts)
        made[sum(self.parts)] += 1

    monkeypatch.setattr(Partition, "__init__", counting)
    for n in sorted(EXACT_DEGREES):
        for group in GroupKind:
            build_graph.__wrapped__(n, group, cache_dir)
    assert all(made[n] <= p[n] for n in EXACT_DEGREES), made
    assert sum(made.values()) == sum(p.values())


def test_rereading_the_fingerprint_files_builds_no_partition(graph, cache_dir, monkeypatch):
    # the cache reader checks each type's split marks on its part tuple, so
    # builds that reread every fingerprint file construct only the p(n)
    # Partitions of the one enumeration, in whatever order the tests ran
    for n in EXACT_DEGREES:
        for group in GroupKind:
            graph(n, group)
    p = {n: sum(1 for _ in enumerate_partitions(n)) for n in EXACT_DEGREES}
    degree_fingerprints.cache_clear()
    fresh = lru_cache(maxsize=None)(permutations._degree_types.__wrapped__)
    monkeypatch.setattr(permutations, "_degree_types", fresh)
    made = collections.Counter()
    init = Partition.__init__

    def counting(self, parts):
        init(self, parts)
        made[sum(self.parts)] += 1

    monkeypatch.setattr(Partition, "__init__", counting)
    for n in sorted(EXACT_DEGREES):
        for group in GroupKind:
            build_graph.__wrapped__(n, group, cache_dir)
    assert degree_fingerprints.cache_info().misses == len(EXACT_DEGREES)
    assert made == collections.Counter(p), made

