import json

import pytest

from invgraph.partitions import Partition
from invgraph.permutations import ClassLabel, GroupKind, Split
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
from invgraph.subgroup_membership import CatalogAbsent


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
    with pytest.raises(CatalogAbsent):
        build_graph(14, GroupKind.SYM, cache_dir)


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
        if fp.mirror_differs
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


def test_oracle_rejects_large_degree():
    with pytest.raises(ValueError):
        oracle_adjacency(8, GroupKind.SYM)


def test_set_bit_walks_match_per_bit_reference(graph):
    for n, group in ((9, GroupKind.ALT), (12, GroupKind.SYM)):
        g = graph(n, group)
        count = len(g.vertices)

        def bits(row):
            return [j for j in range(count) if row >> j & 1]

        assert g.edges() == [
            (i, j) for i in range(count) for j in bits(g.adjacency[i]) if j > i
        ]
        for i in range(count):
            assert g.neighbours(i) == bits(g.adjacency[i])
            assert g.degree_of(i) == len(bits(g.adjacency[i]))
        # toggle the pairs (0, k) for every third k, in both rows
        rows = list(g.adjacency)
        for k in range(1, count, 3):
            rows[0] ^= 1 << k
            rows[k] ^= 1
        other = ClassGraph(n, group, g.vertices, tuple(rows))
        assert adjacency_diff(g, other) == [
            (g.vertices[0], g.vertices[k]) for k in range(1, count, 3)
        ]
