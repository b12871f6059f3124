"""Invariable-generation class graphs of symmetric and alternating groups.

The package builds, for S_n and A_n, the graph whose vertices are the
nontrivial conjugacy classes and whose edges join classes that invariably
generate the group.  Adjacency is decided exactly from subgroup sharing
(parity, partial sums, block systems, and a complete catalog of the
primitive groups of the supported degrees), isolated vertices are removed
to form the reduced graph, and diameters are found by growing every
vertex's ball at once over the adjacency bit masks.  A separate
verifier certifies the adjacency profile of the structured witness
vertices used to force diameter lower bounds at degrees beyond exact
computation.
"""

from invgraph.partitions import Partition, power_type
from invgraph.permutations import GroupKind, Permutation, Split, conjugator, split_label
from invgraph.graph_engine import (
    ClassGraph,
    SpecialDiameter,
    build_graph,
    diameter,
    export,
    isolated_vertices,
    xi_subgraph,
)
from invgraph.subgroup_membership import (
    ClassLabel,
    class_labels,
    primitive_catalog,
    shares_subgroup,
    wreath_member,
)

__all__ = [
    "ClassGraph",
    "ClassLabel",
    "GroupKind",
    "Partition",
    "Permutation",
    "SpecialDiameter",
    "Split",
    "build_graph",
    "class_labels",
    "conjugator",
    "diameter",
    "export",
    "isolated_vertices",
    "power_type",
    "primitive_catalog",
    "shares_subgroup",
    "split_label",
    "wreath_member",
    "xi_subgraph",
]

__version__ = "0.1.0"
