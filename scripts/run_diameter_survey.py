#!/usr/bin/env python3
"""Survey every cataloged degree: vertex counts, isolated counts, diameters.

Usage: python scripts/run_diameter_survey.py [--cache-dir DIR]

``build_s`` is the time to build the graph and its reduced graph ``Xi``,
``diameter_s`` the time to measure the diameter of ``Xi``; both are wall
seconds by ``time.perf_counter``.

The cache directory defaults to INVGRAPH_CACHE_DIR, else ./.invgraph-cache,
as for the ``invgraph`` command.
"""

import argparse
import time

from invgraph.graph_engine import (
    SpecialDiameter,
    build_graph,
    diameter,
    isolated_vertices,
    xi_subgraph,
)
from invgraph.permutations import GroupKind
from invgraph.subgroup_membership import EXACT_DEGREES, default_cache_dir


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", default=str(default_cache_dir()))
    args = parser.parse_args(argv)

    print(
        f"{'graph':>8} {'vertices':>9} {'isolated':>9} {'edges':>7} {'d(Xi)':>10} "
        f"{'build_s':>10} {'diameter_s':>10}"
    )
    for n in sorted(EXACT_DEGREES):
        for group in (GroupKind.SYM, GroupKind.ALT):
            t0 = time.perf_counter()
            g = build_graph(n, group, args.cache_dir)
            xi = xi_subgraph(g)
            t1 = time.perf_counter()
            d = diameter(xi)
            t2 = time.perf_counter()
            shown = "null" if d is SpecialDiameter.EMPTY else d
            tag = f"{'S' if group is GroupKind.SYM else 'A'}_{n}"
            print(
                f"{tag:>8} {len(g.vertices):>9} {len(isolated_vertices(g)):>9} "
                f"{len(g.edges()):>7} {str(shown):>10} {t1 - t0:>10.6f} {t2 - t1:>10.6f}"
            )


if __name__ == "__main__":
    main()
