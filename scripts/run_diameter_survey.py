#!/usr/bin/env python3
"""Survey every cataloged degree: vertex counts, isolated counts, diameters.

Usage: python scripts/run_diameter_survey.py [--cache-dir DIR]

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

    print(f"{'graph':>8} {'vertices':>9} {'isolated':>9} {'edges':>7} {'d(Xi)':>10} {'secs':>6}")
    for n in sorted(EXACT_DEGREES):
        for group in (GroupKind.SYM, GroupKind.ALT):
            t0 = time.time()
            g = build_graph(n, group, args.cache_dir)
            d = diameter(xi_subgraph(g))
            shown = "null" if d is SpecialDiameter.EMPTY else d
            tag = f"{'S' if group is GroupKind.SYM else 'A'}_{n}"
            print(
                f"{tag:>8} {len(g.vertices):>9} {len(isolated_vertices(g)):>9} "
                f"{len(g.edges()):>7} {str(shown):>10} {time.time() - t0:>6.1f}"
            )


if __name__ == "__main__":
    main()
