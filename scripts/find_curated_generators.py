#!/usr/bin/env python3
"""Re-derive the two searched generator pairs of the primitive-group catalog.

The catalog lists M11 and M12 by classical generators (``M11_GENERATORS``
and ``M12_GENERATORS`` in ``invgraph.subgroup_membership``).  This script
checks both sets by closure, for order and transitivity, and then searches
inside them for the two pairs the catalog rows of degrees 11 and 12 list:
the degree-12 transitive copy of M11 (inside M12) and the degree-11 copy of
PSL(2,11) (inside M11).  A search keeps a candidate pair when the order of
its stabilizer chain equals the target order and the pair is transitive.
Each pair prints in cycle notation, as the catalog rows write it.

Both searches are seeded and deterministic.  Run it from the repository root:

    PYTHONPATH=src python scripts/find_curated_generators.py
"""

import random
import sys
import time

from invgraph.permutations import (
    Permutation,
    chain_order,
    closure_images,
    cycle_type_of_images,
    format_cycles,
    is_transitive,
    parse_cycles,
    stabilizer_chain,
)
from invgraph.subgroup_membership import M11_GENERATORS, M12_GENERATORS


def checked_closure(texts, degree, order):
    """Every element of the group the texts generate, after checking that the
    group is transitive of the given order."""
    gens = [parse_cycles(t, degree) for t in texts]
    elements = closure_images([g.images for g in gens], degree)
    if len(elements) != order or not is_transitive(gens, degree):
        raise RuntimeError(f"{texts} do not generate a transitive group of order {order}")
    return elements


def search_subgroup(elements, degree, target_order, x_type, seed):
    """Deterministic random search for a transitive 2-generated subgroup."""
    rng = random.Random(seed)
    pool = sorted(elements)
    x = next(e for e in pool if cycle_type_of_images(e) == x_type)
    while True:
        y = pool[rng.randrange(len(pool))]
        if chain_order(stabilizer_chain([x, y], degree)) != target_order:
            continue
        gens = [Permutation(x), Permutation(y)]
        if is_transitive(gens, degree):
            return gens


def searched_pairs():
    """Check M11 and M12 by closure, then return each searched pair by name,
    in cycle notation."""
    m11 = checked_closure(M11_GENERATORS, 11, 7920)
    m12 = checked_closure(M12_GENERATORS, 12, 95040)
    found = {
        "M11@12": search_subgroup(m12, 12, 7920, (11, 1), seed=1),
        "PSL(2,11)@11": search_subgroup(m11, 11, 660, (11,), seed=2),
    }
    return {name: tuple(format_cycles(g) for g in gens) for name, gens in found.items()}


def main():
    t0 = time.time()
    for name, cycles in searched_pairs().items():
        print(name, *cycles)
    print(f"# done in {time.time() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
