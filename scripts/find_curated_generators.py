#!/usr/bin/env python3
"""Re-derive the searched generator stanzas in the curated data file.

The two Mathieu stanzas use classical generating sets; this script verifies
them by closure and then searches inside them for the two derived entries:
the degree-12 transitive copy of M11 (inside M12) and the degree-11 copy of
PSL(2,11) (inside M11).  The search keeps a candidate pair when the order
of its stabilizer chain equals the target order and the pair is transitive.
Output is in the data-file stanza format, so a fresh run can be pasted over
src/invgraph/data/curated_groups.txt.

Both searches are seeded and deterministic.
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

M11_GENS = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]
M12_GENS = M11_GENS + ["(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"]


def closure_of(texts, degree):
    gens = [parse_cycles(t, degree) for t in texts]
    return gens, closure_images([g.images for g in gens], degree)


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


def stanza(name, degree, family, order, gens):
    lines = [f"group {name}", f"degree {degree}", f"family {family}", f"order {order}"]
    lines += [f"gen {format_cycles(g)}" for g in gens]
    return "\n".join(lines)


def main():
    t0 = time.time()
    m11_gens, m11 = closure_of(M11_GENS, 11)
    assert len(m11) == 7920 and is_transitive(m11_gens, 11)
    print(stanza("M11", 11, "mathieu", 7920, m11_gens), end="\n\n")

    m12_gens, m12 = closure_of(M12_GENS, 12)
    assert len(m12) == 95040 and is_transitive(m12_gens, 12)
    print(stanza("M12", 12, "mathieu", 95040, m12_gens), end="\n\n")

    found = search_subgroup(m12, 12, 7920, (11, 1), seed=1)
    print(stanza("M11@12", 12, "mathieu", 7920, found), end="\n\n")

    found = search_subgroup(m11, 11, 660, (11,), seed=2)
    print(stanza("PSL(2,11)@11", 11, "projective", 660, found), end="\n\n")
    print(f"# done in {time.time() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
