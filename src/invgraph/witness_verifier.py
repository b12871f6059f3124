"""Construct and certify the structured witness vertices at large degree.

Each witness is a partition engineered so that, in the reduced graph, it is
adjacent to exactly one prescribed vertex (or one plus a documented
allowance).  Certification has two sides:

* non-adjacency: every other class shares parity, an intransitive subgroup,
  or a wreath product with the witness.  Candidate exceptions are found
  without enumerating all partitions, by generating only the partitions
  whose partial sums avoid the witness's partial sums.
* target adjacency: no family can contain both.  At cataloged degrees the
  fingerprints decide this outright; elsewhere Jordan's test and the rule
  predicates exclude each arithmetically live family, and any family they
  cannot close is recorded in an assumption ledger instead of being claimed.

Both sides read the same per-class feature masks as the exact graphs.  The
targets ask ``verdict``, whose theorem tier (``primitive_rules``) decides the
pairs that parity, partial sums and block sizes leave open at a degree
without a catalog.  The non-adjacency side needs only a ``Sharing``, which
the theorem tier never returns, so it asks ``shares_subgroup`` and counts a
pair left to the catalog as not shared.

An isolated vertex is a witness with no targets, so ``verify_witness`` also
certifies the structured family of isolated vertices (``In_family``).

``verify_sper`` checks the disjoint-partial-sum statement the witnesses use
from degree 23 upward.  It reads only partial-sum masks: the distinct masks
of n come from a recurrence over the largest allowed part, per-lane union
tables give each bad mask its disjoint bad partners, and partitions are
named only for the masks that have one, to report the first pair in
enumeration order.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from invgraph.arith import is_prime, prime_power, smallest_prime_factor
from invgraph.graph_engine import (
    SpecialDiameter,
    build_graph,
    diameter,
    isolated_vertices,
    xi_subgraph,
)
from invgraph.partitions import (
    Partition,
    enumerate_partitions_with_sums_in,
    even_class_partitions,
    is_even_type,
    partial_sum_mask,
)
from invgraph.permutations import GroupKind
from invgraph.primitive_rules import projective_cardinality_solutions
from invgraph.subgroup_membership import (
    EXACT_DEGREES,
    CatalogAbsent,
    ClassLabel,
    Sharing,
    shares_subgroup,
    type_labels,
    verdict,
)


class InadmissibleDegree(ValueError):
    pass


class WitnessClaim(NamedTuple):
    lemma_id: str
    n: int
    group: GroupKind
    witness: Partition
    targets: tuple[Partition, ...]
    allow_even_extras: bool = False
    require_nonadjacent: tuple[Partition, ...] = ()
    notes: tuple[str, ...] = ()


class WitnessReport(NamedTuple):
    claim: WitnessClaim
    nonadjacency_ok: bool
    counterexamples: tuple[Partition, ...]
    allowed_extras: tuple[Partition, ...]
    adjacency_ok: bool
    adjacency_failures: tuple[str, ...]
    ledger: tuple[str, ...]

    @property
    def fully_certified(self) -> bool:
        return self.nonadjacency_ok and self.adjacency_ok and not self.ledger

    @property
    def acceptable(self) -> bool:
        """Verified non-adjacency and verified-or-ledgered adjacency."""
        return self.nonadjacency_ok and self.adjacency_ok

    def to_json(self) -> str:
        payload = {
            "lemma": self.claim.lemma_id,
            "n": self.claim.n,
            "group": self.claim.group.value,
            "witness": str(self.claim.witness),
            "targets": [str(t) for t in self.claim.targets],
            "nonadjacency": "verified" if self.nonadjacency_ok else "counterexamples",
            "counterexamples": [str(p) for p in self.counterexamples],
            "allowed_extras": [str(p) for p in self.allowed_extras],
            "adjacency": "verified"
            if self.adjacency_ok and not self.ledger
            else ("ledgered" if self.adjacency_ok else "failed"),
            "adjacency_failures": list(self.adjacency_failures),
            "ledger": list(self.ledger),
            "notes": list(self.claim.notes),
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------


# a construction's witness, its targets and its notes
_Built = tuple[Partition, list[Partition], list[str]]


def _unify(parts: list[int], a: int) -> list[int]:
    parts = sorted(parts, reverse=True)
    assert parts.count(a) >= 2, f"need two {a}-cycles to unify"
    parts.remove(a)
    parts.remove(a)
    return parts + [2 * a]


def _ensure(parts: Iterable[int], want_even: bool, unify: int | None) -> Partition:
    """The type of parts, with two ``unify``-cycles joined into one cycle
    of twice the length when its sign is not the one wanted."""
    parts = list(parts)
    p = Partition(parts)
    if is_even_type(p) != want_even:
        if unify is None:
            raise AssertionError(f"unexpected sign for {p} and no fix available")
        p = Partition(_unify(parts, unify))
    assert is_even_type(p) == want_even, f"sign fix failed for {p}"
    return p


def _construct_enne_odd(n: int, group: GroupKind) -> _Built:
    if n % 2 == 0 or n < 11:
        raise InadmissibleDegree("needs odd n >= 11")
    a = Partition([(n + 1) // 2] + [1] * ((n - 1) // 2))
    b = Partition([(n - 1) // 2] + [1] * ((n + 1) // 2))
    z = a if not is_even_type(a) else b
    assert not is_even_type(z)
    return z, [Partition([n])], []


def _construct_enne_even(n: int, group: GroupKind) -> _Built:
    if n % 2 or n < 12 or n == 18:
        raise InadmissibleDegree("needs even n >= 12, n != 18")
    half = n // 2
    notes = []
    if n % 4 == 0:
        z = Partition([half + 1] + [1] * (half - 1))
    else:
        d = half  # n = 2d with d odd
        p = d if is_prime(d) else smallest_prime_factor(d)
        if p == d or p == 3:
            z = Partition([half + 1, 3, 2] + [1] * (half - 6))
        else:
            z = Partition([half + 1, p + 2, p, 2] + [1] * (half - 2 * p - 5))
            notes.append(f"small-divisor case p={p}")
    assert is_even_type(z), f"witness {z} should be even"
    target = Partition([n]) if group is GroupKind.SYM else Partition([half, half])
    return z, [target], notes


def _construct_mun(n: int, group: GroupKind) -> _Built:
    if n < 11:
        raise InadmissibleDegree("needs n >= 11")
    if n % 2 == 1:
        if n % 4 == 3:
            w = Partition([3] + [2] * ((n - 3) // 2))
        else:
            w = Partition([3, 3, 3] + [2] * ((n - 9) // 2))
        assert is_even_type(w)
    else:
        flat = [3, 3] + [2] * ((n - 6) // 2)
        with_four = [4, 3, 3] + [2] * ((n - 10) // 2)
        if group is GroupKind.SYM:
            w = Partition(flat if n % 4 == 0 else with_four)
            assert not is_even_type(w), f"witness {w} should be odd"
        else:
            w = Partition(with_four if n % 4 == 0 else flat)
            assert is_even_type(w)
    return w, [Partition([n - 1, 1])], []


def _prime_between(n: int, den1: int, den2: int) -> int:
    """Smallest prime q with n/den1 < q < 2n/den2."""
    for q in range(n // den1 + 1, (2 * n - 1) // den2 + 1):
        if q * den1 > n and q * den2 < 2 * n and is_prime(q):
            return q
    raise InadmissibleDegree(f"no prime strictly inside (n/{den1}, 2n/{den2}) at n={n}")


def _fives_and_fours(n: int, want_even: bool, with_q: bool) -> tuple[Partition, list[str]]:
    """The witness 1,1,5,(q),r,4^k of degree n.

    q is the smallest prime in (n/3, 2n/5), when asked for; r in 4..7 and
    at least three 4-cycles fill the rest, two of them joined into an
    8-cycle when the sign is not the one wanted.
    """
    head = [1, 1, 5]
    notes = []
    if with_q:
        q = _prime_between(n, 3, 5)
        head.append(q)
        notes.append(f"q={q}")
    m = n - sum(head)
    r = 4 + m % 4
    k = (m - r) // 4
    assert k >= 3, f"k={k} too small at n={n}"
    return _ensure(head + [r] + [4] * k, want_even, unify=4), notes


_P_SPORADIC = {
    # smallest divisor 5 or 7; the n=49 entry replaces a defective published
    # multiset (it dropped the partial sum 16) with a verified equivalent.
    25: (9, 6, 6, 1, 1, 1, 1),
    35: (11, 7, 7, 6, 2, 1, 1),
    49: (17, 10, 8, 8, 2, 1, 1, 1, 1),
    # smallest divisor 3.  The n=69 entry replaces a defective published
    # multiset whose 23-cycle exactly filled a block of the size-23 wreath
    # product; the replacement keeps the big cycle prime and strictly above
    # n/3, which is what blocks that membership.
    21: (8, 7, 4, 1, 1),
    27: (6, 5, 5, 5, 4, 1, 1),
    33: (13, 5, 5, 4, 4, 1, 1),
    39: (17, 7, 5, 4, 4, 1, 1),
    57: (23, 15, 8, 5, 4, 1, 1),
    69: (29, 8, 5, 5, 4, 4, 4, 4, 4, 1, 1),
}


def _construct_p(n: int, group: GroupKind) -> _Built:
    if n % 2 == 1:
        if n < 21 or is_prime(n):
            raise InadmissibleDegree("needs odd nonprime n >= 21")
        base = n
    else:
        d = n // 2
        if d < 25 or d % 2 == 0 or is_prime(d):
            raise InadmissibleDegree("needs n = 2d with d >= 25 odd nonprime")
        base = d
    p = smallest_prime_factor(base)
    notes = [f"target part p={p}"]
    if n % 2 == 1 and n in _P_SPORADIC:
        w = Partition(_P_SPORADIC[n])
        notes.append("sporadic construction")
    elif p == 3:
        w, q_notes = _fives_and_fours(n, want_even=True, with_q=True)
        notes += q_notes
    else:
        q = _prime_between(n, p, p)
        m = n - q - 2 * p - 1
        rem = m % (p + 1)
        r = (p + 1) if rem == 0 else (p + 1 + rem)
        k = (m - r) // (p + 1)
        assert k >= 2, f"k={k} too small at n={n}"
        w = _ensure([1] * (p - 1) + [p + 1] * k + [p + 2, q, r], want_even=True, unify=1)
        notes.append(f"q={q}")
    return w, [Partition([n - p, p])], notes


_SIM_SPORADIC = {
    16: (6, 4, 4, 1, 1),
    18: (7, 5, 4, 1, 1),
    22: (9, 6, 5, 1, 1),
    36: (13, 8, 5, 4, 4, 1, 1),
}


def _construct_sim(n: int, group: GroupKind) -> _Built:
    if n % 2 or n < 16 or (is_prime(n - 1) and n != 18):
        raise InadmissibleDegree("needs even n >= 16 with n-1 composite (n=18 allowed)")
    if n in _SIM_SPORADIC:
        w, notes = Partition(_SIM_SPORADIC[n]), ["sporadic construction"]
    elif n % 3 == 0:
        w, notes = _fives_and_fours(n, want_even=False, with_q=True)
    elif n < 26:
        raise InadmissibleDegree("general construction needs n >= 26")
    else:
        w, notes = _fives_and_fours(n, want_even=False, with_q=False)
    assert not is_even_type(w)
    return w, [Partition([n - 3, 3])], notes


def _construct_jd(n: int, group: GroupKind) -> _Built:
    j = 0
    d = n
    while d % 2 == 0:
        d //= 2
        j += 1
    if j < 2 or d < 3:
        raise InadmissibleDegree("needs n = 2^j * d with j >= 2, d >= 3 odd")
    half_small = 2 ** (j - 1)
    big = n // 2 - half_small
    parts = [1] * (half_small - 1) + [half_small + 1] + [2**j] * ((d - 1) // 2) + [big]
    if j == 2 and d == 5:
        w = Partition([1, 3, 4, 4, 4, 4])  # the 8-cycle variant is odd at n=20
    elif j == 2:
        w = _ensure(parts, want_even=True, unify=4 if d >= 7 else None)
    else:
        w = _ensure(parts, want_even=True, unify=1)
    return w, [Partition([n - half_small, half_small])], [f"j={j}", f"d={d}"]


def _construct_p2(n: int, group: GroupKind) -> _Built:
    pp = prime_power(n)
    if pp is None or pp[0] != 2:
        raise InadmissibleDegree("needs n = 2^m")
    m = pp[1]
    if m < 6 or m == 7:
        raise InadmissibleDegree("needs m >= 6, m != 7")
    h = 2 ** (m - 1)
    if m % 2 == 0:
        t = (h - 2) // 3
        parts = [1, 3, 3, 4, 5] + [8] * (2 ** (m - 5) - 2) + [3] * (2 ** (m - 2) - t) + [h - 2]
        target = Partition([n - 2, 2])
        w = Partition(parts)
    elif (h - 4) % 9 == 0:
        t = (h - 4) // 9
        parts = [1, 1, 1, 5, 7, 9] + [8] * (7 * 2 ** (m - 7) - 3) + [9] * (2 ** (m - 4) - t) + [h - 4]
        target = Partition([n - 4, 4])
        w = Partition(parts)
    elif (h - 10) % 9 == 0:
        t = (h - 10) // 9
        parts = (
            [1] * 7
            + [2, 11, 12]
            + [16] * (7 * 2 ** (m - 8) - 2)
            + [18] * ((2 ** (m - 4) - t) // 2)
            + [h - 10]
        )
        target = Partition([n - 10, 10])
        w = Partition(parts)
    else:
        t = (h - 34) // 9
        parts = (
            [1] * 33
            + [35, 60, 54]
            + [64] * (7 * 2 ** (m - 10) - 2)
            + [36] * ((2 ** (m - 4) - 6 - t) // 4)
            + [h - 34]
        )
        target = Partition([n - 34, 34])
        w = _ensure(parts, want_even=True, unify=1)
    assert is_even_type(w)
    return w, [target], [f"m={m}"]


def _fill(remaining: int, unit: int, finals: Sequence[int]) -> list[int]:
    """Cycles of length ``unit`` plus one final cycle drawn from ``finals``."""
    for final in finals:
        if remaining >= final and (remaining - final) % unit == 0:
            return [unit] * ((remaining - final) // unit) + [final]
    raise AssertionError(f"cannot fill {remaining} with {unit}-cycles and final in {finals}")


_ALTODD_Z_SPORADIC = {35: (14, 8, 6, 4, 3), 49: (14, 8, 7, 7, 6, 4, 3)}
_ALTODD_W_SPORADIC = {
    35: (12, 9, 7, 6, 1),
    39: (8, 7, 6, 6, 6, 5, 1),
    45: (10, 9, 8, 6, 6, 5, 1),
    49: (10, 7, 6, 5, 5, 5, 5, 5, 1),
    55: (11, 8, 8, 6, 6, 5, 5, 5, 1),
    77: (11, 11, 11, 8, 8, 6, 6, 5, 5, 5, 1),
    121: (11, 11, 11, 11, 11, 11, 11, 8, 8, 6, 6, 5, 5, 5, 1),
}


def _construct_altodd_z(n: int, group: GroupKind) -> _Built:
    if n % 2 == 0 or n < 33 or is_prime(n):
        raise InadmissibleDegree("needs odd nonprime n >= 33")
    p = smallest_prime_factor(n)
    notes = [f"block count p={p}"]
    if n in _ALTODD_Z_SPORADIC:
        z = Partition(_ALTODD_Z_SPORADIC[n])
        notes.append("sporadic construction")
        return z, [Partition([n - 2, 1, 1])], notes
    b = n // p
    if p == 3:
        blocks = [[3, 3] + _fill(b - 6, 3, (3, 4, 5)), [4, 3] + _fill(b - 7, 3, (3, 4, 5)),
                  [5] + _fill(b - 5, 3, (3, 4, 5))]
    else:
        blocks = [[3, 3] + _fill(b - 6, 3, (3, 4, 5)), [4] + _fill(b - 4, 3, (3, 4, 5)),
                  [3] + _fill(b - 3, 3, (3, 4, 5)), [5] + _fill(b - 5, 3, (3, 4, 5))]
        blocks += [_fill(b, 3, (3, 4, 5)) for _ in range(p - 4)]
    parts = [x for blk in blocks for x in blk]
    z = _ensure(parts, want_even=True, unify=3)
    return z, [Partition([n - 2, 1, 1])], notes


def _construct_altodd_w(n: int, group: GroupKind) -> _Built:
    if n % 2 == 0 or n < 35 or is_prime(n):
        raise InadmissibleDegree("needs odd nonprime n >= 35")
    p = smallest_prime_factor(n)
    notes = [f"block count p={p}"]
    targets = [Partition([n - 4, 2, 2])]
    if n == 35:
        targets.append(Partition([30, 3, 2]))
    if n in _ALTODD_W_SPORADIC:
        w = Partition(_ALTODD_W_SPORADIC[n])
        notes.append("sporadic construction")
        return w, targets, notes
    b = n // p
    if p == 3:
        spread = [8, 6, 6, 6] + _fill(2 * b - 26, 6, (6, 8, 10))
        fixed = [1, 5, 5] + _fill(b - 11, 5, (5, 6, 7, 8, 9))
        parts = spread + fixed
    else:
        spread = [8, 6, 6] + _fill(2 * b - 20, 6, (6, 8, 10))
        parts = (
            spread
            + [1, 5] + _fill(b - 6, 5, (5, 6, 7, 8, 9))
            + [5] + _fill(b - 5, 5, (5, 6, 7, 8, 9))
            + [6] + _fill(b - 6, 5, (5, 6, 7, 8, 9))
        )
        for _ in range(p - 5):
            parts += _fill(b, 5, (5, 6, 7, 8, 9))
    w = _ensure(parts, want_even=True, unify=6)
    return w, targets, notes


_SYM, _ALT, _BOTH = (GroupKind.SYM,), (GroupKind.ALT,), (GroupKind.SYM, GroupKind.ALT)

# lemma id -> (construction, groups it lives in at odd n, at even n); the
# first group listed is the default
_LEMMAS = {
    "enne_odd": (_construct_enne_odd, _SYM, _SYM),
    "enne_even": (_construct_enne_even, _BOTH, _BOTH),
    "mun": (_construct_mun, _SYM, _BOTH),
    "p": (_construct_p, _SYM, _ALT),
    "sim": (_construct_sim, _SYM, _SYM),
    "jd": (_construct_jd, _ALT, _ALT),
    "p2": (_construct_p2, _ALT, _ALT),
    "altodd_z": (_construct_altodd_z, _ALT, _ALT),
    "altodd_w": (_construct_altodd_w, _ALT, _ALT),
}

# ``lm`` is an exact whole-degree check (``verify_lm``), not a witness
LEMMA_IDS = ("lm", *_LEMMAS)


def construct_witness(lemma_id: str, n: int, group: GroupKind | None = None) -> WitnessClaim:
    """Build the witness claim for one construction id at one degree."""
    if lemma_id not in _LEMMAS:
        raise ValueError(f"unknown or special lemma id {lemma_id!r}; see LEMMA_IDS")
    construct, odd_groups, even_groups = _LEMMAS[lemma_id]
    groups = odd_groups if n % 2 else even_groups
    group = group or groups[0]
    if group not in groups:
        parity = "odd" if n % 2 else "even"
        raise InadmissibleDegree(
            f"{lemma_id} at {parity} n lives in the {groups[0].value} graph only"
        )
    w, targets, notes = construct(n, group)
    special = {}
    if lemma_id == "jd":
        # the half-square class must stay a non-neighbour; other all-even
        # classes may be extra neighbours
        special = dict(allow_even_extras=True, require_nonadjacent=(Partition([n // 2, n // 2]),))
    return WitnessClaim(lemma_id, n, group, w, tuple(targets), notes=tuple(notes), **special)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _shared(a: ClassLabel, b: ClassLabel, cache_dir: str | None) -> bool:
    """Whether the two classes share a proper subgroup that the rules or the
    catalog show; a pair left to an absent catalog is not shared, since the
    theorem tier would call it an edge or ``Open``, never a ``Sharing``."""
    try:
        return shares_subgroup(a, b, cache_dir) is not None
    except CatalogAbsent:
        return False


def verify_witness(claim: WitnessClaim, cache_dir: str | None = None) -> WitnessReport:
    """Certify the claim's non-adjacency and target-adjacency sides.

    Every class whose partial sums avoid the witness's must share a proper
    subgroup with it, up to the claim's allowed extras; a class that does not
    is a counterexample.  Those classes are the partitions whose partial
    sums lie in the mask ``(full & ~w_mask) | 1 | 1 << n``, where ``full``
    has bits 0..n and ``w_mask`` is w's subset-sum mask: the sums w does not
    realize, plus 0 and n.

    No target class may share one.  Where ``verdict`` leaves a target open,
    each family whose predicate admits the witness is a failure and each
    family no predicate handles is ledgered, once per type, since the
    theorem tier answers both split classes of a type alike.

    Raises ValueError when the witness is odd in A_n, and, naming the
    claim, when its degree is not the claim's n or its class splits in A_n,
    where one report would check only one of its two classes.
    """
    n, w, group = claim.n, claim.witness, claim.group
    name = f"claim {claim.lemma_id} at n={n} ({group.value})"
    if w.n != n:
        raise ValueError(f"{name}: witness {w} has degree {w.n}")
    w_labels = type_labels(w, group)  # ValueError for an odd witness in A_n
    if len(w_labels) != 1:
        raise ValueError(f"{name}: witness {w} splits into two A_{n} classes")
    w_label = w_labels[0]
    half_square = Partition([n // 2, n // 2]) if n % 2 == 0 else None

    # --- non-adjacency: enumerate only the partitions avoiding w's sums
    full = (1 << (n + 1)) - 1  # the sums 0..n
    w_mask = partial_sum_mask(w)
    allowed = (full & ~w_mask) | 1 | 1 << n
    survivors = enumerate_partitions_with_sums_in(n, allowed)
    target_set = set(claim.targets)
    counterexamples: list[Partition] = []
    extras: list[Partition] = []
    identity = (1,) * n
    for q in survivors:
        if q == w or q in target_set or q.parts == identity:
            continue
        if group is GroupKind.ALT and not is_even_type(q):
            continue  # not a vertex
        if all(_shared(w_label, c, cache_dir) for c in type_labels(q, group)):
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

    # --- target adjacency
    failures: list[str] = []
    ledger: list[str] = []
    for t in claim.targets:
        for c in type_labels(t, group):
            answer = verdict(w_label, c, cache_dir)
            if isinstance(answer, Sharing):
                failures.append(f"{c}: shared {answer}")
            elif answer is not None:  # an Open, the same for every class of t
                for tag in answer.admitted:
                    failures.append(f"{t}: predicate admits membership for family {tag}")
                for tag in answer.unexcluded:
                    ledger.append(f"{t}: family {tag} not excluded by rule predicates")
                break
    adjacency_ok = not failures
    return WitnessReport(
        claim,
        nonadjacency_ok,
        tuple(counterexamples),
        tuple(extras),
        adjacency_ok,
        tuple(failures),
        tuple(ledger),
    )


# ---------------------------------------------------------------------------
# isolated families, whole-degree checks, and the small-degree table
# ---------------------------------------------------------------------------


def _isolated_shape(n: int, group: GroupKind) -> tuple[int, int]:
    """The fixed points and the moved degree m of the isolated family at n."""
    if n < 6:
        raise InadmissibleDegree("needs n >= 6")
    if n % 2 == 0:
        return n // 2, n // 2
    if group is GroupKind.SYM:
        return (n - 1) // 2, (n + 1) // 2
    if is_prime(n):
        raise InadmissibleDegree("odd degrees require a nontrivial divisor")
    m = n // smallest_prime_factor(n)
    return n - m, m


def build_isolated_family(n: int, group: GroupKind) -> list[Partition]:
    """The structured family of isolated vertices whose size grows with n:
    each even class of degree m, completed by fixed points."""
    ones, m = _isolated_shape(n, group)
    members = [Partition(list(z.parts) + [1] * ones) for z in even_class_partitions(m)]
    if group is GroupKind.ALT:
        assert all(is_even_type(p) for p in members)
    return members


def verify_isolated_family(n: int, group: GroupKind) -> bool:
    """Certify every family member isolated, as a witness with no targets.

    A member has every partial sum 1..n-1, so the n-cycle class(es) are the
    only candidate neighbours.  Parity or a block system decides each of
    them, so no catalog is read at any degree.
    """
    return all(
        verify_witness(WitnessClaim("In_family", n, group, w, ())).fully_certified
        for w in build_isolated_family(n, group)
    )


def verify_lm(n: int, cache_dir: str | None = None) -> tuple[bool, list[Partition]]:
    """Exact check of the isolated-vertex description at admissible primes.

    Admissible: prime n in the cataloged range, n not 11 or 23, and n not the
    point count of a projective space.  Returns (ok, predicted isolated set).
    """
    if not is_prime(n) or n in (11, 23) or projective_cardinality_solutions(n):
        raise InadmissibleDegree(f"degree {n} fails the hypothesis")
    if n not in EXACT_DEGREES:
        raise InadmissibleDegree(f"degree {n} is outside the cataloged range")
    predicted = []
    if (n - 1) // 2 % 2 == 0:
        predicted.append(Partition([2] * ((n - 1) // 2) + [1]))
    if (n - 1) % 3 == 0:
        predicted.append(Partition([3] * ((n - 1) // 3) + [1]))
    graph = build_graph(n, GroupKind.ALT, cache_dir)
    actual = sorted(v.cycle_type for v in isolated_vertices(graph))
    return sorted(predicted) == actual, predicted


def verify_sper(n: int) -> tuple[bool, tuple[Partition, Partition] | None]:
    """Exhaustive check: partitions with disjoint small partial sums always
    leave i and 2i unreached, for some i in {2,3,5,7}, in one of the two.

    Both sides of the pair test read only the partial-sum mask, so the
    search runs over the distinct masks of n (``_sum_masks``).  They come
    from a recurrence over the largest allowed part p: ``masks[r]`` starts
    as the one mask of 1^r, bits 0..r, and the step to p adds
    ``m | m << p`` for each m in ``masks[r - p]``, for r from p upwards.
    That is exact because a partition of r into parts of at most p either
    has no part p, or it is a partition of r - p into such parts plus one
    part p, and the part p turns that partition's mask m into
    ``m | m << p``; r runs upwards, so ``masks[r - p]`` already allows
    further parts p.

    A mask is bad when it reaches i or 2i for each of the four i, and the
    check fails exactly when some bad mask has a bad partner, itself
    allowed, with no common bit in 1..n/2.  ``_disjoint_partners`` gives
    each bad mask its partners as one bitset: it takes, for every bit, the
    set of masks holding it; for every lane of ``_LANE_BITS`` bits, the
    union of those sets for each pattern of the lane's bits; and for each
    mask, the complement of the OR of one table entry per lane.  That needs
    no partition, so a degree without a pair, every one from 18 to 42,
    builds none.  Only a failing check names its pair: the one a scan over
    all partitions a <= b in enumeration order meets first, where a
    is the first partition with a bad disjoint partner and b its first
    partner.  Disjointness is symmetric, so a partnered mask's partners are
    partnered too, and the first partitions of the partnered masks
    (``_first_partition``) are all the pair needs: a is the earliest of
    them, b the earliest among a's partners.  No cache outlives the call.
    """
    two, three, five, seven = (1 << i | 1 << 2 * i for i in (2, 3, 5, 7))
    bad = [m for m in _sum_masks(n) if m & two and m & three and m & five and m & seven]
    partners = _disjoint_partners(bad, n // 2)
    first = {a: _first_partition(n, bad[a]) for a, bits in enumerate(partners) if bits}
    if not first:
        return True, None
    # enumeration runs in descending lexicographic order, so earliest is largest
    a = max(first, key=first.get)
    b = max((i for i in first if partners[a] >> i & 1), key=first.get)
    return False, (first[a], first[b])


def _sum_masks(n: int) -> set[int]:
    """The distinct partial-sum masks of the partitions of n, by the
    recurrence ``verify_sper`` proves.

    Only ``masks[n]`` is the answer, and the steps from p on read
    ``masks[r]`` only for r <= n - p, so the step to p skips n - p < r < n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    masks = [{(2 << r) - 1} for r in range(n + 1)]
    for p in range(2, n + 1):
        for r in [*range(p, n - p + 1), n]:
            masks[r] |= {m | m << p for m in masks[r - p]}
    return masks[n]


# the width of a lane of ``_disjoint_partners``: 5 to 7 bits tie over
# n = 15..30, 4 costs a fourth lookup per mask at n = 30, and 8's
# 256-entry tables cost more than they save below n = 26
_LANE_BITS = 6
# the translate table of bit b writes each byte as b"1" when it has bit b
# and as b"0" otherwise: the bytes run in blocks of 2^b alike in bit b
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def _disjoint_partners(masks: Sequence[int], top: int) -> list[int]:
    """For each mask, the bitset of the indices whose masks share no bit
    1..top with it, its own index included when it has none there.

    ``holders[i]`` is the set of indices whose mask has bit i, as a bitset;
    the partners of a mask are the complement of the union of its bits' sets.
    The bytes at each byte offset of the masks, last mask first behind a
    zero byte, make one ``bytes``; translating it by ``_BIT_DIGITS[b]``
    writes bit b of every byte as an ASCII digit, which ``int(..., 2)``
    reads as the holder set.

    The bits 1..top fall into lanes of ``_LANE_BITS`` bits, the last one
    possibly narrower.  A lane of b bits from bit lo has a table of 2^b
    unions: entry x is the union of the holder sets of the bits of x, bit j
    of x standing for bit lo + j of a mask, built by doubling (the entries
    with bit j set are the ones below 2^j, each joined with bit j's set).
    A mask's union over bits 1..top is then the OR of one entry per lane,
    ``m >> lo`` cut to b bits.  Bit 0 and the bits above top fall outside
    every lane, so the union, and each partner set, is the same as joining
    the holder set of every bit the mask has in 1..top one at a time.
    """
    byte_columns = [
        bytes([0, *(m >> shift & 255 for m in reversed(masks))]) for shift in range(0, top + 1, 8)
    ]
    holders = [
        int(byte_columns[i >> 3].translate(_BIT_DIGITS[i & 7]), 2) for i in range(1, top + 1)
    ]
    lanes = []
    for lo in range(1, top + 1, _LANE_BITS):
        table = [0]
        for holder in holders[lo - 1 : lo - 1 + _LANE_BITS]:
            table += [x | holder for x in table]
        lanes.append((lo, len(table) - 1, table))
    everyone = (1 << len(masks)) - 1
    partners = []
    for m in masks:
        blocked = 0
        for lo, width, table in lanes:
            blocked |= table[m >> lo & width]
        partners.append(everyone & ~blocked)
    return partners


def _first_partition(n: int, mask: int) -> Partition:
    """The first partition of n in enumeration order whose partial-sum mask
    is ``mask``, one of the masks ``_sum_masks(n)`` returns.

    ``enumerate_partitions_with_sums_in`` lists, in enumeration order, the
    partitions whose sums lie in the mask; the first whose sums fill it is
    the one.
    """
    for p in enumerate_partitions_with_sums_in(n, mask):
        if partial_sum_mask(p) == mask:
            return p
    raise ValueError(f"no partition of {n} has the partial-sum mask {mask:b}")


def table1(cache_dir: str | None = None) -> list[tuple[int, object, object]]:
    """Reduced-graph diameters for degrees 3..10, both groups."""
    rows = []
    for n in range(3, 11):
        entries = []
        for group in (GroupKind.SYM, GroupKind.ALT):
            d = diameter(xi_subgraph(build_graph(n, group, cache_dir)))
            entries.append("null graph" if d is SpecialDiameter.EMPTY else d)
        rows.append((n, entries[0], entries[1]))
    return rows
