"""Rule-based membership exclusions for primitive groups at any degree.

Enumeration handles the cataloged degrees exactly; everywhere else these
predicates decide what a cycle type can and cannot lie in.  The positive
lists (``jones_families``, ``mueller_families``) enumerate the classified
cases of primitive groups containing a cycle with k fixed points, resp. an
element with exactly two cycles; the ``*_excludes`` predicates certify
non-membership from fixed-point counts of powers.  A negative answer from an
exclusion predicate never asserts membership.

``theorem_verdict`` decides a pair the parity, partial-sum and block rules
leave open by Jordan's test, then by each side's families (``families_of``)
against the other side (``excludes``): an edge or ``Open``, never a non-edge.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import NamedTuple

from invgraph.arith import divisors, is_prime, prime_power
from invgraph.partitions import Partition, is_even_type, is_partial_sum, partial_sum_mask


class FamilyTag(NamedTuple):
    """One classified case, e.g. J-2a with its arithmetic parameters."""

    case_id: str
    parameters: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.parameters)
        return f"{self.case_id}({inner})" if inner else self.case_id


def _tag(case_id: str, **params: int) -> FamilyTag:
    return FamilyTag(case_id, tuple(sorted(params.items())))


def _fixed_count_of_power(t: Partition, k: int) -> int:
    """Fixed points of t^k: parts l with l | k contribute l each."""
    return sum(l for l in t.parts if k % l == 0)


def _power_exponents(t: Partition) -> list[int]:
    """Exponents k that realize every distinct power type: divisors of lcm."""
    return list(divisors(lcm(*t.parts)))


def jordan_excludes(t: Partition) -> bool:
    """True when some power of t is one nontrivial cycle with >= 3 fixed points.

    Such an element lies in no primitive group other than the alternating and
    symmetric groups, so t is excluded from every nontrivial primitive group.
    A part l of t becomes gcd(l, k) cycles of length l / gcd(l, k) in t^k, so
    t^k is one nontrivial cycle exactly when one part l does not divide k and
    gcd(l, k) == 1; the other n - l points are then fixed.

    Closed form: such a k (a divisor of lcm(t)) exists exactly when some part
    l > 1 occurs once, n - l >= 3, and gcd(l, L) == 1 for L the lcm of the
    other parts.

    * If k works, every other part divides k, so L divides k, and l is prime
      to k, hence to L; l occurs once, as a second copy would also be moved,
      and l > 1 because 1 divides k.
    * Conversely k = L divides lcm(t): the other parts divide it, and l does
      not, since l > 1 is prime to L.

    One pass over the distinct part values reads L from the lcms of the
    values before and after l.
    """
    n, parts = t.n, t.parts
    values, once = [], []  # distinct parts (descending), and which occur once
    for i, l in enumerate(parts):
        if i and parts[i - 1] == l:
            once[-1] = False
        else:
            values.append(l)
            once.append(True)
    suffix = [1] * (len(values) + 1)  # suffix[i]: lcm of values[i:]
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = lcm(values[i], suffix[i + 1])
    prefix = 1  # lcm of values[:i]
    for i, l in enumerate(values):
        if once[i] and l > 1 and n - l >= 3 and gcd(l, lcm(prefix, suffix[i + 1])) == 1:
            return True
        prefix = lcm(prefix, l)
    return False


def jones_families(n: int, k: int) -> list[FamilyTag]:
    """Classified primitive groups (not containing A_n) with an n-k cycle.

    Complete for 0 <= k <= n-2; empty for k >= 3.
    """
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got k={k} at n={n}")
    tags: list[FamilyTag] = []
    if k == 0:
        if is_prime(n):
            tags.append(_tag("J-1a", p=n))
        for q, d in projective_cardinality_solutions(n):
            tags.append(_tag("J-1b", q=q, d=d))
        if n in (11, 23):
            tags.append(_tag("J-1c", n=n))
    elif k == 1:
        pp = prime_power(n)
        if pp is not None:
            gamma, m = pp
            tags.append(_tag("J-2a", p=gamma, m=m))
        if is_prime(n - 1) and n - 1 >= 5:
            tags.append(_tag("J-2b", p=n - 1))
        if n in (12, 24):
            tags.append(_tag("J-2c", n=n))
    elif k == 2:
        pp = prime_power(n - 1)
        if pp is not None:
            tags.append(_tag("J-3", q=n - 1))
    return tags


def mueller_families(n: int, k: int) -> list[FamilyTag]:
    """Classified primitive groups with an element of exactly two cycles (k, n-k).

    Complete for 1 <= k <= n/2; the natural alternating/symmetric case is
    omitted (it is never "nontrivial" here).
    """
    if not 1 <= k <= n - k:
        raise ValueError(f"need 1 <= k <= n-k, got k={k} at n={n}")
    tags: list[FamilyTag] = []
    pp = prime_power(n)
    if pp is not None:
        p, m = pp
        if k == 1:
            for t in divisors(m):
                tags.append(_tag("M-1a", p=p, m=m, t=t))
        if k == p:
            tags.append(_tag("M-1b", p=p, m=m))
        if m == 2 and k == p and p > 2:
            tags.append(_tag("M-1c", p=p))
        if p == 2 and k == 4:
            tags.append(_tag("M-1d", m=m))
    if (n, k) == (4, 2):
        tags.append(_tag("M-1e-i"))
    if (n, k) == (8, 2):
        tags.append(_tag("M-1e-ii"))
    if (n, k) == (9, 3):
        tags.append(_tag("M-1e-iii"))
    if (n, k) == (16, 8):
        tags.append(_tag("M-1e-iv"))
    if n == 16 and k in (4, 8):
        tags.append(_tag("M-1e-v"))
    if n == 16 and k in (2, 8):
        tags.append(_tag("M-1e-vi"))
    if (n, k) == (25, 5):
        tags.append(_tag("M-1e-vii"))
    r = _exact_sqrt(n)
    if r is not None and r > 1:
        if k % r == 0:
            a = k // r
            if a >= 1 and gcd(r, a) == 1:
                tags.append(_tag("M-2a", r=r, a=a))
        if is_prime(r - 1) and r - 1 >= 5 and k == r:
            tags.append(_tag("M-2b", p=r - 1))
    if (n, k) == (10, 5):
        tags.append(_tag("M-3b"))
    if k == 1 and is_prime(n - 1):
        tags.append(_tag("M-3c", p=n - 1))
    if n % 2 == 0 and k == n // 2:
        for q, m in projective_cardinality_solutions(n):
            if q % 2 == 1 and m % 2 == 0:
                tags.append(_tag("M-3d", q=q, m=m))
    if (n, k) == (10, 2):
        tags.append(_tag("M-3e"))
    if (n, k) == (21, 7):
        tags.append(_tag("M-3f"))
    if n == 12 and k in (1, 4):
        tags.append(_tag("M-3g"))
    if n == 12 and k in (1, 2, 4, 6):
        tags.append(_tag("M-3h"))
    if (n, k) == (22, 11):
        tags.append(_tag("M-3i"))
    if n == 24 and k in (1, 3, 12):
        tags.append(_tag("M-3j"))
    return tags


def _exact_sqrt(n: int) -> int | None:
    r = isqrt(n)
    return r if r * r == n else None


def affine_excludes(t: Partition, p: int, m: int) -> bool:
    """Certify t lies in no affine group on p^m points.

    Fixed-point sets of affine maps are empty or affine subspaces, so every
    power of a member fixes 0 or p^s points; any other count excludes t.
    """
    if t.n != p**m:
        raise ValueError(f"degree {t.n} != {p}^{m}")
    allowed = {0} | {p**s for s in range(m + 1)}
    return any(_fixed_count_of_power(t, k) not in allowed for k in _power_exponents(t))


def projective_line_excludes(t: Partition, q: int, semilinear: bool) -> bool:
    """Certify t lies in no subgroup of the projective semilinear group on q+1 points.

    With semilinear=False the target is the projective linear group only,
    where no nonidentity element fixes 3 points.  In the semilinear group an
    element fixing f >= 3 points fixes gamma^l + 1 of them (l | r, q =
    gamma^r); and a member with an even number of fixed points has an even
    number of i-cycles for every odd i, which yields the two parity tests
    used when q+1 is even.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    gamma, r = pp
    n = q + 1
    if t.n != n:
        raise ValueError(f"degree {t.n} != q+1 = {n}")
    order = lcm(*t.parts)
    allowed_fixed = {gamma**l + 1 for l in divisors(r)}
    for k in _power_exponents(t):
        if k % order == 0:
            continue  # the identity power
        f = _fixed_count_of_power(t, k)
        if f >= 3:
            if not semilinear:
                return True
            if f not in allowed_fixed:
                return True
    if n % 2 == 0:
        odd_mult_odd_cycles = any(
            i % 2 == 1 and t.multiplicity(i) % 2 == 1 for i in set(t.parts) if i >= 3
        )
        ones = t.multiplicity(1)
        if ones % 2 == 0 and odd_mult_odd_cycles:
            return True
        mask = partial_sum_mask(t)
        if all(mask >> i & 1 for i in (1, 3, 5)):
            if ones % 2 == 1 or odd_mult_odd_cycles:
                return True
    return False


def product_action_excludes(t: Partition) -> bool:
    """Certify t is not in the product-action wreath group on r^2 = n points.

    An odd part of length >= r+1 forces the top factor to be trivial; a
    trivial top factor whose type realizes every partial sum below r also
    realizes every partial sum below 2r.  Violating that closes the case.
    """
    r = _exact_sqrt(t.n)
    if r is None:
        raise ValueError(f"{t.n} is not a square")
    if not any(p % 2 == 1 and p >= r + 1 for p in t.parts):
        return False
    if not all(is_partial_sum(t, i) for i in range(1, r)):
        return False
    return any(not is_partial_sum(t, i) for i in range(r, 2 * r))


def projective_cardinality_solutions(n: int) -> list[tuple[int, int]]:
    """All (q, d), d >= 2, q a prime power, with n = (q^d - 1)/(q - 1)."""
    if n < 3:
        return []
    out = []
    for q in range(2, n):
        if prime_power(q) is None:
            continue
        total, power = 1, 1
        d = 1
        while total < n:
            power *= q
            total += power
            d += 1
            if total == n and d >= 2:
                out.append((q, d))
                break
    return sorted(out)


def families_of(t: Partition) -> list[FamilyTag]:
    """The classified families that may hold t: Jones's list for one
    nontrivial cycle, Müller's for two cycles, else one unhandled tag."""
    nontrivial = [p for p in t.parts if p > 1]
    if len(nontrivial) <= 1:
        return jones_families(t.n, t.multiplicity(1))
    if len(t.parts) == 2:
        return mueller_families(t.n, min(t.parts))
    if len(t.parts) <= 4:
        return [FamilyTag("FEW-ORBITS")]
    return [FamilyTag("UNCLASSIFIED")]


def excludes(tag: FamilyTag, w: Partition) -> bool | None:
    """True: w lies in no group of the family.  False: the family's predicate
    admits w.  None: no predicate handles the family."""
    n = w.n
    cid = tag.case_id
    params = dict(tag.parameters)
    if cid == "J-1a":
        return affine_excludes(w, n, 1)
    if cid == "J-2a" or cid in ("M-1a", "M-1b", "M-1c", "M-1d") or cid.startswith("M-1e"):
        pp = prime_power(n)
        assert pp is not None
        return affine_excludes(w, pp[0], pp[1])
    if cid in ("J-2b", "M-3c"):
        return projective_line_excludes(w, n - 1, semilinear=False)
    if cid == "J-3":
        return projective_line_excludes(w, n - 1, semilinear=True)
    if cid == "J-1b":
        if params.get("d") == 2:
            return projective_line_excludes(w, params["q"], semilinear=True)
        return None
    if cid == "M-3d":
        if params.get("m") == 2:
            return projective_line_excludes(w, params["q"], semilinear=True)
        return None
    if cid in ("M-2a", "M-2b"):
        return True if product_action_excludes(w) else None
    if cid == "J-1c" and n == 23 or cid in ("J-2c", "M-3j") and n == 24:
        # the live groups here are even; an odd witness cannot meet them
        return True if not is_even_type(w) else None
    return None


class Open(NamedTuple):
    """A pair the theorem tier leaves open: one side's families whose
    predicate admits the other side, and those no predicate handles."""

    admitted: tuple[FamilyTag, ...]
    unexcluded: tuple[FamilyTag, ...]


def _open_families(holder: Partition, other: Partition) -> Open | None:
    """The families of holder that do not exclude other, or None if all do."""
    outcomes = [(tag, excludes(tag, other)) for tag in families_of(holder)]
    admitted = tuple(tag for tag, outcome in outcomes if outcome is False)
    unexcluded = tuple(tag for tag, outcome in outcomes if outcome is None)
    return Open(admitted, unexcluded) if admitted or unexcluded else None


def theorem_verdict(a: Partition, b: Partition) -> Open | None:
    """None (an edge) when no proper primitive group can hold both types,
    else the ``Open`` of b's families against a.

    Sound only for a pair that parity, partial sums and block sizes leave
    open, so that no alternating, intransitive or imprimitive subgroup holds
    both.  Both sides are tried, so edge or open does not depend on order.
    """
    if jordan_excludes(a) or jordan_excludes(b):
        return None
    b_side = _open_families(b, a)
    if b_side is None or _open_families(a, b) is None:
        return None
    return b_side
