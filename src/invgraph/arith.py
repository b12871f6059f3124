"""Small number-theory helpers shared across modules."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def proper_block_sizes(n: int) -> tuple[int, ...]:
    """Divisors m of n with 1 < m < n (candidate block sizes)."""
    return tuple(m for m in divisors(n) if 1 < m < n)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes(limit: int):
    """Primes up to limit inclusive (simple sieve)."""
    if limit < 2:
        return
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for p in range(2, limit + 1):
        if sieve[p]:
            yield p


@lru_cache(maxsize=None)
def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    if n < 2:
        return None
    p = n
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            p = q
            break
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return q
    return n
