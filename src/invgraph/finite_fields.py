"""Tiny finite fields GF(p^r) with elements encoded as ints 0..q-1.

Only the handful of fields the group constructions need.  An element code
is read base-p: code = sum(d_i * p^i) for the coefficient vector (d_0..d_{r-1})
of the residue polynomial.

A field keeps two tables of O(q) entries: the powers of a generator mu of
the cyclic group GF(q)*, and their logarithms.  Multiplication, inverses,
powers and the Frobenius map are then index arithmetic on the exponents.
The tables come from the run of powers of mu, q - 2 products by
``_poly_mul``, plus the shorter runs of the smaller codes that turn out not
to generate, instead of a q x q product table.  Addition adds digits (XOR
at p = 2), which needs no table.
"""

from __future__ import annotations

from functools import lru_cache

from invgraph.arith import is_prime

# monic irreducible polynomials, coefficients low degree first (without x^r term
# normalization issues: entry of length r, giving x^r = -(c_0 + c_1 x + ...)).
_REDUCTION = {
    (2, 2): (1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0),  # x^4 + x + 1
    (3, 2): (1, 0),        # x^2 + 1
    (5, 2): (2, 1),        # x^2 + x + 2
}


class GF:
    """Arithmetic in GF(p^r)."""

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.r = r
        self.q = p**r
        if r > 1:
            if (p, r) not in _REDUCTION:
                raise ValueError(f"no reduction polynomial on file for GF({p}^{r})")
            self._red = _REDUCTION[(p, r)]
        self._mu, self._exp, self._log = self._power_tables()

    def _to_vec(self, code: int) -> list[int]:
        vec = []
        for _ in range(self.r):
            vec.append(code % self.p)
            code //= self.p
        return vec

    def _from_vec(self, vec) -> int:
        code = 0
        for d in reversed(vec):
            code = code * self.p + d
        return code

    def _poly_mul(self, a: int, b: int) -> int:
        p, r = self.p, self.r
        va, vb = self._to_vec(a), self._to_vec(b)
        prod = [0] * (2 * r - 1)
        for i, da in enumerate(va):
            if da:
                for j, db in enumerate(vb):
                    prod[i + j] = (prod[i + j] + da * db) % p
        for k in range(2 * r - 2, r - 1, -1):
            coeff = prod[k]
            if coeff:
                prod[k] = 0
                for j, c in enumerate(self._red):
                    prod[k - r + j] = (prod[k - r + j] - coeff * c) % p
        return self._from_vec(prod[: r])

    def _power_tables(self) -> tuple[int, list[int], list[int]]:
        """The least code mu of full order, ``exp`` and ``log``.

        ``exp[k]`` is mu^k for 0 <= k < 2(q - 1), twice round the cycle so
        that a sum of two logarithms needs no reduction, and ``log[a]`` is
        the k < q - 1 with mu^k = a, for a != 0 (``log[0]`` is unused).
        Codes are tried from 2 up, each by its run of powers; a run that
        returns to 1 early marks all its powers, which have the same short
        order or a shorter one, so they are never tried.
        """
        q = self.q
        tried = bytearray(q)
        for mu in range(2, q) if q > 2 else (1,):
            if tried[mu]:
                continue
            powers = [1]
            x = mu
            while x != 1:
                powers.append(x)
                tried[x] = 1
                x = self._poly_mul(x, mu)
            if len(powers) == q - 1:
                log = [0] * q
                for k, x in enumerate(powers):
                    log[x] = k
                return mu, powers + powers, log
        raise ArithmeticError("no primitive element found")

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.r == 1:
            return (a + b) % p
        out, place = 0, 1
        while a or b:
            out += (a % p + b % p) % p * place
            a //= p
            b //= p
            place *= p
        return out

    def neg(self, a: int) -> int:
        """-a, which is a times -1 = mu^((q-1)/2) at odd p."""
        if self.p == 2 or a == 0:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def power(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return self._exp[self._log[a] * k % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self._exp[self.q - 1 - self._log[a]]

    def frobenius(self, a: int, steps: int = 1) -> int:
        """a^(p^steps), the field automorphism applied ``steps`` times."""
        return self.power(a, self.p ** (steps % self.r))

    def primitive_element(self) -> int:
        """The least code of multiplicative order q - 1."""
        return self._mu


@lru_cache(maxsize=None)
def field(p: int, r: int = 1) -> GF:
    return GF(p, r)
