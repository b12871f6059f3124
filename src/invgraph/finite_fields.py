"""Tiny finite fields GF(p^r) with elements encoded as ints 0..q-1.

Only the handful of fields the group constructions need.  An element code
is read base-p: code = sum(d_i * p^i) for the coefficient vector (d_0..d_{r-1})
of the residue polynomial.  Addition/multiplication tables are built eagerly;
every field used here has q <= 19^1 or q <= 16, so the tables are trivial.
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
        self._mul_table = self._build_mul_table()

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

    def _build_mul_table(self):
        """The table of a * b, from r products per row instead of q.

        Multiplying by b is linear over GF(p): for a = sum_i d_i x^i,
        a * b = sum_i d_i (x^i * b).  Row b is built one digit at a time; the
        codes with digit i equal to d are d * p^i plus the codes below p^i,
        so each digit repeats the vectors so far p times, shifted by d times
        x^i * b.  The table is symmetric, so row b is also column b.
        """
        p, r, q = self.p, self.r, self.q
        if r == 1:
            return [[a * b % p for b in range(q)] for a in range(q)]
        table = []
        for b in range(q):
            vectors = [[0] * r]
            for i in range(r):
                step = self._to_vec(self._poly_mul(p**i, b))
                vectors = [
                    [(u + d * v) % p for u, v in zip(vec, step)]
                    for d in range(p)
                    for vec in vectors
                ]
            table.append([self._from_vec(vec) for vec in vectors])
        return table

    def add(self, a: int, b: int) -> int:
        va, vb = self._to_vec(a), self._to_vec(b)
        return self._from_vec([(x + y) % self.p for x, y in zip(va, vb)])

    def neg(self, a: int) -> int:
        return self._from_vec([(-x) % self.p for x in self._to_vec(a)])

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def power(self, a: int, k: int) -> int:
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return self.power(a, self.q - 2)

    def frobenius(self, a: int, steps: int = 1) -> int:
        out = a
        for _ in range(steps % self.r):
            out = self.power(out, self.p)
        return out

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def primitive_element(self) -> int:
        for a in range(2, self.q):
            if self.element_order(a) == self.q - 1:
                return a
        if self.q == 2:
            return 1
        raise ArithmeticError("no primitive element found")


@lru_cache(maxsize=None)
def field(p: int, r: int = 1) -> GF:
    return GF(p, r)
