import pytest

from invgraph.arith import is_prime
from invgraph.finite_fields import GF, _REDUCTION

FIELDS = list(_REDUCTION) + [(p, 1) for p in range(2, 24) if is_prime(p)]


def _reference_power(gf, a, k):
    out = 1
    for _ in range(k):
        out = gf._poly_mul(out, a)
    return out


def test_mul_tables_match_polynomial_products():
    for p, r in FIELDS:
        gf = GF(p, r)
        for a in range(gf.q):
            for b in range(gf.q):
                assert gf.mul(a, b) == gf._poly_mul(a, b), (p, r, a, b)


@pytest.mark.parametrize("p, r", FIELDS)
def test_field_operations_match_polynomial_and_vector_arithmetic(p, r):
    gf = GF(p, r)
    q = gf.q
    for a in range(q):
        va = gf._to_vec(a)
        assert gf.neg(a) == gf._from_vec([-x % p for x in va]), (a,)
        for b in range(q):
            vb = gf._to_vec(b)
            want = gf._from_vec([(x + y) % p for x, y in zip(va, vb)])
            assert gf.add(a, b) == want, (a, b)
        powers = [_reference_power(gf, a, k) for k in range(2 * q)]
        for k, want in enumerate(powers):
            assert gf.power(a, k) == want, (a, k)
        for steps in range(2 * r + 1):
            assert gf.frobenius(a, steps) == powers[p ** (steps % r)], (a, steps)
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                gf.inv(a)
            continue
        assert gf._poly_mul(a, gf.inv(a)) == 1, (a,)


@pytest.mark.parametrize("p, r", FIELDS)
def test_primitive_element_is_the_least_code_of_full_order(p, r):
    gf = GF(p, r)
    q = gf.q

    def order(a):
        k, x = 1, a
        while x != 1:
            x = gf._poly_mul(x, a)
            k += 1
        return k

    # 1 is the answer only in GF(2), where it is the whole group
    want = next(a for a in range(1, q) if order(a) == q - 1 and (a > 1 or q == 2))
    assert gf.primitive_element() == want


def test_building_a_field_takes_order_q_products(monkeypatch):
    calls = []
    product = GF._poly_mul

    def counted(self, a, b):
        calls.append((a, b))
        return product(self, a, b)

    monkeypatch.setattr(GF, "_poly_mul", counted)
    # x = 2 generates GF(16)*: its run of powers is the whole build
    gf = GF(2, 4)
    assert len(calls) == gf.q - 2
    for p, r in FIELDS:
        calls.clear()
        gf = GF(p, r)
        assert len(calls) < 2 * gf.q, (p, r)
        sizes = [len(v) for v in vars(gf).values() if isinstance(v, (list, tuple, bytes, dict))]
        assert max(sizes) <= 2 * gf.q, (p, r)
