from invgraph.arith import is_prime
from invgraph.finite_fields import GF, _REDUCTION


def test_mul_tables_match_polynomial_products():
    fields = list(_REDUCTION) + [(p, 1) for p in range(2, 24) if is_prime(p)]
    for p, r in fields:
        gf = GF(p, r)
        for a in range(gf.q):
            for b in range(gf.q):
                assert gf.mul(a, b) == gf._poly_mul(a, b), (p, r, a, b)
