import random
import re
from fractions import Fraction

import pytest

from formal_units import cyc_is_zero
from modk2 import cyclo
from modk2.arith import euler_phi
from modk2.cyclo import (
    CycElt,
    cyclotomic_poly,
    generator_value,
    unit_relation_rows,
    verify_unit_relation,
)
from modk2.intlinalg import CertificateError, IntQuotient


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(9) == [1, 0, 0, 1, 0, 0, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_poly(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]


def test_cyclotomic_poly_product():
    from modk2.arith import divisors

    for M in range(1, 41):
        prod = [1]
        for d in divisors(M):
            prod = poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (M - 1) + [1]
        assert len(cyclotomic_poly(M)) == euler_phi(M) + 1


def test_cyc_elt_basic():
    for M in (1, 2, 3, 4, 5, 12):
        z = CycElt.zeta(M)
        assert z**M == CycElt.one(M)
        if M > 1:
            assert z != CycElt.one(M)
    # zeta_2 is -1, zeta_4 squared is -1
    assert CycElt.zeta(2) == -CycElt.one(2)
    assert CycElt.zeta(4) ** 2 == -CycElt.one(4)


def test_ring_operations_keep_integer_coefficients():
    # Z[zeta] is closed under them and the level polynomial is monic
    for M in range(4, 61):
        z = CycElt.zeta(M)
        u = CycElt.one_minus_zeta(M, 1)
        elts = [CycElt.zero(M), CycElt.one(M), CycElt.from_rational(M, 3), z,
                u, z + u, -u, z - u, z * u, u**3, u.galois(M - 1),
                u.embed_into(2 * M)]
        for x in elts:
            assert all(type(v) is int for v in x.coeffs), (M, x)


def test_cyc_elt_inverse_roundtrip():
    rng = random.Random(11)
    for M in (4, 5, 7, 12):
        for _ in range(10):
            x = CycElt(M, [Fraction(rng.randint(-5, 5)) for _ in range(euler_phi(M))])
            if cyc_is_zero(x):
                continue
            assert x * x.inverse() == CycElt.one(M)


def test_negative_power_and_zero_inverse_are_refused():
    z = CycElt.zeta(7)
    with pytest.raises(ValueError):
        z ** -1
    with pytest.raises(ZeroDivisionError):
        CycElt.zero(7).inverse()


def test_galois_is_ring_map():
    rng = random.Random(12)
    M = 12
    units = [t for t in range(1, M) if euler_phi(M) and __import__("math").gcd(t, M) == 1]
    for _ in range(20):
        x = CycElt(M, [Fraction(rng.randint(-4, 4)) for _ in range(4)])
        y = CycElt(M, [Fraction(rng.randint(-4, 4)) for _ in range(4)])
        t = rng.choice(units)
        s = rng.choice(units)
        assert (x * y).galois(t) == x.galois(t) * y.galois(t)
        assert (x + y).galois(t) == x.galois(t) + y.galois(t)
        assert x.galois(t).galois(s) == x.galois(t * s % M)


def test_embed_compatible():
    x = CycElt.one_minus_zeta(4, 1)
    y = x.embed_into(8)
    assert y == CycElt.one(8) - CycElt.zeta(8, 2)
    z = CycElt.zeta(3)
    assert z.embed_into(12) ** 3 == CycElt.one(12)
    assert (x * x).embed_into(8) == y * y


def test_absolute_norm_oracle():
    # norm of 1 - zeta_M is the value of the level polynomial at 1:
    # a prime p when M is a prime power p^k, and 1 otherwise
    assert CycElt.one_minus_zeta(5, 1).absolute_norm() == 5
    assert CycElt.one_minus_zeta(7, 1).absolute_norm() == 7
    assert CycElt.one_minus_zeta(8, 1).absolute_norm() == 2
    assert CycElt.one_minus_zeta(9, 1).absolute_norm() == 3
    assert CycElt.one_minus_zeta(12, 1).absolute_norm() == 1
    assert CycElt.zeta(12).absolute_norm() == 1
    assert CycElt.from_rational(5, Fraction(3, 2)).absolute_norm() == Fraction(81, 16)


def test_relative_norm_of_one_minus_zeta():
    from math import gcd

    # product over conjugates fixing the subfield, against the known answer
    for M, p in ((4, 2), (9, 3), (5, 2), (7, 2)):
        N = M * p
        prod = CycElt.one(N)
        for t in range(1, N):
            if gcd(t, N) == 1 and t % M == 1:
                prod = prod * CycElt.one_minus_zeta(N, 1).galois(t)
        if M % p == 0:
            assert prod == CycElt.one_minus_zeta(M, 1).embed_into(N)
        else:
            pinv = pow(p, -1, M)
            lhs = prod * CycElt.one_minus_zeta(M, pinv).embed_into(N)
            assert lhs == CycElt.one_minus_zeta(M, 1).embed_into(N)


def test_unit_relation_rows_all_verify():
    for M in range(2, 17):
        rows = unit_relation_rows(M)
        for row in rows:
            assert verify_unit_relation(M, row), (M, row)


def test_generator_value_indexing():
    assert generator_value(7, 0) == -CycElt.one(7)
    assert generator_value(7, 1) == CycElt.zeta(7)
    assert generator_value(7, 3) == CycElt.one_minus_zeta(7, 2)


def test_unit_group_structure_small():
    # level 5: torsion is cyclic of order 10, free rank 2
    rows = unit_relation_rows(5)
    q = IntQuotient(rows, 6)
    assert q.invariants() == ([10], 2)
    # level 7: torsion cyclic of order 14, free rank 3
    q7 = IntQuotient(unit_relation_rows(7), 8)
    assert q7.invariants() == ([14], 3)


def test_cyclotomic_division_check_survives_optimize(monkeypatch):
    # each division of x^M - 1 by a smaller cyclotomic polynomial must be
    # exact, so a non-divisor in the divisor list has to stop the build;
    # cyclotomic_poly is memoised and may hold 6 already, so its uncached
    # body runs, and the cache keeps only true values
    real = cyclo.divisors
    monkeypatch.setattr(cyclo, "divisors",
                        lambda n: sorted(real(n) + [4] * (n == 6)))
    with pytest.raises(CertificateError, match="^%s$" % re.escape(
            "x^6 - 1 is not divisible by the cyclotomic polynomial of 4: "
            "remainder [0, -1]")):
        cyclotomic_poly.__wrapped__(6)
