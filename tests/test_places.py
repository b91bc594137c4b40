import copy
import random
import re
from math import gcd

import pytest

from formal_units import unit, unit_galois, unit_mul, unit_res_to, unit_value
from modk2 import places
from modk2.arith import euler_phi
from modk2.places import (
    CertificateError,
    embed_residue,
    get_field,
    lies_over,
    place_moved,
    places_over,
    push_residue,
    transport_residue,
)


def random_formal(rng, M, nterms=3, lo=-2, hi=2):
    return unit(
        M,
        sign=rng.randint(0, 1),
        zpow=rng.randint(0, M - 1),
        e={rng.randint(1, M - 1): rng.randint(lo, hi) for _ in range(nterms)},
    )


def test_field_canonical_pieces():
    f5 = get_field(5, 1)
    assert f5.generator == (2,)
    f4 = get_field(2, 2)
    assert f4.modulus == [1, 1, 1]
    assert f4.generator == (0, 1)
    f9 = get_field(3, 2)
    assert f9.modulus == [1, 0, 1]
    assert f9.generator == (1, 1)


def test_field_arithmetic():
    rng = random.Random(21)
    for ell, f in ((2, 3), (3, 2), (5, 2), (7, 1)):
        fld = get_field(ell, f)
        for _ in range(20):
            a = fld.decode(rng.randrange(1, fld.q))
            b = fld.decode(rng.randrange(1, fld.q))
            assert fld.mul(a, fld.pow(a, -1)) == fld.one()
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.pow(a, fld.q - 1) == fld.one()
            assert fld.sub(fld.add(a, b), b) == a


def test_dlog_roundtrip():
    rng = random.Random(22)
    for ell, f in ((2, 6), (3, 4), (5, 3), (7, 2), (11, 1)):
        fld = get_field(ell, f)
        g = fld.generator
        for _ in range(10):
            k = rng.randrange(fld.q - 1)
            assert fld.dlog(fld.pow(g, k)) == k


def test_places_shapes():
    # single totally ramified place at a prime-power level
    (w,) = places_over(5, 5)
    assert (w.e, w.f) == (4, 1)
    (w,) = places_over(12, 3)
    assert (w.e, w.f) == (2, 2)
    two = places_over(7, 2)
    assert len(two) == 2 and all((w.e, w.f) == (1, 3) for w in two)
    for M in (4, 5, 7, 8, 9, 11, 12, 14, 15, 16, 22, 27, 33):
        for ell in (2, 3, 5, 7, 11):
            places = places_over(M, ell)
            assert sum(w.e * w.f for w in places) == euler_phi(M)
            assert [w.index for w in places] == list(range(len(places)))


def test_valuation_residue_anchor():
    # level 5 above 5: 1 - zeta^a has valuation 1 and unit residue a
    (w,) = places_over(5, 5)
    for a in range(1, 5):
        v, r = w.valuation_and_residue({1 + a: 1})
        assert v == 1 and r == (a,)
    tame = w.tame_pair({2: 1}, {3: 1})
    assert tame == (2,)


def test_valuation_multiplicative():
    rng = random.Random(23)
    for M, ell in ((12, 3), (12, 2), (14, 7), (15, 5), (11, 11), (13, 2), (9, 3)):
        for w in places_over(M, ell):
            for _ in range(10):
                x = random_formal(rng, M)
                y = random_formal(rng, M)
                vx, rx = w.valuation_and_residue(x)
                vy, ry = w.valuation_and_residue(y)
                vxy, rxy = w.valuation_and_residue(unit_mul(x, y))
                assert vxy == vx + vy
                assert rxy == w.field.mul(rx, ry)


def test_residue_against_direct_evaluation():
    # nonnegative exponents: the value lies in Z[zeta]; reducing its integer
    # coefficients at the place must agree (or vanish when v > 0)
    rng = random.Random(24)
    for M, ell in ((12, 3), (9, 3), (5, 5), (14, 2), (15, 5), (7, 2)):
        for w in places_over(M, ell):
            fld = w.field
            rho = w.residue_of_zeta(1)
            for _ in range(8):
                z = random_formal(rng, M, lo=0, hi=2)
                v, r = w.valuation_and_residue(z)
                val = unit_value(M, z)
                direct = fld.zero()
                power = fld.one()
                for c in val.coeffs:
                    assert c.denominator == 1
                    direct = fld.add(direct, fld.mul(fld.scalar(c.numerator % ell), power))
                    power = fld.mul(power, rho)
                if v == 0:
                    assert direct == r
                else:
                    assert v > 0 and direct == fld.zero()


def test_unramified_generators_are_units():
    for M, ell in ((5, 2), (7, 3), (11, 2), (11, 3)):
        for w in places_over(M, ell):
            assert w.k == 0
            for a in range(1, M):
                v, _ = w.valuation_and_residue({1 + a: 1})
                assert v == 0


def test_galois_equivariance_with_transport():
    rng = random.Random(25)
    for M, ell in ((12, 3), (5, 5), (7, 2), (15, 3), (16, 2)):
        places = places_over(M, ell)
        for w in places:
            for _ in range(6):
                t = rng.choice([t for t in range(1, M) if gcd(t, M) == 1])
                z = random_formal(rng, M)
                wm = place_moved(places, w, t)
                v1, r1 = wm.valuation_and_residue(z)
                v2, r2 = w.valuation_and_residue(unit_galois(M, z, t))
                assert v1 == v2
                moved = transport_residue(w, wm, t, r1)
                if v1:
                    # uniformizers differ by a factor reducing to t
                    moved = w.field.mul(moved, w.field.pow(w.field.scalar(t), v1))
                assert moved == r2


def test_lies_over_partition_and_degrees():
    for M, p, ell in ((4, 2, 2), (4, 3, 2), (5, 2, 5), (7, 2, 7), (15, 2, 3), (11, 3, 11)):
        above = places_over(M * p, ell)
        below = places_over(M, ell)
        rel_degree = euler_phi(M * p) // euler_phi(M)
        for v in below:
            ws = [w for w in above if lies_over(w, v)]
            assert ws
            total = sum((w.e // v.e) * (w.f // v.f) for w in ws)
            assert total == rel_degree
        for w in above:
            assert sum(1 for v in below if lies_over(w, v)) == 1


def test_push_of_embedded_is_power():
    rng = random.Random(26)
    for M, p, ell in ((4, 3, 2), (7, 2, 7), (5, 2, 5), (15, 2, 3)):
        above = places_over(M * p, ell)
        below = places_over(M, ell)
        for v in below:
            for w in above:
                if not lies_over(w, v):
                    continue
                deg = (w.e // v.e) * (w.f // v.f)
                for _ in range(6):
                    u = v.field.decode(rng.randrange(1, v.q))
                    pushed = push_residue(w, v, embed_residue(v, w, u))
                    assert pushed == v.field.pow(u, deg)


def test_tame_projection_formula():
    # norm of a doubly restricted pair pushes down to the [L:F] power
    rng = random.Random(27)
    for M, p, ell in ((4, 2, 2), (4, 3, 2), (7, 2, 7), (5, 2, 5), (9, 3, 3), (15, 2, 5)):
        N = M * p
        deg = euler_phi(N) // euler_phi(M)
        above = places_over(N, ell)
        below = places_over(M, ell)
        for _ in range(6):
            a = random_formal(rng, M)
            b = random_formal(rng, M)
            ra = unit_res_to(M, a, N)
            rb = unit_res_to(M, b, N)
            for v in below:
                direct = v.tame_pair(a, b)
                acc = v.field.one()
                for w in above:
                    if lies_over(w, v):
                        acc = v.field.mul(acc, push_residue(w, v, w.tame_pair(ra, rb)))
                assert acc == v.field.pow(direct, deg)


def test_tame_bilinear_antisymmetric():
    rng = random.Random(28)
    for M, ell in ((5, 5), (12, 3), (7, 7), (15, 5)):
        for w in places_over(M, ell):
            for _ in range(6):
                x = random_formal(rng, M)
                y = random_formal(rng, M)
                z = random_formal(rng, M)
                fld = w.field
                xy = unit_mul(x, y)
                assert w.tame_pair(xy, z) == fld.mul(w.tame_pair(x, z), w.tame_pair(y, z))
                assert fld.mul(w.tame_pair(x, y), w.tame_pair(y, x)) == fld.one()
                # steinberg shadow: (x, -x) is trivial
                minus_x = unit_mul({0: 1}, x)
                assert w.tame_pair(x, minus_x) == fld.one()


def test_place_factor_product_is_certified(monkeypatch):
    # the factors over 2 of level 7 multiply to the 7th cyclotomic
    # polynomial; against any other target the certificate must fail,
    # also under python -O
    assert len(places_over(7, 2)) == 2
    monkeypatch.setattr(places, "cyclotomic_poly", lambda n: [1, 1])
    with pytest.raises(CertificateError, match="level polynomial"):
        places_over(7, 2)


def test_place_moved_and_transport_are_certified():
    # conjugation swaps the two places of level 7 over 2; a table without
    # the image, or a transport from the wrong place, must raise
    # CertificateError, which python -O does not drop as it drops asserts
    w0, w1 = places_over(7, 2)
    assert place_moved([w0, w1], w0, 6) is w1
    with pytest.raises(CertificateError):
        place_moved([w0], w0, 6)
    with pytest.raises(CertificateError):
        transport_residue(w0, w0, 6, w0.field.generator)


def test_input_checks_survive_optimize():
    # places over a non-prime and the discrete log of zero are refused with
    # a ValueError naming the input
    with pytest.raises(ValueError, match="^places over 8: 4 is not a prime$"):
        places_over(8, 4)
    with pytest.raises(ValueError,
                       match=r"^zero has no discrete log in GF\(9\)$"):
        get_field(3, 2).dlog((0, 0))


def test_place_checks_survive_optimize(monkeypatch):
    # a bad argument is a ValueError and a failed identity a
    # CertificateError
    v0, v1 = places_over(7, 2)
    w = places_over(21, 2)[0]
    v = v1 if lies_over(w, v0) else v0
    odd = copy.copy(v0)
    odd.Mprime = 4
    u = w.field.generator
    w21 = "Place(M=21, ell=2, index=0, e=1, f=6)"
    v7 = "Place(M=7, ell=2, index=0, e=1, f=3)"
    calls = [
        (lambda: get_field(3, 2).pow((0, 0), 0), ValueError,
         "zero to the power 0"),
        (lambda: place_moved([v0, v1], v0, 14), ValueError,
         "14 is no unit mod 7"),
        (lambda: lies_over(v0, places_over(5, 2)[0]), ValueError,
         "%s cannot lie over Place(M=5, ell=2, index=0, e=1, f=4)" % v7),
        (lambda: lies_over(w, places_over(7, 3)[0]), ValueError,
         "%s cannot lie over Place(M=7, ell=3, index=0, e=1, f=6)" % w21),
        (lambda: embed_residue(v, w, v.field.generator), ValueError,
         "%s does not lie over %s" % (w21, v7)),
        (lambda: push_residue(w, v, u), ValueError,
         "%s does not lie over %s" % (w21, v7)),
        (lambda: lies_over(w, odd), CertificateError,
         "4 does not divide 21")]
    for call, error, msg in calls:
        with pytest.raises(error, match="^%s$" % re.escape(msg)):
            call()
    monkeypatch.setattr(places, "xgcd", lambda a, b: (2, 0, 0))
    with pytest.raises(CertificateError,
                       match=r"^gcd\(4, 3\) = 2$"):
        places_over(12, 3)


def test_change_of_root_outside_the_span_is_refused_under_optimize():
    # the generator of k(w), f = 6, lies in no smaller field, so it is no
    # combination of the powers of the image of k(v)'s root, f = 3: the
    # solve finds none and a CertificateError says so
    v = places_over(7, 2)[0]
    w = next(w for w in places_over(21, 2) if lies_over(w, v))
    fld = w.field
    base = fld.pow(w.xbar, w.Mprime // v.Mprime)
    with pytest.raises(CertificateError, match="^%s$" % re.escape(
            "(0, 1, 0, 0, 0, 0) is no prime-field combination of the "
            "first 3 powers of (1, 0, 0, 1, 1, 0)")):
        places._change_root(fld.generator, fld, base, v.f, v.field, v.xbar)
