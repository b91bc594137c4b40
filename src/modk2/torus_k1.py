"""Divisor-valued functions on a rank-two torus and their transfer maps.

Elements live on primitive integer vectors.  The component at a vector is a
formal product  zeta(const) * s^m * prod (1 - zeta(eta) s^k)^e  with const and
eta rational mod 1 and k >= 1.  Matrices act on vectors by left multiplication
on columns; when a vector is normalized to its canonical sign the coordinate
inverts, so the attached function is reparametrized by s -> 1/s.
"""

import math
from fractions import Fraction

HALF = Fraction(1, 2)


def prim_canon(a, c):
    # returns ((a', c'), flipped) with a' > 0, or a' == 0 and c' > 0
    g = math.gcd(a, c)
    assert g == 1, (a, c)
    if a < 0 or (a == 0 and c < 0):
        return (-a, -c), True
    return (a, c), False


def _mod1(x):
    """x mod 1 as a Fraction; a Fraction already in [0, 1) is returned as is."""
    if type(x) is Fraction and 0 <= x.numerator < x.denominator:
        return x
    return Fraction(x) % 1


class DivisorFn(object):
    __slots__ = ("const", "m", "factors")

    def __init__(self, const=0, m=0, factors=None):
        self.const = _mod1(const)
        self.m = m
        self.factors = {}
        if factors:
            for (eta, k), e in factors.items():
                assert k >= 1
                if e:
                    self.factors[(_mod1(eta), k)] = e

    def mul(self, other):
        fac = dict(self.factors)
        for key, e in other.factors.items():
            fac[key] = fac.get(key, 0) + e
        return DivisorFn(self.const + other.const, self.m + other.m, fac)

    def scale(self, n):
        return DivisorFn(n * self.const, n * self.m,
                         {key: n * e for key, e in self.factors.items()})

    def is_trivial(self):
        return self.const == 0 and self.m == 0 and not self.factors

    def flip_reparam(self):
        # substitute s -> 1/s:  1 - zeta(eta)/s^k = -zeta(eta)s^-k (1 - zeta(-eta)s^k)
        const = self.const
        m = -self.m
        fac = {}
        for (eta, k), e in self.factors.items():
            const += e * (eta + HALF)
            m -= e * k
            key = ((-eta) % 1, k)
            fac[key] = fac.get(key, 0) + e
        return DivisorFn(const, m, fac)

    def __eq__(self, other):
        return (self.const == other.const and self.m == other.m
                and self.factors == other.factors)

    def __repr__(self):
        return "DivisorFn(%r, %r, %r)" % (self.const, self.m, self.factors)


ONE_MINUS_S = DivisorFn(0, 0, {(Fraction(0), 1): 1})


class K1Elem(object):
    __slots__ = ("comp",)

    def __init__(self, comp=None):
        self.comp = {}
        if comp:
            for vec, fn in comp.items():
                if not fn.is_trivial():
                    self.comp[vec] = fn

    def put(self, a, c, fn):
        vec, flipped = prim_canon(a, c)
        if flipped:
            fn = fn.flip_reparam()
        if vec in self.comp:
            fn = self.comp[vec].mul(fn)
        if fn.is_trivial():
            self.comp.pop(vec, None)
        else:
            self.comp[vec] = fn

    def __add__(self, other):
        out = K1Elem(dict(self.comp))
        for (a, c), fn in other.comp.items():
            out.put(a, c, fn)
        return out

    def scale(self, n):
        return K1Elem({vec: fn.scale(n) for vec, fn in self.comp.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return self.comp == other.comp

    def __repr__(self):
        return "K1Elem(%r)" % (self.comp,)


def bracket_symbol(a, c):
    out = K1Elem()
    out.put(a, c, ONE_MINUS_S)
    return out


def pullback(mat, x):
    out = K1Elem()
    for (a, c), fn in x.comp.items():
        out.put(mat[0][0] * a + mat[0][1] * c,
                mat[1][0] * a + mat[1][1] * c, fn)
    return out


def _norm_fn(p, fn):
    # norm along the degree-p covering s -> s^p of one coordinate
    const = p * fn.const + HALF * ((p + 1) * fn.m % 2)
    fac = {}
    for (eta, k), e in fn.factors.items():
        if k % p == 0:
            key = (eta, k // p)
            fac[key] = fac.get(key, 0) + p * e
        else:
            key = ((p * eta) % 1, k)
            fac[key] = fac.get(key, 0) + e
    return DivisorFn(const, fn.m, fac)


def pushforward_vertical(p, x):
    out = K1Elem()
    for (a, c), fn in x.comp.items():
        if c % p == 0:
            out.put(a, c // p, _norm_fn(p, fn))
        else:
            out.put(p * a, c, fn)
    return out


def cocycle_value(mat):
    assert mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 1
    return bracket_symbol(mat[0][1], mat[1][1]) - bracket_symbol(0, 1)


def lower_left_divisible(mat, p):
    return mat[1][0] % p == 0


def degeneracy_conjugate(mat, p):
    assert lower_left_divisible(mat, p)
    return ((mat[0][0], p * mat[0][1]), (mat[1][0] // p, mat[1][1]))


def pushforward_cocycle_compat(p, mat):
    lhs = pushforward_vertical(p, cocycle_value(mat))
    rhs = cocycle_value(degeneracy_conjugate(mat, p))
    return lhs == rhs