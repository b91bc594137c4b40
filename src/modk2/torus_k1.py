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
    if math.gcd(a, c) != 1:
        raise ValueError("vector (%d, %d) is not primitive" % (a, c))
    if a < 0 or (a == 0 and c < 0):
        return (-a, -c), True
    return (a, c), False


def _mod1(x):
    """x mod 1: the int 0 when x is integral, else a Fraction in (0, 1),
    returned as is when x already is one.  Ints and Fractions of equal
    value hash and compare equal, so keys do not depend on the type."""
    if type(x) is int:
        return 0
    if 0 < x.numerator < x.denominator:
        return x
    x %= 1
    return x if x.numerator else 0


class DivisorFn(object):
    __slots__ = ("const", "m", "factors")

    def __init__(self, const=0, m=0, factors=None):
        self.const = _mod1(const)
        self.m = m
        self.factors = {}
        if factors:
            for (eta, k), e in factors.items():
                if k < 1:
                    raise ValueError("factor (%r, %r) needs k >= 1"
                                     % (eta, k))
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


ONE_MINUS_S = DivisorFn(0, 0, {(0, 1): 1})


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


# 1 - s at a vector of canonical sign, and at one normalized with a flip
_BRACKET_FNS = (ONE_MINUS_S, ONE_MINUS_S.flip_reparam())


def bracket_symbol(a, c):
    vec, flipped = prim_canon(a, c)
    return K1Elem({vec: _BRACKET_FNS[flipped]})


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


_MINUS_BASE = -bracket_symbol(0, 1)


def cocycle_value(mat):
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if det != 1:
        raise ValueError("matrix %r has determinant %d, not 1" % (mat, det))
    return bracket_symbol(mat[0][1], mat[1][1]) + _MINUS_BASE


def lower_left_divisible(mat, p):
    return mat[1][0] % p == 0


def degeneracy_conjugate(mat, p):
    if not lower_left_divisible(mat, p):
        raise ValueError("matrix %r: lower-left entry not divisible by %d"
                         % (mat, p))
    return ((mat[0][0], p * mat[0][1]), (mat[1][0] // p, mat[1][1]))


def pushforward_cocycle_compat(p, mat):
    lhs = pushforward_vertical(p, cocycle_value(mat))
    rhs = cocycle_value(degeneracy_conjugate(mat, p))
    return lhs == rhs