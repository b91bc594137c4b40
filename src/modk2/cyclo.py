"""Exact arithmetic in cyclotomic fields and the standard unit relation lattice.

Elements of Q(zeta_M) are polynomials in zeta reduced modulo the M-th
cyclotomic polynomial (CycElt).  The ring operations keep integer
coefficients, which is exact because that polynomial is monic; only
inverse() leaves Z[zeta]: it divides the product of the other Galois
conjugates by the absolute norm, their product with the element.  It and
absolute_norm import fractions when called: no check calls them, so a run
never loads that module for them.

Every unit the K2 layer handles is a product of the generators -1, zeta
and 1 - zeta^a, written as a {generator: exponent} dict: index 0 is -1,
index 1 is zeta, index 1 + a is 1 - zeta^a for 0 < a < M.  The relation
lattice rows below use that format, and generator_value evaluates one
generator in the field.
"""

import functools
from math import gcd

from .arith import divisors, divmod_monic, poly_mul, power
from .intlinalg import CertificateError


@functools.cache
def cyclotomic_poly(M):
    """Coefficients of the M-th cyclotomic polynomial, constant term first."""
    num = [-1] + [0] * (M - 1) + [1]
    for d in divisors(M):
        if d < M:
            num, rem = divmod_monic(num, cyclotomic_poly(d))
            if any(rem):
                raise CertificateError(
                    "x^%d - 1 is not divisible by the cyclotomic "
                    "polynomial of %d: remainder %r" % (M, d, rem))
    return num


class CycElt:
    """An element of Q(zeta_M) in reduced polynomial form, with int
    coefficients unless inverse() made it or Fractions were passed in."""

    __slots__ = ("M", "coeffs")

    def __init__(self, M, coeffs):
        self.M = M
        self.coeffs = tuple(divmod_monic(coeffs, cyclotomic_poly(M))[1])

    @classmethod
    def zero(cls, M):
        return cls(M, [])

    @classmethod
    def from_rational(cls, M, q):
        return cls(M, [q])

    @classmethod
    def one(cls, M):
        return cls.from_rational(M, 1)

    @classmethod
    def zeta(cls, M, a=1):
        return cls(M, [0] * (a % M) + [1])

    @classmethod
    def one_minus_zeta(cls, M, a):
        if a % M == 0:
            raise ValueError("1 - zeta^%d is zero at level %d" % (a, M))
        return cls.one(M) - cls.zeta(M, a)

    def __eq__(self, other):
        return (
            isinstance(other, CycElt)
            and self.M == other.M
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.M, self.coeffs))

    def __add__(self, other):
        if self.M != other.M:
            raise ValueError("levels %d and %d differ" % (self.M, other.M))
        return CycElt(self.M, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycElt(self.M, [-v for v in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.M != other.M:
            raise ValueError("levels %d and %d differ" % (self.M, other.M))
        return CycElt(self.M, poly_mul(self.coeffs, other.coeffs))

    def _conjugate_product(self):
        """Product of the conjugates galois(t), t != 1 a unit mod M.

        Times self it gives the absolute norm, a rational number.
        """
        out = CycElt.one(self.M)
        for t in range(2, self.M):
            if gcd(t, self.M) == 1:
                out = out * self.galois(t)
        return out

    def inverse(self):
        """1 / self, with Fraction coefficients: the conjugate product
        divided by the absolute norm."""
        cofactor = self._conjugate_product()
        norm = (self * cofactor).coeffs[0]
        if not norm:
            raise ZeroDivisionError("%r is not invertible" % (self,))
        from fractions import Fraction
        scale = 1 / Fraction(norm)
        return CycElt(self.M, [v * scale for v in cofactor.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power; use inverse()")
        return power(self, n, CycElt.__mul__, CycElt.one(self.M))

    def galois(self, t):
        """Apply zeta -> zeta^t; t must be prime to the level."""
        if gcd(t, self.M) != 1:
            raise ValueError("%d is no unit mod %d" % (t, self.M))
        out = [0] * self.M
        for i, v in enumerate(self.coeffs):
            if v:
                out[(i * t) % self.M] += v
        return CycElt(self.M, out)

    def embed_into(self, N):
        """Image under zeta_M -> zeta_N ** (N // M); requires M | N."""
        if N % self.M:
            raise ValueError("level %d does not divide %d" % (self.M, N))
        s = N // self.M
        out = [0] * ((len(self.coeffs) - 1) * s + 1)
        for i, v in enumerate(self.coeffs):
            if v:
                out[i * s] += v
        return CycElt(N, out)

    def absolute_norm(self):
        """Norm down to Q, as a Fraction: self times its conjugate product."""
        from fractions import Fraction
        return Fraction((self * self._conjugate_product()).coeffs[0])

    def __repr__(self):
        return "CycElt(%d, %s)" % (self.M, list(self.coeffs))


def generator_value(M, idx):
    """CycElt value of lattice generator idx (0: -1, 1: zeta, 1+a: 1-zeta^a)."""
    if idx == 0:
        return -CycElt.one(M)
    if idx == 1:
        return CycElt.zeta(M)
    return CycElt.one_minus_zeta(M, idx - 1)


def unit_relation_rows(M):
    """Integer relation rows among the M + 1 multiplicative generators.

    Each row is a {generator: exponent} dict of nonzero exponents: torsion
    relations, the inversion relation pairing a with M - a, and the
    distribution relations for every proper divisor level.  Every row
    evaluates to 1 in the field; verify_unit_relation checks one exactly.
    """
    rows = []

    def row(pairs):
        out = {}
        for idx, c in pairs:
            out[idx] = out.get(idx, 0) + c
        return {idx: c for idx, c in out.items() if c}

    rows.append(row([(0, 2)]))
    rows.append(row([(1, M)]))
    if M % 2 == 0:
        # -1 = zeta^(M/2)
        rows.append(row([(0, 1), (1, -(M // 2))]))
    for a in range(1, M):
        # 1 - zeta^(M-a) = -zeta^(M-a) (1 - zeta^a)
        rows.append(row([(1 + (M - a), 1), (1 + a, -1), (0, -1), (1, -(M - a))]))
    for d in divisors(M):
        if 1 < d < M:
            step = M // d
            for b in range(1, step):
                # 1 - zeta^(d b) = prod_k (1 - zeta^(b + k step))
                pairs = [(1 + d * b, 1)]
                for k in range(d):
                    pairs.append((1 + (b + k * step), -1))
                rows.append(row(pairs))
    return rows


def verify_unit_relation(M, row):
    """Exact check of one relation row: both sides multiplied out in the field."""
    pos = CycElt.one(M)
    neg = CycElt.one(M)
    for idx, e in row.items():
        if e > 0:
            pos = pos * generator_value(M, idx) ** e
        elif e < 0:
            neg = neg * generator_value(M, idx) ** (-e)
    return pos == neg
