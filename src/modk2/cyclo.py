"""Exact arithmetic in cyclotomic fields and the standard unit relation lattice.

Elements of Q(zeta_M) are polynomials in zeta reduced modulo the M-th
cyclotomic polynomial.  The ring operations keep integer coefficients,
which is exact because that polynomial is monic; only inverse() and
absolute_norm() leave Z[zeta] and compute over the rationals.  The
multiplicative side has two forms: honest field elements (CycElt), and
formal products of the generators -1, zeta, 1 - zeta^a (CycNumFormal),
which is what the relation lattice and the K2 layer consume.  Generator
indexing used everywhere: index 0 is -1, index 1 is zeta, index 1 + a is
1 - zeta^a for 0 < a < M.
"""

import functools
from fractions import Fraction
from math import gcd

from .arith import divisors


def _divmod_monic(a, b):
    """Quotient and remainder of a by the monic polynomial b.

    Coefficient lists run constant term first; the remainder has exactly
    len(b) - 1 entries.
    """
    db = len(b) - 1
    r = list(a) + [0] * max(0, db - len(a))
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return q, r[:db]


@functools.cache
def cyclotomic_poly(M):
    """Coefficients of the M-th cyclotomic polynomial, constant term first."""
    num = [-1] + [0] * (M - 1) + [1]
    for d in divisors(M):
        if d < M:
            num, rem = _divmod_monic(num, cyclotomic_poly(d))
            assert not any(rem)
    return num


class CycElt:
    """An element of Q(zeta_M) in reduced polynomial form, with int
    coefficients unless inverse() made it."""

    __slots__ = ("M", "coeffs")

    def __init__(self, M, coeffs):
        self.M = M
        self.coeffs = tuple(_divmod_monic(coeffs, cyclotomic_poly(M))[1])

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
        assert a % M != 0
        return cls.one(M) - cls.zeta(M, a)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CycElt)
            and self.M == other.M
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.M, self.coeffs))

    def __add__(self, other):
        assert self.M == other.M
        return CycElt(self.M, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycElt(self.M, [-v for v in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        assert self.M == other.M
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return CycElt(self.M, out)

    def inverse(self):
        phi = [Fraction(v) for v in cyclotomic_poly(self.M)]
        g, _, t = _qpoly_xgcd(phi, [Fraction(v) for v in self.coeffs])
        assert len(g) == 1 and g[0] != 0, "not invertible"
        scale = 1 / g[0]
        return CycElt(self.M, [v * scale for v in t])

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycElt.one(self.M)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, t):
        """Apply zeta -> zeta^t; t must be prime to the level."""
        assert gcd(t, self.M) == 1
        out = [0] * self.M
        for i, v in enumerate(self.coeffs):
            if v:
                out[(i * t) % self.M] += v
        return CycElt(self.M, out)

    def embed_into(self, N):
        """Image under zeta_M -> zeta_N ** (N // M); requires M | N."""
        assert N % self.M == 0
        s = N // self.M
        out = [0] * ((len(self.coeffs) - 1) * s + 1)
        for i, v in enumerate(self.coeffs):
            if v:
                out[i * s] += v
        return CycElt(N, out)

    def absolute_norm(self):
        """Norm down to Q, as a Fraction (resultant against the level poly)."""
        f = [Fraction(v) for v in cyclotomic_poly(self.M)]
        return _qpoly_resultant(f, [Fraction(v) for v in self.coeffs])

    def __repr__(self):
        return "CycElt(%d, %s)" % (self.M, list(self.coeffs))


def _qpoly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _qpoly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] * inv
        if c:
            q[i - (len(b) - 1)] = c
            for j, bv in enumerate(b):
                a[i - (len(b) - 1) + j] -= c * bv
    return _qpoly_trim(q), _qpoly_trim(a)


def _qpoly_xgcd(a, b):
    """Extended euclid in Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _qpoly_trim(list(a)), _qpoly_trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def sub_scaled(u, q, v):
        # u - q*v in Q[x]
        out = list(u) + [Fraction(0)] * max(0, len(q) + len(v) - 1 - len(u))
        for i, qc in enumerate(q):
            if qc:
                for j, vc in enumerate(v):
                    if vc:
                        out[i + j] -= qc * vc
        return _qpoly_trim(out)

    while r1:
        q, r = _qpoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_scaled(s0, q, s1)
        t0, t1 = t1, sub_scaled(t0, q, t1)
    return r0, s0, t0


def _qpoly_resultant(a, b):
    a = _qpoly_trim(list(a))
    b = _qpoly_trim(list(b))
    if not a or not b:
        return Fraction(0)
    sign = 1
    acc = Fraction(1)
    while len(b) > 1:
        _, r = _qpoly_divmod(a, b)
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1 if r else 0
        if not r:
            return Fraction(0)
        if (da * db) % 2:
            sign = -sign
        acc *= b[-1] ** (da - dr)
        a, b = b, r
    return sign * acc * b[0] ** (len(a) - 1)


class CycNumFormal:
    """Formal product (-1)^sign * zeta^zpow * prod (1 - zeta^a)^e[a].

    Purely symbolic; multiplication adds exponents.  value() evaluates to a
    CycElt, to_vector() flattens onto the generator index of the relation
    lattice.
    """

    __slots__ = ("M", "sign", "zpow", "e")

    def __init__(self, M, sign=0, zpow=0, e=None):
        self.M = M
        self.sign = sign % 2
        self.zpow = zpow % M
        clean = {}
        for a, k in (e or {}).items():
            a %= M
            assert a != 0, "generator 1 - zeta^0 vanishes"
            if k:
                clean[a] = clean.get(a, 0) + k
        self.e = {a: k for a, k in sorted(clean.items()) if k}

    @classmethod
    def one(cls, M):
        return cls(M)

    @classmethod
    def minus_one(cls, M):
        return cls(M, sign=1)

    @classmethod
    def zeta_power(cls, M, z):
        return cls(M, zpow=z)

    @classmethod
    def one_minus_zeta(cls, M, a, exp=1):
        return cls(M, e={a: exp})

    def __mul__(self, other):
        assert self.M == other.M
        e = dict(self.e)
        for a, k in other.e.items():
            e[a] = e.get(a, 0) + k
        return CycNumFormal(self.M, self.sign + other.sign, self.zpow + other.zpow, e)

    def inverse(self):
        return CycNumFormal(
            self.M, -self.sign, -self.zpow, {a: -k for a, k in self.e.items()}
        )

    def __pow__(self, n):
        if n == 0:
            return CycNumFormal.one(self.M)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        return CycNumFormal(
            base.M, base.sign * n, base.zpow * n, {a: k * n for a, k in base.e.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, CycNumFormal)
            and (self.M, self.sign, self.zpow, self.e)
            == (other.M, other.sign, other.zpow, other.e)
        )

    def galois(self, t):
        assert gcd(t, self.M) == 1
        return CycNumFormal(
            self.M,
            self.sign,
            self.zpow * t,
            {(a * t) % self.M: k for a, k in self.e.items()},
        )

    def res_to(self, N):
        """Image at a higher level under zeta_M -> zeta_N ** (N // M)."""
        assert N % self.M == 0
        s = N // self.M
        return CycNumFormal(
            N, self.sign, self.zpow * s, {(a * s) % N: k for a, k in self.e.items()}
        )

    def value(self):
        out = CycElt.one(self.M)
        if self.sign:
            out = -out
        if self.zpow:
            out = out * CycElt.zeta(self.M, self.zpow)
        for a, k in self.e.items():
            out = out * CycElt.one_minus_zeta(self.M, a) ** k
        return out

    def to_vector(self):
        """Exponent vector on the M + 1 lattice generators."""
        vec = [0] * (self.M + 1)
        vec[0] = self.sign
        vec[1] = self.zpow
        for a, k in self.e.items():
            vec[1 + a] = k
        return vec

    @classmethod
    def from_vector(cls, M, vec):
        assert len(vec) == M + 1
        return cls(M, vec[0], vec[1], {a: vec[1 + a] for a in range(1, M)})

    def __repr__(self):
        return "CycNumFormal(%d, sign=%d, zpow=%d, e=%s)" % (
            self.M,
            self.sign,
            self.zpow,
            self.e,
        )


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
