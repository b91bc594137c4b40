"""Places of cyclotomic fields above small primes.

A place of Q(zeta_M) above ell corresponds to a monic irreducible factor of
the prime-to-ell part of the level polynomial over F_ell, and so to a
Frobenius orbit t -> ell*t of the exponents of its roots, numbered by least
member (arith.orbit_table).  A Galois move zeta -> zeta^t is an orbit
lookup: it carries the place of the orbit of s to that of s*t mod M'.
All places over ell share one residue field, on which the move is a power
of Frobenius, read off the orbits (k2model._transport_log);
transport_residue computes the same map by a change of root.
Residue fields are explicit: F_ell[y] modulo the first irreducible
polynomial of the right degree in base-ell coefficient order, with the
smallest generator in that same order, so every residue and discrete log
is reproducible across runs.

Valuations use the standard uniformizer 1 - zeta_{ell^k} at ramified places
(k the ell-adic valuation of the level).  Formal units are {generator:
exponent} dicts over -1, zeta and 1 - zeta^a (cyclo's indexing).  Their
residues are computed from the splitting zeta_M = zeta_{ell^k}^alpha *
zeta_{M'}^beta with alpha M' + beta ell^k = 1: the ell-power part reduces
to 1, the prime-to-ell part to a power of the stored root of the place's
factor.
"""

import functools
from itertools import zip_longest
from math import gcd, isqrt

from .arith import (divisors, divmod_monic, euler_phi, factorize, is_prime,
                    orbit_table, poly_mul, power)
from .cyclo import cyclotomic_poly
from .intlinalg import CertificateError, RowSolver, sparse_row, xgcd


# ---- dense polynomials over the prime field, ascending coefficients ----

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_sub(a, b, ell):
    return _fp_trim([(x - y) % ell for x, y in zip_longest(a, b, fillvalue=0)])


def _fp_gcd(a, b, ell):
    """Monic gcd over F_ell of a and b != 0, both trimmed with
    coefficients in range(ell)."""
    while b:
        inv = pow(b[-1], -1, ell)
        b = [v * inv % ell for v in b]
        a, b = b, _fp_trim([v % ell for v in divmod_monic(a, b)[1]])
    return a


def _fp_powmod(a, n, m, ell):
    """a^n modulo the monic m over F_ell, n >= 1, as len(m) - 1 entries."""
    def mulmod(x, y):
        return [v % ell for v in divmod_monic(poly_mul(x, y), m)[1]]
    return power(a, n, mulmod, [1])


def _fp_irreducible(h, ell, f_primes):
    f = len(h) - 1
    # the class of y mod h, and its Frobenius images y^(ell^i)
    y = [v % ell for v in divmod_monic([0, 1], h)[1]]
    powers = [y]
    for _ in range(f):
        powers.append(_fp_powmod(powers[-1], ell, h, ell))
    if powers[f] != y:
        return False
    for r in f_primes:
        g = _fp_gcd(_fp_sub(powers[f // r], y, ell), h, ell)
        if len(g) != 1:
            return False
    return True


def _digits(n, ell, f):
    """The f lowest base-ell digits of n, least significant first."""
    out = []
    for _ in range(f):
        out.append(n % ell)
        n //= ell
    return out


def _first_irreducible(ell, f):
    """First monic irreducible of degree f over F_ell in base-ell order."""
    f_primes = list(factorize(f))
    for code in range(ell**f):
        h = _digits(code, ell, f) + [1]
        if _fp_irreducible(h, ell, f_primes):
            return h
    raise CertificateError("no irreducible found")


class GFq:
    """F_{ell^f} with a canonical modulus and generator.

    Elements are tuples of f ints in [0, ell).  The generator is the first
    element in base-ell order with full multiplicative order.
    """

    def __init__(self, ell, f):
        self.ell = ell
        self.f = f
        self.q = ell**f
        self.modulus = _first_irreducible(ell, f)

    def zero(self):
        return (0,) * self.f

    def one(self):
        return (1,) + (0,) * (self.f - 1)

    def scalar(self, c):
        return (c % self.ell,) + (0,) * (self.f - 1)

    def add(self, u, v):
        return tuple((a + b) % self.ell for a, b in zip(u, v))

    def neg(self, u):
        return tuple((-a) % self.ell for a in u)

    def sub(self, u, v):
        return tuple((a - b) % self.ell for a, b in zip(u, v))

    def mul(self, u, v):
        return tuple(c % self.ell for c in
                     divmod_monic(poly_mul(u, v), self.modulus)[1])

    def pow(self, u, n):
        if u == self.zero():
            if n <= 0:
                raise ValueError("zero to the power %d" % n)
            return u
        return power(u, n % (self.q - 1), self.mul, self.one())

    def inverse(self, u):
        return self.pow(u, self.q - 2)

    def eval_fp_poly(self, coeffs, x):
        """Evaluate a prime-field polynomial at a field element."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.scalar(c))
        return acc

    def decode(self, n):
        return tuple(_digits(n, self.ell, self.f))

    @functools.cached_property
    def qm1_factors(self):
        return factorize(self.q - 1)

    @functools.cached_property
    def generator(self):
        if self.q == 2:
            return self.one()
        n = 2
        while True:
            u = self.decode(n)
            if all(self.pow(u, (self.q - 1) // r) != self.one()
                   for r in self.qm1_factors):
                return u
            n += 1

    @functools.cached_property
    def _ph_tables(self):
        """Per prime power r^e of q - 1: (r, e, g_e, baby, m, giant) with
        g_e the generator to the power (q - 1) / r^e, of order r^e; baby
        maps g_r^j to j for j < m, with g_r = g_e^(r^(e-1)) of order r and
        m = isqrt(r - 1) + 1; giant is g_r^(-m)."""
        n = self.q - 1
        out = []
        for r, e in self.qm1_factors.items():
            ge = self.pow(self.generator, n // r**e)
            gr = self.pow(ge, r**(e - 1))
            m = isqrt(r - 1) + 1
            baby = {}
            cur = self.one()
            for j in range(m):
                baby.setdefault(cur, j)
                cur = self.mul(cur, gr)
            out.append((r, e, ge, baby, m, self.pow(gr, -m)))
        return out

    def dlog(self, u):
        """Discrete log of u to the canonical generator: Pohlig-Hellman
        over the prime powers of q - 1, each digit a baby-step giant-step
        search in the per-field tables."""
        if u == self.zero():
            raise ValueError("zero has no discrete log in GF(%d)" % self.q)
        n = self.q - 1
        x, mod = 0, 1
        for r, e, ge, baby, m, giant in self._ph_tables:
            pe = r**e
            ue = self.pow(u, n // pe)
            d = 0
            for i in range(e):
                # ue / ge^d lies in the subgroup of order r^(e-i)
                y = self.pow(self.mul(ue, self.pow(ge, -d)), pe // r**(i + 1))
                for step in range(m + 1):
                    if y in baby:
                        break
                    y = self.mul(y, giant)
                else:
                    raise CertificateError("dlog failed")
                d += (step * m + baby[y]) * r**i
            # chinese remainder
            x = (x + (d - x) * pow(mod, -1, pe) % pe * mod) % (mod * pe)
            mod *= pe
        if self.pow(self.generator, x) != u:
            raise CertificateError("GF(%d): the generator to the power %d "
                                   "is not %r" % (self.q, x, u))
        return x


@functools.cache
def get_field(ell, f):
    return GFq(ell, f)


class Place:
    """One place of Q(zeta_M) above ell, with explicit reduction data."""

    def __init__(self, M, ell, k, Mprime, field, factor, orbit, xbar, alpha, beta, index):
        self.M = M
        self.ell = ell
        self.k = k
        self.Mprime = Mprime
        self.field = field
        self.factor = factor
        self.orbit = orbit
        self.xbar = xbar
        self.alpha = alpha
        self.beta = beta
        self.index = index
        self.e = euler_phi(ell**k)
        self.f = field.f
        self.q = field.q

    def __repr__(self):
        return "Place(M=%d, ell=%d, index=%d, e=%d, f=%d)" % (
            self.M, self.ell, self.index, self.e, self.f,
        )

    def residue_of_zeta(self, a=1):
        """Residue of zeta_M^a at this place."""
        return self.field.pow(self.xbar, (a * self.beta) % self.Mprime)

    def valuation_and_residue(self, unit):
        """Valuation and unit-part residue of a formal unit.

        The unit is a {generator: exponent} dict (index 0 is -1, 1 is
        zeta, 1 + a is 1 - zeta^a).  Returns (v, r): v the valuation, r the
        residue of the unit divided by the v-th power of the uniformizer
        1 - zeta_{ell^k}.  At unramified places every generator is a unit
        and v is 0.
        """
        fld = self.field
        v = 0
        r = fld.one()
        for idx, ee in unit.items():
            if idx == 0:
                if ee % 2:
                    r = fld.neg(r)
                continue
            if idx == 1:
                r = fld.mul(r, self.residue_of_zeta(ee))
                continue
            a = idx - 1
            n = self.M // gcd(a, self.M)
            j = 0
            nn = n
            while nn % self.ell == 0:
                nn //= self.ell
                j += 1
            if nn == 1:
                # zeta^a has ell-power order: ramified contribution
                lkj = self.ell ** (self.k - j)
                v += ee * lkj
                u = (a * self.alpha) % self.ell**self.k
                cprime = u // lkj % self.ell
                r = fld.mul(r, fld.pow(fld.scalar(cprime), ee))
            else:
                t = (a * self.beta) % self.Mprime
                r = fld.mul(r, fld.pow(fld.sub(fld.one(), fld.pow(self.xbar, t)), ee))
        return v, r

    def tame_pair(self, fx, fy):
        """Tame symbol of the pair (fx, fy) of formal units at this place."""
        vx, rx = self.valuation_and_residue(fx)
        vy, ry = self.valuation_and_residue(fy)
        fld = self.field
        out = fld.one() if (vx * vy) % 2 == 0 else fld.neg(fld.one())
        if vy:
            out = fld.mul(out, fld.pow(rx, vy))
        if vx:
            out = fld.mul(out, fld.pow(ry, -vx))
        return out


def places_over(M, ell):
    """All places of Q(zeta_M) above ell, canonically ordered."""
    if not is_prime(ell):
        raise ValueError("places over %d: %d is not a prime" % (M, ell))
    k = 0
    Mp = M
    while Mp % ell == 0:
        Mp //= ell
        k += 1
    # t = 0 is the one orbit when Mp == 1: a single place with root 1
    orbits, _ = orbit_table([t for t in range(Mp) if gcd(t, Mp) == 1],
                            lambda t: [t * ell % Mp])
    # every orbit has the length of 1's, the order of ell mod Mp
    field = get_field(ell, len(orbits[0]))
    g, alpha, beta = xgcd(Mp, ell**k)
    if g != 1:
        raise CertificateError("gcd(%d, %d) = %d" % (Mp, ell**k, g))
    out = []
    omega = field.pow(field.generator, (field.q - 1) // Mp)
    check = [1]
    for idx, orb in enumerate(orbits):
        # factor = prod over the orbit of (x - omega^t), lands in F_ell[x]
        poly = [field.one()]
        for t in orb:
            root = field.pow(omega, t)
            poly = [field.zero()] + poly
            for i in range(len(poly) - 1):
                poly[i] = field.sub(poly[i], field.mul(poly[i + 1], root))
        if any(any(c[1:]) for c in poly):
            raise CertificateError(
                "factor %d of level %d over %d has coefficients outside the "
                "prime field" % (idx, M, ell))
        factor = [c[0] for c in poly]
        xbar = field.pow(omega, orb[0])
        if field.eval_fp_poly(factor, xbar) != field.zero():
            raise CertificateError(
                "factor %d of level %d over %d does not vanish at its root"
                % (idx, M, ell))
        out.append(Place(M, ell, k, Mp, field, factor, tuple(orb), xbar,
                         alpha, beta, idx))
        check = [v % ell for v in poly_mul(check, factor)]
    target = [v % ell for v in cyclotomic_poly(Mp)]
    if check != target:
        raise CertificateError(
            "factors over %d do not multiply to the level polynomial of %d"
            % (ell, M))
    return out


def generators_are_units(M, ell):
    """Whether -1, zeta_M and every 1 - zeta_M^a are units at each place over ell.

    With d > 1 the order of zeta^a, the norm of 1 - zeta^a from Q(zeta_d) is
    Phi_d(1), so its norm from Q(zeta_M) is a power of Phi_d(1).  An
    algebraic integer is a unit at every place over ell exactly when ell
    does not divide its norm, and -1 and zeta are units everywhere.  Then
    every tame symbol of these generators at ell is trivial, with no
    residue field built.
    """
    return all(sum(cyclotomic_poly(d)) % ell for d in divisors(M) if d > 1)


def place_moved(places, w, t):
    """The place w composed with zeta -> zeta^t, found by orbit number."""
    if gcd(t, w.M) != 1:
        raise ValueError("%d is no unit mod %d" % (t, w.M))
    moved = w.orbit[0] * t % w.Mprime
    for v in places:
        if moved in v.orbit:
            return v
    raise CertificateError(
        "no place of level %d over %d has the moved root of place %d"
        % (w.M, w.ell, w.index))


def _change_root(u, fld, root, f, out_fld, out_root):
    """Write u in fld as a prime-field polynomial of degree < f in root and
    evaluate that polynomial at out_root in out_fld.  The coefficients are
    x mod ell, x * B == u for B the f powers of root and ell * e_k."""
    powers = [fld.one()]
    for _ in range(f - 1):
        powers.append(fld.mul(powers[-1], root))
    rows = [sparse_row(w) for w in powers]
    rows += [{k: fld.ell} for k in range(fld.f)]
    x = RowSolver(rows, fld.f).solve(sparse_row(u))
    if x is None:
        raise CertificateError(
            "%r is no prime-field combination of the first %d powers of %r"
            % (u, f, root))
    return out_fld.eval_fp_poly([x.get(i, 0) % fld.ell for i in range(f)],
                                out_root)


def transport_residue(w, wfrom, t, u):
    """Image in k(w) of u in k(wfrom) under the root of wfrom -> xbar_w^t.

    wfrom must be place_moved(places, w, t); the map is the residue-field
    isomorphism induced by zeta -> zeta^t.
    """
    fld = w.field
    base = fld.pow(w.xbar, t % w.Mprime)
    if fld.eval_fp_poly(wfrom.factor, base) != fld.zero():
        raise CertificateError(
            "place %d of level %d over %d is not place %d moved by %d"
            % (wfrom.index, w.M, w.ell, w.index, t))
    return _change_root(u, fld, wfrom.xbar, fld.f, fld, base)


def lies_over(w, v):
    """Whether the place w (higher level) restricts to the place v."""
    if w.ell != v.ell or w.M % v.M:
        raise ValueError("%r cannot lie over %r" % (w, v))
    s = w.Mprime // v.Mprime
    if w.Mprime != s * v.Mprime:
        raise CertificateError("%d does not divide %d" % (v.Mprime, w.Mprime))
    target = w.field.pow(w.xbar, s)
    return w.field.eval_fp_poly(v.factor, target) == w.field.zero()


def embed_residue(v, w, u):
    """Image of u in k(v) under the compatible embedding k(v) -> k(w)."""
    if not lies_over(w, v):
        raise ValueError("%r does not lie over %r" % (w, v))
    base = w.field.pow(w.xbar, w.Mprime // v.Mprime)
    return _change_root(u, v.field, v.xbar, v.f, w.field, base)


def push_residue(w, v, u):
    """Norm of u from k(w) down to k(v), expressed in k(v)'s presentation."""
    if not lies_over(w, v):
        raise ValueError("%r does not lie over %r" % (w, v))
    wfld = w.field
    n = wfld.pow(u, (w.q - 1) // (v.q - 1))
    base = wfld.pow(w.xbar, w.Mprime // v.Mprime)
    return _change_root(n, wfld, base, v.f, v.field, v.xbar)
