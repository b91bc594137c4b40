"""Places of cyclotomic fields above small primes.

A place of Q(zeta_M) above ell corresponds to a monic irreducible factor of
the prime-to-ell part of the level polynomial over F_ell.  Residue fields
are explicit: F_ell[y] modulo the first irreducible polynomial of the right
degree in base-ell coefficient order, with the smallest generator in that
same order, so every residue and discrete log is reproducible across
runs.

Valuations use the standard uniformizer 1 - zeta_{ell^k} at ramified places
(k the ell-adic valuation of the level).  Residues of the formal
multiplicative generators are computed from the splitting zeta_M =
zeta_{ell^k}^alpha * zeta_{M'}^beta with alpha M' + beta ell^k = 1: the
ell-power part reduces to 1, the prime-to-ell part to a power of the stored
root of the place's factor.
"""

from math import gcd, isqrt

from .arith import euler_phi, factorize, is_prime, multiplicative_order
from .cyclo import cyclotomic_poly
from .intlinalg import xgcd


class CertificateError(Exception):
    """A place certificate failed: factorisation or residue-field norm."""


# ---- dense polynomials over the prime field, ascending coefficients ----

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_add(a, b, ell):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % ell
    return _fp_trim(out)


def _fp_sub(a, b, ell):
    return _fp_add(a, [(-v) % ell for v in b], ell)


def _fp_mul(a, b, ell):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % ell
    return _fp_trim(out)


def _fp_mod(a, m, ell):
    a = [v % ell for v in a]
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, ell)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * lead_inv % ell
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % ell
    return _fp_trim(a)


def _fp_gcd(a, b, ell):
    a = _fp_trim([v % ell for v in a])
    b = _fp_trim([v % ell for v in b])
    while b:
        a, b = b, _fp_mod(a, b, ell)
    if a:
        inv = pow(a[-1], -1, ell)
        a = [v * inv % ell for v in a]
    return a


def _fp_powmod(a, n, m, ell):
    out = [1]
    base = _fp_mod(a, m, ell)
    while n:
        if n & 1:
            out = _fp_mod(_fp_mul(out, base, ell), m, ell)
        base = _fp_mod(_fp_mul(base, base, ell), m, ell)
        n >>= 1
    return out


def _fp_irreducible(h, ell, f_primes):
    f = len(h) - 1
    y = [0, 1]
    powers = [y]
    t = y
    for _ in range(f):
        t = _fp_powmod(t, ell, h, ell)
        powers.append(t)
    if _fp_trim(list(powers[f])) != _fp_mod(y, h, ell):
        return False
    for r in f_primes:
        g = _fp_gcd(_fp_sub(powers[f // r], y, ell), h, ell)
        if len(g) != 1:
            return False
    return True


def _first_irreducible(ell, f):
    """First monic irreducible of degree f over F_ell in base-ell order."""
    if f == 1:
        return [0, 1]
    f_primes = list(factorize(f))
    for code in range(ell**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % ell)
            c //= ell
        h = coeffs + [1]
        if _fp_irreducible(h, ell, f_primes):
            return h
    raise AssertionError("no irreducible found")


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
        self._gen = None
        self._qm1 = None

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
        prod = _fp_mul(list(u), list(v), self.ell)
        red = _fp_mod(prod, self.modulus, self.ell)
        return tuple(red + [0] * (self.f - len(red)))

    def pow(self, u, n):
        if u == self.zero():
            assert n > 0
            return u
        n %= self.q - 1
        out = self.one()
        base = u
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inverse(self, u):
        return self.pow(u, self.q - 2)

    def eval_fp_poly(self, coeffs, x):
        """Evaluate a prime-field polynomial at a field element."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.scalar(c))
        return acc

    def encode(self, u):
        out = 0
        for c in reversed(u):
            out = out * self.ell + c
        return out

    def decode(self, n):
        coeffs = []
        for _ in range(self.f):
            coeffs.append(n % self.ell)
            n //= self.ell
        return tuple(coeffs)

    def qm1_factors(self):
        if self._qm1 is None:
            self._qm1 = factorize(self.q - 1)
        return self._qm1

    def generator(self):
        if self._gen is not None:
            return self._gen
        if self.q == 2:
            self._gen = self.one()
            return self._gen
        primes = list(self.qm1_factors())
        n = 2
        while True:
            u = self.decode(n)
            if all(
                self.pow(u, (self.q - 1) // r) != self.one() for r in primes
            ):
                self._gen = u
                return u
            n += 1

    def _bsgs(self, target, g, order):
        # g has the given (prime) order; find d with g^d == target
        m = isqrt(order - 1) + 1
        table = {}
        cur = self.one()
        for j in range(m):
            table.setdefault(cur, j)
            cur = self.mul(cur, g)
        hop = self.inverse(self.pow(g, m))
        y = target
        for i in range(m + 1):
            if y in table:
                return i * m + table[y]
            y = self.mul(y, hop)
        raise AssertionError("dlog failed")

    def dlog(self, u, base=None):
        """Discrete log of u to the given base (default: canonical generator)."""
        assert u != self.zero()
        g = base if base is not None else self.generator()
        n = self.q - 1
        if n == 1:
            return 0
        residues = []
        moduli = []
        for r, e in self.qm1_factors().items():
            pe = r**e
            gg = self.pow(g, n // pe)
            uu = self.pow(u, n // pe)
            gr = self.pow(gg, pe // r)
            x = 0
            for i in range(e):
                shifted = self.mul(uu, self.inverse(self.pow(gg, x)))
                target = self.pow(shifted, pe // r ** (i + 1))
                d = self._bsgs(target, gr, r)
                x += d * r**i
            residues.append(x)
            moduli.append(pe)
        # chinese remainder
        x, m = 0, 1
        for r, mm in zip(residues, moduli):
            g_, s, _ = xgcd(m, mm)
            assert g_ == 1
            x = (x + (r - x) * s % mm * m) % (m * mm)
            m *= mm
        return x


_field_cache = {}


def get_field(ell, f):
    key = (ell, f)
    if key not in _field_cache:
        _field_cache[key] = GFq(ell, f)
    return _field_cache[key]


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
        if self.Mprime == 1:
            return self.field.one()
        return self.field.pow(self.xbar, (a * self.beta) % self.Mprime)

    def valuation_and_residue(self, formal):
        """Valuation and unit-part residue of a formal multiplicative element.

        Returns (v, r): v the valuation, r the residue of the element divided
        by the v-th power of the uniformizer 1 - zeta_{ell^k}.  At unramified
        places every generator is a unit and v is 0.
        """
        assert formal.M == self.M
        fld = self.field
        v = 0
        r = fld.one()
        if formal.sign % 2:
            r = fld.neg(r)
        if formal.zpow and self.Mprime > 1:
            r = fld.mul(r, self.residue_of_zeta(formal.zpow))
        for a, ee in formal.e.items():
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
        """Tame symbol of the pair (fx, fy) of formal elements at this place."""
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
    assert is_prime(ell)
    k = 0
    Mp = M
    while Mp % ell == 0:
        Mp //= ell
        k += 1
    f = multiplicative_order(ell, Mp) if Mp > 1 else 1
    field = get_field(ell, f)
    g, alpha, beta = xgcd(Mp, ell**k)
    assert g == 1
    out = []
    if Mp == 1:
        factor = [(-1) % ell, 1]
        out.append(Place(M, ell, k, Mp, field, factor, (), field.one(), alpha, beta, 0))
        return out
    gen = field.generator()
    omega = field.pow(gen, (field.q - 1) // Mp)
    seen = set()
    orbits = []
    for t in range(1, Mp):
        if gcd(t, Mp) == 1 and t not in seen:
            orb = []
            cur = t
            while cur not in seen:
                seen.add(cur)
                orb.append(cur)
                cur = cur * ell % Mp
            orbits.append(tuple(sorted(orb)))
    orbits.sort()
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
        out.append(Place(M, ell, k, Mp, field, factor, orb, xbar, alpha, beta, idx))
        check = _fp_mul(check, factor, ell)
    target = _fp_trim([v % ell for v in cyclotomic_poly(Mp)])
    if check != target:
        raise CertificateError(
            "factors over %d do not multiply to the level polynomial of %d"
            % (ell, M))
    return out


def place_moved(places, w, t):
    """The place w composed with zeta -> zeta^t, located in the table."""
    assert gcd(t, w.M) == 1
    if w.Mprime == 1:
        return w
    target = w.field.pow(w.xbar, t % w.Mprime)
    for v in places:
        if w.field.eval_fp_poly(v.factor, target) == w.field.zero():
            return v
    raise AssertionError("place table incomplete")


def _solve_prime_field(cols, target, ell):
    """Solve sum c_j cols[j] == target over F_ell; None if inconsistent."""
    f = len(target)
    n = len(cols)
    A = [[cols[j][i] % ell for j in range(n)] + [target[i] % ell] for i in range(f)]
    pivots = []
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, f) if A[i][j]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][j], -1, ell)
        A[r] = [v * inv % ell for v in A[r]]
        for i in range(f):
            if i != r and A[i][j]:
                c = A[i][j]
                A[i] = [(x - c * y) % ell for x, y in zip(A[i], A[r])]
        pivots.append(j)
        r += 1
    for i in range(r, f):
        if A[i][n]:
            return None
    sol = [0] * n
    for i, j in enumerate(pivots):
        sol[j] = A[i][n]
    return sol


def transport_residue(w, wfrom, t, u):
    """Image in k(w) of u in k(wfrom) under the root of wfrom -> xbar_w^t.

    wfrom must be place_moved(places, w, t); the map is the residue-field
    isomorphism induced by zeta -> zeta^t.
    """
    if w.Mprime == 1:
        return u
    fld = w.field
    base = fld.pow(w.xbar, t % w.Mprime)
    assert fld.eval_fp_poly(wfrom.factor, base) == fld.zero()
    cols = []
    cur = fld.one()
    for _ in range(fld.f):
        cols.append(cur)
        cur = fld.mul(cur, wfrom.xbar)
    coeffs = _solve_prime_field(cols, u, fld.ell)
    assert coeffs is not None
    out = fld.zero()
    cur = fld.one()
    for c in coeffs:
        if c:
            out = fld.add(out, fld.mul(fld.scalar(c), cur))
        cur = fld.mul(cur, base)
    return out


def lies_over(w, v):
    """Whether the place w (higher level) restricts to the place v."""
    assert w.ell == v.ell and w.M % v.M == 0
    if v.Mprime == 1:
        return True
    s = w.Mprime // v.Mprime
    assert w.Mprime == s * v.Mprime
    target = w.field.pow(w.xbar, s)
    return w.field.eval_fp_poly(v.factor, target) == w.field.zero()


def embed_residue(v, w, u):
    """Image of u in k(v) under the compatible embedding k(v) -> k(w)."""
    assert lies_over(w, v)
    if v.Mprime == 1:
        return w.field.scalar(u[0])
    s = w.Mprime // v.Mprime
    fld = v.field
    cols = []
    cur = fld.one()
    for _ in range(fld.f):
        cols.append(cur)
        cur = fld.mul(cur, v.xbar)
    coeffs = _solve_prime_field(cols, u, fld.ell)
    assert coeffs is not None
    wfld = w.field
    base = wfld.pow(w.xbar, s)
    out = wfld.zero()
    cur = wfld.one()
    for c in coeffs:
        if c:
            out = wfld.add(out, wfld.mul(wfld.scalar(c), cur))
        cur = wfld.mul(cur, base)
    return out


def push_residue(w, v, u):
    """Norm of u from k(w) down to k(v), expressed in k(v)'s presentation."""
    assert lies_over(w, v)
    wfld = w.field
    n = wfld.pow(u, (w.q - 1) // (v.q - 1))
    if v.Mprime == 1:
        if any(n[1:]):
            raise CertificateError("norm did not land in the prime field")
        return v.field.scalar(n[0])
    s = w.Mprime // v.Mprime
    base = wfld.pow(w.xbar, s)
    cols = []
    cur = wfld.one()
    for _ in range(v.field.f):
        cols.append(cur)
        cur = wfld.mul(cur, base)
    coeffs = _solve_prime_field(cols, n, wfld.ell)
    if coeffs is None:
        raise CertificateError("norm did not land in the subfield")
    vfld = v.field
    out = vfld.zero()
    cur = vfld.one()
    for c in coeffs:
        if c:
            out = vfld.add(out, vfld.mul(vfld.scalar(c), cur))
        cur = vfld.mul(cur, v.xbar)
    return out
