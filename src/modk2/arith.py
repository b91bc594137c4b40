"""Small number-theoretic helpers used across the suite.

orbit_table numbers the orbits of a finite group on an ordered set by least
member.  Every level table is one: Manin classes, the rotation orbits of the
Manin relations, P^1(Z/M), units up to sign, Frobenius orbits of roots and
kernel orbits of cusps, most of them on primitive_pairs.

power is the one square-and-multiply loop, behind powers in Z[zeta], in
finite fields and of polynomials modulo a polynomial over F_ell.
poly_mul and divmod_monic are the one polynomial product and the one
division by a monic polynomial, over Z, behind both polynomial rings:
Z[zeta] = Z[x]/Phi_M and the residue fields F_ell[y]/(h), whose callers
reduce the result mod ell.
mat22_mul multiplies the 2x2 integer matrices of the torus and cocycle
checks.
"""

from math import gcd


def factorize(n):
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("cannot factorize %d: need n >= 1" % n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def divisors(n):
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def away_part(n, primes):
    """n with all factors of the given primes removed."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def power(x, n, mul, one):
    """x**n, n >= 0, under mul with identity one; squares once per bit of
    n, the last bit included."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        x = mul(x, x)
        n >>= 1
    return out


def poly_mul(a, b):
    """Product of two coefficient lists, constant term first; [] when
    either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def divmod_monic(a, b):
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


def mat22_mul(m1, m2):
    """The product of two 2x2 matrices given as pairs of rows."""
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def primitive_pairs(M):
    """The pairs (a, b), 0 <= a, b < M, with gcd(a, b, M) = 1, ascending."""
    return [(a, b) for a in range(M) for b in range(M) if gcd(a, b, M) == 1]


def orbit_table(items, images):
    """Orbits of a group acting on items, numbered by least member.

    items is in ascending order and mapped into itself by the group;
    images(x) lists the images of x under a generating set.  Returns the
    orbits, each a sorted member list, and the orbit number of every item.
    """
    number = {}
    orbits = []
    for x in items:
        if x in number:
            continue
        # the walk is ascending, so x is the least member of its orbit
        number[x] = len(orbits)
        orbit = [x]
        for y in orbit:
            for z in images(y):
                if z not in number:
                    number[z] = len(orbits)
                    orbit.append(z)
        orbits.append(sorted(orbit))
    return orbits, number
