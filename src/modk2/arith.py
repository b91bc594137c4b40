"""Small number-theoretic helpers used across the suite.

orbit_table numbers the orbits of a finite group on an ordered set by least
member.  Every level table is one: Manin classes, the rotation orbits of the
Manin relations, P^1(Z/M), units up to sign, Frobenius orbits of roots and
kernel orbits of cusps, most of them on primitive_pairs.
"""

from math import gcd


def factorize(n):
    """Prime factorization of n >= 1 as {prime: exponent}."""
    assert n >= 1
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
