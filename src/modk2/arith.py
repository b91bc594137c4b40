"""Small number-theoretic helpers used across the suite."""

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


def multiplicative_order(a, n):
    """Order of a modulo n; a must be a unit."""
    assert gcd(a, n) == 1
    a %= n
    k, x = 1, a
    while x != 1 % n:
        x = x * a % n
        k += 1
    return k


def away_part(n, primes):
    """n with all factors of the given primes removed."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n
