"""Test-side algebra of formal units and symbols, used as oracles.

A formal unit is a {generator: exponent} dict over -1 (index 0), zeta
(index 1) and 1 - zeta^a (index 1 + a), the format of `modk2.cyclo`.
The package only multiplies units out inside wedges; the field value,
Galois action and restriction to a higher level of units, symbols and
tame vectors, the sums and multiples of symbols and the zero tests of
field elements and presented classes are needed only to check it, so
they live here.
"""

from modk2.cyclo import CycElt, generator_value
from modk2.k2model import SymbolicK2


def unit(M, sign=0, zpow=0, e=None):
    """(-1)^sign * zeta^zpow * prod (1 - zeta^a)^e[a] as a dict."""
    out = {0: sign, 1: zpow}
    for a, k in (e or {}).items():
        a %= M
        assert a != 0, "generator 1 - zeta^0 vanishes"
        out[1 + a] = out.get(1 + a, 0) + k
    return {j: k for j, k in out.items() if k}


def unit_mul(x, y):
    out = dict(x)
    for j, k in y.items():
        out[j] = out.get(j, 0) + k
    return {j: k for j, k in out.items() if k}


def unit_from_vector(vec):
    return {j: k for j, k in enumerate(vec) if k}


def unit_value(M, x):
    """The unit multiplied out in Q(zeta_M)."""
    out = CycElt.one(M)
    for j, k in x.items():
        g = generator_value(M, j)
        out = out * (g ** k if k >= 0 else g.inverse() ** -k)
    return out


def unit_galois(M, x, t):
    """Image of the unit under zeta -> zeta^t, t prime to M."""
    out = {}
    for j, k in x.items():
        if j == 0:
            out[0] = k
        elif j == 1:
            out[1] = k * t
        else:
            out[1 + (j - 1) * t % M] = k
    return out


def unit_res_to(M, x, N):
    """Image at level N under zeta_M -> zeta_N ** (N // M); requires M | N."""
    assert N % M == 0
    s = N // M
    out = {}
    for j, k in x.items():
        if j == 0:
            out[0] = k
        elif j == 1:
            out[1] = k * s
        else:
            out[1 + (j - 1) * s] = k
    return out


def symbol_add(a, b):
    assert a.M == b.M
    out = SymbolicK2(a.M, a.terms)
    for key, c in b.terms.items():
        out._add_term(key, c)
    return out


def symbol_scale(sym, n):
    if n == 0:
        return SymbolicK2.zero(sym.M)
    return SymbolicK2(sym.M, {k: n * c for k, c in sym.terms.items()})


def symbol_neg(sym):
    return symbol_scale(sym, -1)


def symbol_sub(a, b):
    return symbol_add(a, symbol_neg(b))


def cyc_is_zero(x):
    """Whether the CycElt x is zero."""
    return not any(x.coeffs)


def presented_is_zero(pk, sym):
    """Whether sym reduces to zero in the presented quotient pk."""
    return not any(pk.reduce(sym))


def symbol_galois(sym, t):
    out = SymbolicK2.zero(sym.M)
    for (xv, yv), c in sym.terms.items():
        out.add_wedge(unit_galois(sym.M, unit_from_vector(xv), t),
                      unit_galois(sym.M, unit_from_vector(yv), t), c)
    return out


def symbol_res_to(sym, N):
    out = SymbolicK2.zero(N)
    for (xv, yv), c in sym.terms.items():
        out.add_wedge(unit_res_to(sym.M, unit_from_vector(xv), N),
                      unit_res_to(sym.M, unit_from_vector(yv), N), c)
    return out


def tame_is_one(tvec):
    return not any(tvec.comp.values())


def component_orders_divide(tvec, n):
    return all(n * d % (tvec.places[ell][i].q - 1) == 0
               for (ell, i), d in tvec.comp.items())
