"""Test-side algebra of formal units and symbols, used as oracles.

A formal unit is a {generator: exponent} dict over -1 (index 0), zeta
(index 1) and 1 - zeta^a (index 1 + a), the format of `modk2.cyclo`.
A symbol is a {column: coeff} row of the wedge square, the format of
`modk2.k2model`.  The package only multiplies units out inside wedges;
the field value, Galois action and restriction to a higher level of
units, symbols and tame vectors, the sums and multiples of symbols and
the zero tests of field elements and presented classes are needed only
to check it, so they live here.

So does SymbolicK2, the symbol representation the rows replaced: terms
keyed by the dense exponent vectors of the two units, turned into rows
(symbolic_to_row) and tame integers (_key_tame) key by key.
"""

import functools

from modk2.cyclo import CycElt, generator_value
from modk2.k2model import _place_logs, wedge_dim, wedge_of_vectors


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
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def symbol_scale(row, n):
    return {k: n * v for k, v in row.items() if n}


def symbol_neg(row):
    return symbol_scale(row, -1)


def symbol_sub(a, b):
    return symbol_add(a, symbol_neg(b))


def pair_symbol(M, c, d):
    """Row of the interior symbol (1 - zeta^c) ^ (1 - zeta^d)."""
    return wedge_of_vectors(M, {1 + c % M: 1}, {1 + d % M: 1})


def symbol_of_units(M, x, y):
    """Row of the symbol {x, y} of two formal units.

    The wedge square has no e_j ^ e_j, so {e_j, e_j} = {e_j, -1} stands
    for it: a generator j in both units adds x_j y_j e_j ^ e_0.
    """
    shared = {j: x[j] * y[j] for j in x if j in y}
    return symbol_add(wedge_of_vectors(M, x, y),
                      wedge_of_vectors(M, shared, {0: 1}))


def column_pairs(M):
    """(i, j) of every wedge column, in column order."""
    return [(i, j) for i in range(M + 1) for j in range(i + 1, M + 1)]


def _map_columns(M, row, N, unit_map):
    """Row at level N of the wedge of the images of each column's units."""
    pairs = column_pairs(M)
    out = {}
    for k, c in row.items():
        i, j = pairs[k]
        out = symbol_add(out, symbol_scale(
            wedge_of_vectors(N, unit_map({i: 1}), unit_map({j: 1})), c))
    return out


def cyc_is_zero(x):
    """Whether the CycElt x is zero."""
    return not any(x.coeffs)


def presented_is_zero(pk, row):
    """Whether the symbol row reduces to zero in the presented quotient pk."""
    return not any(pk.reduce(row))


def symbol_galois(M, row, t):
    return _map_columns(M, row, M, lambda x: unit_galois(M, x, t))


def symbol_res_to(M, row, N):
    return _map_columns(M, row, N, lambda x: unit_res_to(M, x, N))


def tame_is_one(tvec):
    return not any(tvec.comp.values())


def component_orders_divide(tvec, n):
    return all(n * d % (tvec.places[ell][i].q - 1) == 0
               for (ell, i), d in tvec.comp.items())


# ----- the dense-exponent-vector symbols the rows replaced -----


def unit_vector(M, x):
    """Dense exponent vector of a {generator: exponent} unit, the sign
    taken mod 2 and the zeta exponent mod M."""
    vec = [0] * (M + 1)
    for j, e in x.items():
        if not 0 <= j <= M:
            raise ValueError("generator index %d outside 0..%d" % (j, M))
        vec[j] += e
    vec[0] %= 2
    vec[1] %= M
    return tuple(vec)


class SymbolicK2:
    """Formal integer combination of wedge pairs of formal units.

    A unit is a {generator: exponent} dict (cyclo's generator indexing).
    Terms are keyed by the pair of dense exponent vectors (unit_vector)
    with the smaller vector first; swapping negates and equal vectors
    cancel.
    """

    __slots__ = ("M", "terms")

    def __init__(self, M, terms=None):
        self.M = M
        self.terms = dict(terms or {})

    @classmethod
    def zero(cls, M):
        return cls(M)

    def add_wedge(self, x, y, coeff=1):
        """Add coeff * (x ^ y), x and y {generator: exponent} dicts."""
        xv = unit_vector(self.M, x)
        yv = unit_vector(self.M, y)
        if xv == yv or coeff == 0:
            return self
        if xv > yv:
            xv, yv = yv, xv
            coeff = -coeff
        return self._add_term((xv, yv), coeff)

    def _add_term(self, key, coeff):
        """Add coeff to the term of an already canonical key, in place."""
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)
        return self

    def to_row(self):
        """The {column: coeff} row of the symbol, zeros dropped."""
        return {k: v for k, v in enumerate(symbolic_to_row(self)) if v}


def unit_pair_symbol(M, c, d):
    """The wedge (1 - zeta^c) ^ (1 - zeta^d) for an interior symbol pair."""
    assert c % M != 0 and d % M != 0, "both exponents must be nonzero mod M"
    out = SymbolicK2.zero(M)
    out.add_wedge({1 + c % M: 1}, {1 + d % M: 1})
    return out


@functools.cache
def _key_row(M, key):
    """The (column, value) entries of the wedge xv ^ yv of a term key."""
    xv, yv = key
    return tuple(wedge_of_vectors(M, {i: a for i, a in enumerate(xv) if a},
                                  {j: b for j, b in enumerate(yv) if b}).items())


def symbolic_to_row(sym):
    """Dense exterior square coordinates of a symbolic element."""
    M = sym.M
    row = [0] * wedge_dim(M)
    for key, c in sym.terms.items():
        for k, v in _key_row(M, key):
            row[k] += c * v
    return row


@functools.cache
def _key_tame(M, ell, key):
    """Per place over ell, the dlog of the tame symbol of the wedge
    xv ^ yv of a term key, as the integer vx vy m1 + vy rx - vx ry
    (not reduced mod q - 1)."""
    xv, yv = key
    x = [(j, a) for j, a in enumerate(xv) if a]
    y = [(j, b) for j, b in enumerate(yv) if b]
    out = []
    for val, m1, rlog in _place_logs(M, ell):
        vx = sum(a * val[j] for j, a in x)
        vy = sum(b * val[j] for j, b in y)
        rx = sum(a * rlog[j] for j, a in x)
        ry = sum(b * rlog[j] for j, b in y)
        out.append(vx * vy * m1 + vy * rx - vx * ry)
    return tuple(out)
