"""Wedge-symbol target group and its tame-symbol evaluation backend.

Two complementary views of the group receiving cyclotomic Steinberg
symbols.  The presented model is the exterior square of the formal unit
lattice modulo verified Steinberg relations, multiplicative relations,
and conjugation coinvariance; equalities proved there are genuine
because every imposed relation holds among actual symbols.  The tame
backend evaluates symbols at the places over a chosen set of primes and
certifies inequalities; comparisons in the conjugation-trivial odd
quotient symmetrize by complex conjugation and drop the 2-part of each
residue unit group.
"""

from .arith import away_part, factorize
from .cyclo import CycElt, CycNumFormal, unit_relation_rows, verify_unit_relation
from .intlinalg import IntQuotient
from .modsym import normalize_pair
from .places import (
    lies_over,
    place_moved,
    places_over,
    push_residue,
    transport_residue,
)

_PLACE_TABLES = {}


def _places(M, ell):
    key = (M, ell)
    if key not in _PLACE_TABLES:
        _PLACE_TABLES[key] = places_over(M, ell)
    return _PLACE_TABLES[key]


class SymbolicK2:
    """Formal integer combination of wedge pairs of formal unit elements.

    Terms are keyed by the pair of exponent vectors with the smaller
    vector first; swapping negates and equal vectors cancel.
    """

    __slots__ = ("M", "terms")

    def __init__(self, M, terms=None):
        self.M = M
        self.terms = dict(terms or {})

    @classmethod
    def zero(cls, M):
        return cls(M)

    def add_wedge(self, x, y, coeff=1):
        assert x.M == self.M and y.M == self.M
        xv = tuple(x.to_vector())
        yv = tuple(y.to_vector())
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

    def __add__(self, other):
        assert self.M == other.M
        out = SymbolicK2(self.M, self.terms)
        for key, c in other.terms.items():
            out._add_term(key, c)
        return out

    def scale(self, n):
        if n == 0:
            return SymbolicK2.zero(self.M)
        return SymbolicK2(self.M, {k: n * c for k, c in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def galois(self, t):
        out = SymbolicK2.zero(self.M)
        for (xv, yv), c in self.terms.items():
            out.add_wedge(CycNumFormal.from_vector(self.M, list(xv)).galois(t),
                          CycNumFormal.from_vector(self.M, list(yv)).galois(t),
                          c)
        return out

    def res_to(self, N):
        out = SymbolicK2.zero(N)
        for (xv, yv), c in self.terms.items():
            out.add_wedge(CycNumFormal.from_vector(self.M, list(xv)).res_to(N),
                          CycNumFormal.from_vector(self.M, list(yv)).res_to(N),
                          c)
        return out

    def is_structurally_zero(self):
        return not self.terms


def unit_pair_symbol(M, c, d):
    """The wedge (1 - zeta^c) ^ (1 - zeta^d) for an interior symbol pair."""
    assert c % M != 0 and d % M != 0, "both exponents must be nonzero mod M"
    out = SymbolicK2.zero(M)
    out.add_wedge(CycNumFormal.one_minus_zeta(M, c % M),
                  CycNumFormal.one_minus_zeta(M, d % M))
    return out


def interior_symbol(pres, coeffs):
    """Sum of coeff * unit_pair_symbol(c, d) over the interior classes (c, d)."""
    out = SymbolicK2.zero(pres.M)
    for x, i in zip(coeffs, pres.interior_classes):
        if x:
            for key, c in unit_pair_symbol(pres.M, *pres.classes[i]).terms.items():
                out._add_term(key, x * c)
    return out


class PreimageError(Exception):
    """No interior-symbol preimage exists for a homology element."""


def k2_image(pres, vec):
    """Symbol image of a homology element given in reduced coordinates.

    Solves for an interior-symbol preimage of the class and sums the
    corresponding wedges.  Raises PreimageError when no preimage exists,
    which for boundary-interior classes would contradict the tested
    surjectivity of the interior symbol map.
    """
    coeffs = pres.express_in_manin_image(vec)
    if coeffs is None:
        raise PreimageError("class has no interior-symbol preimage")
    return interior_symbol(pres, coeffs)


# ----- presented model -----


def wedge_dim(M):
    return (M + 1) * M // 2


def wedge_index(M, i, j):
    """Column of the basis wedge e_i ^ e_j, i < j."""
    assert 0 <= i < j <= M
    # triangular enumeration by the smaller index
    return i * (2 * M + 1 - i) // 2 + (j - i - 1)


def wedge_of_vectors(M, xv, yv):
    """Exterior square coordinates of xv ^ yv."""
    row = [0] * wedge_dim(M)
    for i in range(M + 1):
        if not xv[i]:
            continue
        for j in range(M + 1):
            if not yv[j] or i == j:
                continue
            if i < j:
                row[wedge_index(M, i, j)] += xv[i] * yv[j]
            else:
                row[wedge_index(M, j, i)] -= xv[i] * yv[j]
    return row


def symbolic_to_row(sym):
    M = sym.M
    row = [0] * wedge_dim(M)
    for (xv, yv), c in sym.terms.items():
        term = wedge_of_vectors(M, xv, yv)
        for idx, v in enumerate(term):
            if v:
                row[idx] += c * v
    return row


def conj_matrix(M):
    """Conjugation on the unit generators: index map with signs."""
    out = [(0, 1), (1, -1)]
    for a in range(1, M):
        out.append((1 + (M - a), 1))
    return out


class PresentedK2:
    """Exterior square of the unit lattice modulo verified relations."""

    def __init__(self, M):
        self.M = M
        self.dim = wedge_dim(M)
        rows = []
        self._add_lattice_rows(rows)
        self._add_steinberg_rows(rows)
        self._add_negation_rows(rows)
        self._add_conjugation_rows(rows)
        dedup = []
        seen = set()
        for r in rows:
            key = tuple(r)
            if any(r) and key not in seen:
                seen.add(key)
                dedup.append(r)
        self.rows = dedup
        self.quotient = IntQuotient(self.rows, self.dim)

    def _add_lattice_rows(self, rows):
        M = self.M
        self.lattice = unit_relation_rows(M)
        for rel in self.lattice:
            assert verify_unit_relation(M, rel)
            for j in range(M + 1):
                unit = [0] * (M + 1)
                unit[j] = 1
                rows.append(wedge_of_vectors(M, rel, unit))

    def _add_steinberg_rows(self, rows):
        M = self.M
        one = CycElt.one(M)
        u = {c: CycElt.one_minus_zeta(M, c) for c in range(1, M)}
        for a in range(1, M):
            for b in range(1, M):
                s = (a + b) % M
                if s == 0:
                    continue
                # x = u_a / u_s and 1 - x = zeta^a u_b / u_s; x + (1 - x) = 1
                # is u_a + zeta^a u_b = u_s, checked exactly
                assert u[a] + CycElt.zeta(M, a) * u[b] == u[s]
                xv = [0] * (M + 1)
                xv[1 + a] += 1
                xv[1 + s] -= 1
                yv = [0] * (M + 1)
                yv[1] += a
                yv[1 + b] += 1
                yv[1 + s] -= 1
                rows.append(wedge_of_vectors(M, xv, yv))
        for a in range(1, M):
            # x = zeta^a, 1 - x = u_a
            assert CycElt.zeta(M, a) + u[a] == one
            xv = [0] * (M + 1)
            xv[1] = a
            yv = [0] * (M + 1)
            yv[1 + a] = 1
            rows.append(wedge_of_vectors(M, xv, yv))

    def _add_negation_rows(self, rows):
        M = self.M
        for g in range(1, M + 1):
            xv = [0] * (M + 1)
            xv[g] = 1
            yv = list(xv)
            yv[0] += 1
            rows.append(wedge_of_vectors(M, xv, yv))

    def _add_conjugation_rows(self, rows):
        M = self.M
        cmat = conj_matrix(M)
        for i in range(M + 1):
            for j in range(i + 1, M + 1):
                row = [0] * self.dim
                row[wedge_index(M, i, j)] += 1
                ci, si = cmat[i]
                cj, sj = cmat[j]
                s = si * sj
                if ci < cj:
                    row[wedge_index(M, ci, cj)] -= s
                else:
                    row[wedge_index(M, cj, ci)] += s
                rows.append(row)

    @classmethod
    def from_rows(cls, M, rows):
        """Rebuild from previously generated relation rows, skipping checks."""
        self = object.__new__(cls)
        self.M = M
        self.dim = wedge_dim(M)
        self.rows = [list(r) for r in rows]
        self.quotient = IntQuotient(self.rows, self.dim)
        return self

    def reduce(self, sym):
        assert sym.M == self.M
        return self.quotient.reduce(symbolic_to_row(sym))

    def is_zero(self, sym):
        return not any(self.reduce(sym))

    def is_zero_away_from(self, sym, primes):
        return self.quotient.is_zero_away_from(symbolic_to_row(sym), primes)

    def order_of(self, sym):
        return self.quotient.element_order(symbolic_to_row(sym))


_PRESENTED = {}


def get_presented(M):
    if M not in _PRESENTED:
        _PRESENTED[M] = PresentedK2(M)
    return _PRESENTED[M]


# ----- tame backend -----


class TameVector:
    """Tame-symbol values of a symbolic element at places over given primes."""

    __slots__ = ("M", "ells", "places", "comp")

    def __init__(self, M, ells, places, comp):
        self.M = M
        self.ells = ells
        self.places = places
        self.comp = comp

    @classmethod
    def ones(cls, M, ells, places):
        comp = {}
        for ell in ells:
            for w in places[ell]:
                comp[(ell, w.index)] = w.field.one()
        return cls(M, tuple(ells), places, comp)

    def mul(self, other):
        assert self.M == other.M and self.ells == other.ells
        comp = {}
        for key, u in self.comp.items():
            ell = key[0]
            fld = self.places[ell][key[1]].field
            comp[key] = fld.mul(u, other.comp[key])
        return TameVector(self.M, self.ells, self.places, comp)

    def inverse(self):
        comp = {}
        for key, u in self.comp.items():
            fld = self.places[key[0]][key[1]].field
            comp[key] = fld.inverse(u)
        return TameVector(self.M, self.ells, self.places, comp)

    def galois(self, t):
        """Permute places by zeta -> zeta^t and transport residues."""
        comp = {}
        for ell in self.ells:
            plist = self.places[ell]
            for w in plist:
                src = place_moved(plist, w, t)
                comp[(ell, w.index)] = transport_residue(
                    w, src, t, self.comp[(ell, src.index)])
        return TameVector(self.M, self.ells, self.places, comp)

    def conj_symmetrized(self):
        return self.mul(self.galois(-1))

    def is_one(self):
        for key, u in self.comp.items():
            fld = self.places[key[0]][key[1]].field
            if u != fld.one():
                return False
        return True

    def component_orders_divide(self, n):
        for key, u in self.comp.items():
            fld = self.places[key[0]][key[1]].field
            if fld.pow(u, n) != fld.one():
                return False
        return True

    def dlog_certificate(self, discard):
        """Per-place discrete logs of the symmetrized vector.

        Returns (ok, cert): ok is triviality of the conjugation-symmetrized
        vector modulo the part of each unit group away from the discarded
        primes; cert records every component.
        """
        sym = self.conj_symmetrized()
        ok = True
        entries = []
        for ell in self.ells:
            for w in self.places[ell]:
                u = sym.comp[(ell, w.index)]
                n = w.q - 1
                m = away_part(n, discard)
                d = w.field.dlog(u)
                good = d % m == 0
                ok = ok and good
                entries.append({
                    "ell": ell,
                    "place": w.index,
                    "q": w.q,
                    "modulus": m,
                    "dlog": d,
                    "ok": good,
                })
        return ok, entries


def tame_eval(sym, ells=None):
    """Tame-symbol vector of a symbolic element at places over the primes.

    Default primes: the prime divisors of the level.
    """
    M = sym.M
    if ells is None:
        ells = sorted(factorize(M))
    ells = tuple(sorted(ells))
    places = {ell: _places(M, ell) for ell in ells}
    out = TameVector.ones(M, ells, places)
    for (xv, yv), c in sym.terms.items():
        fx = CycNumFormal.from_vector(M, list(xv))
        fy = CycNumFormal.from_vector(M, list(yv))
        for ell in ells:
            for w in places[ell]:
                t = w.tame_pair(fx, fy)
                key = (ell, w.index)
                out.comp[key] = w.field.mul(out.comp[key], w.field.pow(t, c))
    return out


def km_trivial(sym, discard=(2,)):
    """Certificate that a symbol dies in the conjugation-trivial quotient.

    Checks the conjugation-symmetrized tame vector against the part of
    each residue unit group away from the discarded primes.
    """
    tvec = tame_eval(sym)
    ok, entries = tvec.dlog_certificate(set(discard))
    return ok, {"level": sym.M, "discard": sorted(discard), "places": entries}


def norm_compare(M, p, s_high, s_low, discard=(2,)):
    """Tame comparison of a level-Mp symbol's norm against a level-M symbol.

    Pushes the high-level tame vector down place by place with residue
    field norms, divides by the low-level tame vector, and requires the
    conjugation-symmetrized quotient to be trivial away from the
    discarded primes.  Components over p itself exist at the high level
    only when p does not divide M; they are recorded in the certificate
    but not compared, since the low level has no places there.
    """
    N = M * p
    assert s_high.M == N and s_low.M == M
    ells = tuple(sorted(factorize(M)))
    t_high = tame_eval(s_high, ells)
    t_low = tame_eval(s_low, ells)
    places_low = {ell: _places(M, ell) for ell in ells}
    comp = {}
    for ell in ells:
        for v in places_low[ell]:
            pushed = v.field.one()
            matched = 0
            for w in t_high.places[ell]:
                if lies_over(w, v):
                    matched += 1
                    pushed = v.field.mul(
                        pushed, push_residue(w, v, t_high.comp[(ell, w.index)]))
            assert matched > 0, "place matching failure"
            direct = t_low.comp[(ell, v.index)]
            comp[(ell, v.index)] = v.field.mul(pushed, v.field.inverse(direct))
    delta = TameVector(M, ells, places_low, comp)
    ok, entries = delta.dlog_certificate(set(discard))
    cert = {
        "level_high": N,
        "level_low": M,
        "p": p,
        "discard": sorted(discard),
        "places": entries,
    }
    if M % p != 0:
        extra = tame_eval(s_high, (p,))
        cert["uncompared_over_p"] = [
            {"place": w.index, "q": w.q,
             "dlog": w.field.dlog(extra.comp[(p, w.index)])}
            for w in extra.places[p]
        ]
    return ok, cert
