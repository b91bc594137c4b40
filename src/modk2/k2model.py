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

Formal units are {generator: exponent} dicts over -1, zeta and
1 - zeta^a (cyclo's indexing).  A symbol is a {column: coeff} row of the
wedge square of the M + 1 generators, column wedge_index(M, i, j) standing
for e_i ^ e_j (i < j), zero coefficients dropped; the presented model
reduces such rows and the tame backend evaluates them.  The level-M
presented model is built once per process (get_presented); relation rows
read from elsewhere are only compared with it (PresentedK2.from_rows).
"""

import functools

from .arith import away_part, factorize
from .cyclo import CycElt, unit_relation_rows, verify_unit_relation
from .intlinalg import IntQuotient, add_row, distinct_rows
from .places import (
    CertificateError,
    lies_over,
    place_moved,
    places_over,
    push_residue,
)


@functools.cache
def _places(M, ell):
    return places_over(M, ell)


def interior_symbol(pres, coeffs):
    """Row of the sum of coeff * (1 - zeta^c) ^ (1 - zeta^d) over the
    interior classes (c, d), coeffs an {interior position: coeff} row."""
    M = pres.M
    row = {}
    for j, x in coeffs.items():
        c, d = pres.classes[pres.interior_classes[j]]
        add_row(row, wedge_of_vectors(M, {1 + c: 1}, {1 + d: 1}), x)
    return row


class PreimageError(Exception):
    """No interior-symbol preimage exists for a homology element."""


def k2_image(pres, vec):
    """Symbol row of a homology element given in reduced coordinates.

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
    """Column of the basis wedge e_i ^ e_j, 0 <= i < j <= M."""
    if not 0 <= i < j <= M:
        raise ValueError("no wedge column e_%d ^ e_%d at level %d" % (i, j, M))
    # triangular enumeration by the smaller index
    return i * (2 * M + 1 - i) // 2 + (j - i - 1)


def wedge_of_vectors(M, x, y):
    """Row {column: value} of x ^ y, x and y {generator: exponent} dicts."""
    row = {}
    for i, a in x.items():
        for j, b in y.items():
            if i < j:
                k = wedge_index(M, i, j)
                row[k] = row.get(k, 0) + a * b
            elif i > j:
                k = wedge_index(M, j, i)
                row[k] = row.get(k, 0) - a * b
    return {k: v for k, v in row.items() if v}


def _check_columns(M, row):
    """Raise ValueError unless every column of row is a level-M wedge column.

    A negative column would otherwise wrap silently in a dense row or a
    column table.
    """
    dim = wedge_dim(M)
    if row and (min(row) < 0 or max(row) >= dim):
        k = next(k for k in row if not 0 <= k < dim)
        raise ValueError("column %d is not a wedge column of level %d "
                         "(0..%d)" % (k, M, dim - 1))


def conj_matrix(M):
    """Conjugation on the unit generators: index map with signs."""
    out = [(0, 1), (1, -1)]
    for a in range(1, M):
        out.append((1 + (M - a), 1))
    return out


class PresentedK2:
    """Exterior square of the unit lattice modulo verified relations.

    Relation rows are {column: value} dicts of nonzero entries, the
    storage IntQuotient eliminates on.
    """

    def __init__(self, M):
        self.M = M
        self.dim = wedge_dim(M)
        rows = []
        self._add_lattice_rows(rows)
        self._add_steinberg_rows(rows)
        self._add_negation_rows(rows)
        self._add_conjugation_rows(rows)
        self.rows = distinct_rows(rows)
        self.quotient = IntQuotient(self.rows, self.dim)

    def _add_lattice_rows(self, rows):
        M = self.M
        self.lattice = unit_relation_rows(M)
        for rel in self.lattice:
            if not verify_unit_relation(M, rel):
                raise CertificateError(
                    "unit relation %r fails at level %d" % (rel, M))
            for j in range(M + 1):
                rows.append(wedge_of_vectors(M, rel, {j: 1}))

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
                if u[a] + CycElt.zeta(M, a) * u[b] != u[s]:
                    raise CertificateError(
                        "u_%d + zeta^%d u_%d != u_%d at level %d"
                        % (a, a, b, s, M))
                rows.append(wedge_of_vectors(M, {1 + a: 1, 1 + s: -1},
                                             {1: a, 1 + b: 1, 1 + s: -1}))
        for a in range(1, M):
            # x = zeta^a, 1 - x = u_a
            if CycElt.zeta(M, a) + u[a] != one:
                raise CertificateError(
                    "zeta^%d + u_%d != 1 at level %d" % (a, a, M))
            rows.append(wedge_of_vectors(M, {1: a}, {1 + a: 1}))

    def _add_negation_rows(self, rows):
        M = self.M
        for g in range(1, M + 1):
            rows.append(wedge_of_vectors(M, {g: 1}, {g: 1, 0: 1}))

    def _add_conjugation_rows(self, rows):
        M = self.M
        cmat = conj_matrix(M)
        for i in range(M + 1):
            for j in range(i + 1, M + 1):
                ci, si = cmat[i]
                cj, sj = cmat[j]
                # e_i ^ e_j minus its conjugate (si e_ci) ^ (sj e_cj)
                row = wedge_of_vectors(M, {ci: -si * sj}, {cj: 1})
                rows.append(add_row(row, {wedge_index(M, i, j): 1}, 1))

    @classmethod
    def from_rows(cls, M, rows):
        """The level-M model, provided rows are exactly its relation rows.

        Rows from elsewhere (a cache file) are compared with the rows
        this process builds, never trusted; any difference raises
        ValueError.
        """
        pk = get_presented(M)
        if list(rows) != pk.rows:
            raise ValueError("rows differ from the relation rows of level %d"
                             % M)
        return pk

    def reduce(self, row):
        """Reduced class of a {column: coeff} symbol row."""
        _check_columns(self.M, row)
        return self.quotient.reduce(row)

    def is_zero_away_from(self, row, primes):
        return self.quotient.reduced_zero_away_from(self.reduce(row), primes)

    def order_of(self, row):
        return self.quotient.reduced_order(self.reduce(row))


@functools.cache
def get_presented(M):
    """The level-M presented model, built once per process."""
    return PresentedK2(M)


# ----- tame backend -----
#
# Tame components are kept as discrete logs to the canonical generator of
# each residue field.  The tame symbol
#   {x, y}_w = (-1)^(v(x) v(y)) x^v(y) / y^v(x)
# has dlog v(x) v(y) dlog(-1) + v(y) r(x) - v(x) r(y) mod q - 1, with v the
# valuation and r the dlog of the unit-part residue; both are linear in the
# exponent vector over the M + 1 unit generators.  So the component of
# e_i ^ e_j depends only on the level, the prime and the column, one table
# per (level, prime) holds it for every column, and a symbol row's
# component is sum c * table[k] mod q - 1.  Maps between residue fields
# multiply dlogs by one constant: a Galois move by a power of ell (it is a
# power of Frobenius), a norm down a level by the dlog of the norm of the
# upper field's generator.


@functools.cache
def _place_logs(M, ell):
    """Per place over ell: (val, m1, rlog).  Every caller passes a prime
    of the level; at any other prime every val[j] is 0.

    val[j] and the residue of generator j come from
    Place.valuation_and_residue; rlog[j] is the dlog of that residue and
    m1 = rlog[0] = dlog(-1).
    """
    tables = []
    for w in _places(M, ell):
        vr = [w.valuation_and_residue({j: 1}) for j in range(M + 1)]
        val = [v for v, _ in vr]
        logs = {}
        for _, r in vr:
            if r not in logs:
                logs[r] = w.field.dlog(r)
        rlog = [logs[r] for _, r in vr]
        tables.append((val, rlog[0], rlog))
    return tables


@functools.cache
def _column_tame(M, ell):
    """Per wedge column e_i ^ e_j, per place over ell, the dlog of the tame
    symbol {e_i, e_j} as the integer vi vj m1 + vj ri - vi rj (not reduced
    mod q - 1)."""
    logs = _place_logs(M, ell)
    return [tuple(val[i] * val[j] * m1 + val[j] * rlog[i] - val[i] * rlog[j]
                  for val, m1, rlog in logs)
            for i in range(M + 1) for j in range(i + 1, M + 1)]


@functools.cache
def _transport_log(M, ell, index, t):
    """(src, c): zeta -> zeta^t, t reduced mod M, carries the place src over
    ell onto the place w with this index and sends a component d at src to
    c * d there.  All places over ell share one field, and the move sends
    the root of src to xbar_w^t = (root of src)^(ell^i), where w.orbit[0] * t
    = src.orbit[0] * ell^i mod M': it is Frobenius^i, so c = ell^i mod q - 1."""
    places = _places(M, ell)
    w = places[index]
    src = place_moved(places, w, t)
    moved = w.orbit[0] * t % w.Mprime
    for i in range(w.f):
        if src.orbit[0] * ell**i % w.Mprime == moved:
            return src.index, pow(ell, i, w.q - 1)
    raise CertificateError(
        "level %d over %d: place %d moved by %d is no Frobenius power of "
        "place %d" % (M, ell, index, t, src.index))


@functools.cache
def _push_logs(N, M, ell):
    """Per place v at level M over ell: [(w index, c)] over the places w of
    level N above v, c the dlog in k(v) of the norm of k(w)'s generator."""
    table = []
    for v in _places(M, ell):
        pairs = [(w.index, v.field.dlog(
            push_residue(w, v, w.field.generator)))
            for w in _places(N, ell) if lies_over(w, v)]
        if not pairs:
            raise CertificateError(
                "no place of level %d over %d lies over place %d of "
                "level %d" % (N, ell, v.index, M))
        table.append(pairs)
    return table


class TameVector:
    """Tame-symbol values of a symbol row at places over given primes.

    comp maps (ell, place index) to the discrete log, in [0, q - 1), of the
    component to the canonical generator of the place's residue field.
    """

    __slots__ = ("M", "ells", "places", "comp")

    def __init__(self, M, ells, places, comp):
        self.M = M
        self.ells = ells
        self.places = places
        self.comp = comp

    def galois(self, t):
        """Permute places by zeta -> zeta^t and transport residues."""
        comp = {}
        for ell in self.ells:
            for w in self.places[ell]:
                src, c = _transport_log(self.M, ell, w.index, t % self.M)
                comp[(ell, w.index)] = c * self.comp[(ell, src)] % (w.q - 1)
        return TameVector(self.M, self.ells, self.places, comp)

    def conj_symmetrized(self):
        bar = self.galois(-1).comp
        comp = {key: (d + bar[key]) % (self.places[key[0]][key[1]].q - 1)
                for key, d in self.comp.items()}
        return TameVector(self.M, self.ells, self.places, comp)

    def dlog_certificate(self, discard):
        """Per-place discrete logs of the symmetrized vector.

        Returns (ok, cert): ok is triviality of the conjugation-symmetrized
        vector modulo the part of each unit group away from the discarded
        primes; cert records every component.
        """
        sym = self.conj_symmetrized()
        entries = []
        for ell in self.ells:
            for w in self.places[ell]:
                d = sym.comp[(ell, w.index)]
                m = away_part(w.q - 1, discard)
                entries.append({
                    "ell": ell,
                    "place": w.index,
                    "q": w.q,
                    "modulus": m,
                    "dlog": d,
                    "ok": d % m == 0,
                })
        return all(e["ok"] for e in entries), entries


def tame_eval(M, row, ells=None):
    """Tame-symbol vector of a level-M symbol row at places over the primes.

    Default primes: the prime divisors of the level.
    """
    _check_columns(M, row)
    if ells is None:
        ells = sorted(factorize(M))
    ells = tuple(sorted(ells))
    places = {ell: _places(M, ell) for ell in ells}
    comp = {}
    for ell in ells:
        acc = [0] * len(places[ell])
        if row:
            table = _column_tame(M, ell)
            for k, c in row.items():
                for i, t in enumerate(table[k]):
                    acc[i] += c * t
        for w, a in zip(places[ell], acc):
            comp[(ell, w.index)] = a % (w.q - 1)
    return TameVector(M, ells, places, comp)


def km_trivial(M, row, discard=(2,)):
    """Certificate that a level-M symbol row dies in the conjugation-trivial
    quotient.

    Checks the conjugation-symmetrized tame vector against the part of
    each residue unit group away from the discarded primes.
    """
    tvec = tame_eval(M, row)
    ok, entries = tvec.dlog_certificate(set(discard))
    return ok, {"level": M, "discard": sorted(discard), "places": entries}


def norm_compare(M, p, s_high, s_low, discard=(2,)):
    """Tame comparison of a level-Mp symbol row's norm against a level-M one.

    Pushes the high-level tame vector down place by place with residue
    field norms, divides by the low-level tame vector, and requires the
    conjugation-symmetrized quotient to be trivial away from the
    discarded primes.  Components over p itself exist at the high level
    only when p does not divide M; they are recorded in the certificate
    but not compared, since the low level has no places there.
    """
    N = M * p
    ells = tuple(sorted(factorize(M)))
    t_high = tame_eval(N, s_high)
    t_low = tame_eval(M, s_low, ells)
    comp = {}
    for ell in ells:
        for v, pairs in zip(t_low.places[ell], _push_logs(N, M, ell)):
            acc = -t_low.comp[(ell, v.index)]
            for wi, c in pairs:
                acc += c * t_high.comp[(ell, wi)]
            comp[(ell, v.index)] = acc % (v.q - 1)
    delta = TameVector(M, ells, t_low.places, comp)
    ok, entries = delta.dlog_certificate(set(discard))
    cert = {
        "level_high": N,
        "level_low": M,
        "p": p,
        "discard": sorted(discard),
        "places": entries,
    }
    if M % p != 0:
        cert["uncompared_over_p"] = [
            {"place": w.index, "q": w.q, "dlog": t_high.comp[(p, w.index)]}
            for w in t_high.places[p]
        ]
    return ok, cert
