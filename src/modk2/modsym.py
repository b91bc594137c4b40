"""Modular symbol presentations for the second kind of congruence level structure.

A symbol class at level M is a pair (c, d) mod M with gcd(c, d, M) = 1, taken
up to global sign.  The presentation has one generator per class and the two
standard relation families (the order-2 and order-3 rotations), all orbit
tables numbered by least member (manin_relations).  Its quotient is the
integral homology of the level-M curve relative to all cusps, which is
torsion free of rank 2*genus + #cusps - 1 once M >= 4.

On top of the presentation this module builds the cusp table, boundary
maps, Hecke and diamond operators, the two degeneracy maps between levels,
the interior symbol range (classes with c != 0 and d != 0) together with the
Fricke-twisted decomposition used by the wedge map, and independent genus and
cusp-count formulas used as oracles.  There is one cusp table per level,
the one get_presentation(M).cusps holds; it finds the class of a pair by
one lookup of its canonical key (cusp_key), not by comparing it with every
known class.  Its unit permutations act on the cusps, and the orbits of
all units and of the units that are 1 mod a divisor are orbit tables.

One routine maps symbols: add_symbol_images moves both endpoints of a
class's path by integer matrices acting on fractions x/y, and path_image
adds each moved path, one continued-fraction class at a time, into a
level's reduced coordinates.  U, T, Fricke, the Manin image and both
degeneracy maps are lists of such matrices.

Vectors (reduced, free and cusp coordinates, interior-class coefficients,
operator and degeneracy images, indices checked) and matrices (relation
rows, boundary_free, the solver rows) are intlinalg's {index: value} rows.
"""

import functools
import math

from .arith import divisors, euler_phi, factorize, orbit_table, primitive_pairs
from .intlinalg import (
    CertificateError,
    RowSolver,
    add_row,
    check_columns,
    rank_mod_p,
    vec_rows,
    xgcd,
)


def lift_to_sl2(M, c, d):
    """Integer matrix ((a, b), (cc, dd)) with det 1 and (cc, dd) = (c, d) mod M."""
    cc = c % M
    dd = d % M
    if cc == 0:
        cc = M
    t = 0
    while math.gcd(cc, dd + t * M) != 1:
        t += 1
    dd = dd + t * M
    g, x, y = xgcd(cc, dd)
    if g != 1:
        raise CertificateError("level %d: gcd(%d, %d) = %d" % (M, cc, dd, g))
    # cc*x + dd*y = 1, so the top row (y, -x) gives det y*dd - (-x)*cc = 1
    return ((y, -x), (cc, dd))


def reduce_fraction(num, den):
    """Reduced endpoint pair: den >= 0, den = 0 means the infinite cusp."""
    if den == 0:
        return (1, 0)
    if den < 0:
        num, den = -num, -den
    g = math.gcd(abs(num), den)
    if g > 1:
        num //= g
        den //= g
    return (num, den)


def path_pairs(num, den):
    """Pairs whose classes cover the path from the infinite cusp to num/den.

    The continued-fraction convergents p_j/q_j of num/den give on step j the
    pair (q_j, (-1)^(j-1) * q_(j-1)); all coefficients are +1.
    """
    num, den = reduce_fraction(num, den)
    if den == 0:
        return []
    out = []
    p_prev, q_prev = 1, 0
    p_pp, q_pp = 0, 1
    n, d = num, den
    j = 0
    while True:
        a = n // d
        p_cur, q_cur = a * p_prev + p_pp, a * q_prev + q_pp
        sign = -1 if j % 2 == 0 else 1
        out.append((q_cur, sign * q_prev))
        n, d = d, n - a * d
        if d == 0:
            break
        p_pp, q_pp = p_prev, q_prev
        p_prev, q_prev = p_cur, q_cur
        j += 1
    if (p_cur, q_cur) != (num, den):
        raise CertificateError(
            "the last convergent of %d/%d is %d/%d" % (num, den, p_cur, q_cur))
    return out


def coprime_lift(M, a, b):
    """Coprime integer pair congruent to (a, b) mod M; needs gcd(a, b, M) = 1."""
    a %= M
    b %= M
    for total in range(2 * M + 2):
        for i in range(total + 1):
            j = total - i
            if math.gcd(a + i * M, b + j * M) == 1:
                return (a + i * M, b + j * M)
    raise CertificateError("no coprime lift of (%d, %d) mod %d" % (a, b, M))


def cusp_key(M, a, b):
    """Canonical key of the cusp of a primitive pair (a, b) mod M.

    Two coprime pairs give the same cusp at level M iff, up to a common
    sign, their second entries agree mod M and their first entries agree
    mod gcd(b, M); the key is the least of the two signed
    (b mod M, a mod gcd(b, M)).  A pair with gcd(a, b, M) > 1 gets a key
    no primitive pair has.
    """
    g = math.gcd(b, M)
    return min((b % M, a % g), (-b % M, -a % g))


class CuspTable:
    """Cusp classes at level M with the unit action and its orbits.

    Classes are numbered in order of their first primitive pair (a, b)
    mod M, a then b ascending; the representative of a class is the
    coprime lift of that pair.
    """

    def __init__(self, M):
        self.M = M
        self.reps = []
        self._index = {}
        for a, b in primitive_pairs(M):
            key = cusp_key(M, a, b)
            if key not in self._index:
                self._index[key] = len(self.reps)
                self.reps.append(coprime_lift(M, a, b))
        self.n = len(self.reps)
        self.units = [t for t in range(1, M) if math.gcd(t, M) == 1]
        orbits, number = orbit_table(range(self.n), lambda i: [
            self.diamond(t)[i] for t in self.units])
        self.zero_orbit = set(orbits[number[self.class_of_fraction(0, 1)]])
        self.infinity_orbit = set(orbits[number[self.class_of_fraction(1, 0)]])
        self.interior = sorted(set(range(self.n)) - self.zero_orbit)

    def class_of_pair(self, a, b):
        idx = self._index.get(cusp_key(self.M, a, b))
        if idx is None:
            raise ValueError("(%d, %d) is no primitive pair mod %d"
                             % (a, b, self.M))
        return idx

    def class_of_fraction(self, num, den):
        num, den = reduce_fraction(num, den)
        return self.class_of_pair(num, den)

    @functools.cached_property
    def _perms(self):
        """Index permutation of every unit t mod M acting on cusps."""
        perms = {}
        for t in self.units:
            g, x, y = xgcd(t, self.M)
            # the matrix ((x, -y), (M, t)) has det 1, is trivial at the base
            # level, and acts as the unit t on level structures
            perms[t] = [self.class_of_fraction(x * a - y * b, self.M * a + t * b)
                        for (a, b) in self.reps]
        return perms

    def diamond(self, t):
        """Index permutation induced by the unit t acting on cusps."""
        perm = self._perms.get(t % self.M)
        if perm is None:
            raise ValueError("%d is no unit mod %d" % (t, self.M))
        return perm

    def kernel_orbits(self, M_sub):
        """Orbits on interior cusps under units congruent to 1 mod M_sub."""
        if self.M % M_sub or self.M == M_sub:
            raise ValueError("%d is no proper divisor of %d" % (M_sub, self.M))
        kern = [self.diamond(t) for t in self.units if (t - 1) % M_sub == 0]
        # the interior is the complement of a unit orbit, so kern keeps it
        return orbit_table(self.interior, lambda i: [p[i] for p in kern])[0]


def index_mu(M):
    """Number of sign-normalized classes at level M (M > 2)."""
    if M <= 2:
        raise ValueError("index_mu needs a level above 2, not %d" % M)
    mu = M * M
    for p in factorize(M):
        mu = mu // (p * p) * (p * p - 1)
    if mu % 2:
        raise CertificateError("level %d: mu = %d is odd" % (M, mu))
    return mu // 2


def cusp_number(M):
    if M <= 4:
        return [1, 2, 2, 3][M - 1]
    total = sum(euler_phi(d) * euler_phi(M // d) for d in divisors(M))
    if total % 2:
        raise CertificateError("level %d: twice the cusp number, %d, is odd"
                               % (M, total))
    return total // 2


def genus(M):
    if M < 4:
        raise ValueError("genus needs a level of at least 4, not %d" % M)
    twelve_g = 12 + index_mu(M) - 6 * cusp_number(M)
    if twelve_g % 12 or twelve_g < 0:
        raise CertificateError("level %d: 12g = %d is no nonnegative "
                               "multiple of 12" % (M, twelve_g))
    return twelve_g // 12


def manin_relations(M):
    """Classes, class index, reps, reduced_of and relation rows at level M.

    Every primitive pair indexes its class, the least pair of +-(c, d).  The
    order-2 rotation glues each class to its partner with a sign, the order-3
    rotation gives a row per orbit; a class a rotation fixes (only at levels
    2 and 3) gives the row 2 e or 3 e.
    """
    signs, index = orbit_table(primitive_pairs(M),
                               lambda p: [(-p[0] % M, -p[1] % M)])
    classes = [orb[0] for orb in signs]

    def rotation_orbits(rot):
        return orbit_table(range(len(classes)),
                           lambda i: [index[rot(*classes[i])]])[0]

    glued = rotation_orbits(lambda c, d: (d, -c % M))
    reps = [orb[0] for orb in glued]
    reduced_of = [None] * len(classes)
    rows = []
    for r, orb in enumerate(glued):
        reduced_of[orb[0]] = (r, 1)
        if len(orb) == 1:
            rows.append({r: 2})
        else:
            reduced_of[orb[1]] = (r, -1)
    for orb in rotation_orbits(lambda c, d: (d, (-c - d) % M)):
        row = {}
        for m in orb:
            r, s = reduced_of[m]
            add_row(row, {r: s}, 3 // len(orb))
        if row:
            rows.append(row)
    return classes, index, reps, reduced_of, rows


class ManinPresentation:
    """Relation quotient, cusp data and operators for one level M >= 4."""

    def __init__(self, M):
        if M < 4:
            raise ValueError("presentations start at level 4, not %d" % M)
        self.M = M
        (self.classes, self.index, self.reps, self.reduced_of,
         self.relation_rows) = manin_relations(M)
        self.n, self.nred = len(self.classes), len(self.reps)
        self.lifts = [lift_to_sl2(M, c, d) for (c, d) in self.classes]
        # dense coordinates: they pick the homology bases the reports name
        self.quotient = RowSolver(self.relation_rows, self.nred)

        self.cusps = CuspTable(M)
        self.boundary_red = [self._boundary_of_rep(r) for r in range(self.nred)]
        for i, row in enumerate(self.relation_rows):
            if self.boundary_of_vec(row):
                raise CertificateError(
                    "level %d: relation row %d has nonzero boundary" % (M, i))
        self.free_lifts = self.quotient.free_lifts()
        self.boundary_free = [self.boundary_of_vec(v) for v in self.free_lifts]

        self.interior_classes = [i for i, (c, d) in enumerate(self.classes)
                           if c % M != 0 and d % M != 0]
        self.fricke = ((0, -1), (M, 0))

    # ----- basic coordinates and path images -----

    def path_image(self, out, start, end, coeff=1):
        """Add coeff * {start -> end} to the reduced row out; returns out."""
        M = self.M
        for frac, v in ((end, coeff), (start, -coeff)):
            for c, d in path_pairs(*frac):
                r, s = self.reduced_of[self.index[(c % M, d % M)]]
                add_row(out, {r: s}, v)
        return out

    def decompose_to_reduced(self, start, end):
        return self.path_image({}, start, end)

    def symbol_endpoints(self, i):
        """Start and end fractions of the path attached to class i."""
        (a, b), (c, d) = self.lifts[i]
        return (b, d), (a, c)

    def add_symbol_images(self, out, i, maps, coeff=1, target=None):
        """Add coeff times class i's path moved by each matrix in maps,
        decomposed at target's level (this one by default); returns out."""
        target = target or self
        (x0, y0), (x1, y1) = self.symbol_endpoints(i)
        for (a, b), (c, d) in maps:
            target.path_image(out, (a * x0 + b * y0, c * x0 + d * y0),
                              (a * x1 + b * y1, c * x1 + d * y1), coeff)
        return out

    def _vector_images(self, maps, vec):
        check_columns(vec, self.nred)
        out = {}
        for r, v in vec.items():
            self.add_symbol_images(out, self.reps[r], maps, v)
        return out

    def _boundary_of_rep(self, r):
        (a, b), (c, d) = self.lifts[self.reps[r]]
        return add_row({self.cusps.class_of_fraction(a, c): 1},
                       {self.cusps.class_of_fraction(b, d): 1}, -1)

    def boundary_of_vec(self, vec):
        return vec_rows(vec, self.boundary_red)

    # ----- operators -----

    def apply_diamond(self, t, vec):
        # <t> permutes the reduced generators up to sign
        check_columns(vec, self.nred)
        M = self.M
        if math.gcd(t, M) != 1:
            raise ValueError("%d is no unit mod %d" % (t, M))
        out = {}
        for r, v in vec.items():
            c, d = self.classes[self.reps[r]]
            r2, s2 = self.reduced_of[self.index[(t * c % M, t * d % M)]]
            out[r2] = s2 * v
        return out

    def apply_u(self, ell, vec):
        return self._vector_images([((1, j), (0, ell)) for j in range(ell)],
                                   vec)

    def apply_t(self, ell, vec):
        if self.M % ell == 0:
            raise ValueError("T_%d: %d divides level %d" % (ell, ell, self.M))
        scaled = self._vector_images([((ell, 0), (0, 1))], vec)
        return add_row(self.apply_u(ell, vec),
                       self.apply_diamond(ell, scaled), 1)

    def apply_w(self, vec):
        """Fricke involution: endpoints x/y map to -y/(M*x)."""
        return self._vector_images([self.fricke], vec)

    # ----- interior symbol range and the twisted decomposition -----

    def manin_image_of_class(self, i):
        return self.add_symbol_images({}, i, [self.fricke])

    @functools.cached_property
    def _solver(self):
        """The Manin images of the interior classes over the relation rows."""
        rows = [self.manin_image_of_class(i) for i in self.interior_classes]
        return RowSolver(rows + self.relation_rows, self.nred)

    def express_in_manin_image(self, vec):
        """Coefficients over interior classes mapping to vec, or None."""
        sol = self._solver.solve(vec)
        k = len(self.interior_classes)
        return None if sol is None else {j: v for j, v in sol.items() if j < k}

    def manin_kernel_vectors(self):
        """Spanning set for coefficient vectors with trivial twisted image."""
        k = len(self.interior_classes)
        rows = [{j: v for j, v in row.items() if j < k}
                for row in self._solver.kernel_basis()]
        return [x for x in rows if x]

    # ----- relative homology bases -----

    def homology_basis(self, allowed_cusps):
        """Basis of the subgroup with boundary supported on allowed_cusps.

        Returns pairs (free_vec, reduced_vec).  The absolute homology is the
        case of an empty allowed set.
        """
        allowed = set(allowed_cusps)
        cols = [j for j in range(self.cusps.n) if j not in allowed]
        if not cols:
            basis = [{i: 1} for i in range(self.quotient.free_rank)]
        else:
            at = {j: c for c, j in enumerate(cols)}
            restricted = [{at[j]: v for j, v in row.items() if j in at}
                          for row in self.boundary_free]
            kv = RowSolver(restricted, len(cols)).kernel_basis()
            basis = lattice_row_basis(kv, len(restricted))
        return [(b, vec_rows(b, self.free_lifts)) for b in basis]

    def absolute_rank(self):
        return (self.quotient.free_rank
                - RowSolver(self.boundary_free, self.cusps.n).rank)


def lattice_row_basis(rows, n):
    """Independent basis of the span of {index: value} rows over range(n)."""
    rows = [r for r in rows if r]
    if not rows:
        return []
    s = RowSolver(rows, n)
    return [vec_rows(urow, rows) for urow in s.U_rows]


def degeneracy_rows(pres_high, pres_low, p):
    """Images of the level-N reduced basis under the two level-lowering maps.

    The first map keeps endpoints, the second scales them by p.  Requires
    pres_high.M == p * pres_low.M.
    """
    if pres_high.M != p * pres_low.M:
        raise ValueError("level %d is not %d times level %d"
                         % (pres_high.M, p, pres_low.M))
    return tuple([pres_high.add_symbol_images({}, i, [m], 1, pres_low)
                  for i in pres_high.reps]
                 for m in (((1, 0), (0, 1)), ((p, 0), (0, 1))))


def twisted_degeneracy(pres_low, p, pi1, pi2, red):
    """(first map) - <p>(second map) of a reduced level-N vector."""
    tw = pres_low.apply_diamond(p, vec_rows(red, pi2))
    return add_row(vec_rows(red, pi1), tw, -1)


def degeneracy_surjective_mod_p(pres_high, pres_low, p):
    """Whether (first map) - <p>(second map) maps the closed-surface
    homology onto the one downstairs mod p.

    Both sides are the boundary-free subgroups; their mod-p reductions
    keep ranks 2g because the boundary sequences split over Z.
    """
    pi1, pi2 = degeneracy_rows(pres_high, pres_low, p)
    rows = [twisted_degeneracy(pres_low, p, pi1, pi2, red)
            for free_vec, red in pres_high.homology_basis(())]
    rel, n = pres_low.relation_rows, pres_low.nred
    img_rank = rank_mod_p(rows + rel, n, p) - rank_mod_p(rel, n, p)
    return img_rank == 2 * genus(pres_low.M)


@functools.cache
def get_presentation(M):
    return ManinPresentation(M)
