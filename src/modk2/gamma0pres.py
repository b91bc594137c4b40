"""Twisted cocycle module over the level-M Hecke congruence group.

The group of determinant-one integer matrices with lower-left entry
divisible by M, taken up to sign, acts on the projective line mod M by
right multiplication on bottom rows.  One orbit table (p1_table) numbers
the points of that line and maps every primitive pair to its point, so a
step of the action is one lookup; another numbers the units up to sign,
and a twist is a unit mod M looked up in it.  Walking that coset space
gives a Schreier transversal, generators and relators for the group, and
from those a presentation of the universal target module for twisted
one-cocycles: one generator per (unit class, Schreier generator) pair,
one relation row per rewritten relator and unit twist, plus one row per
cusp killing the stabilizer generator of that cusp.  The cusps are those
of the level's Manin presentation (get_presentation(M).cusps), and the
rows are {column: value} dicts, the format IntQuotient eliminates on.
Homology images are paths 0 -> y(0) added in by that presentation's one
path routine (ManinPresentation.path_image), moved by the diamond g.

Everything is exact integer linear algebra on small matrices.
"""

import functools
import math

from .arith import orbit_table, primitive_pairs
from .intlinalg import CertificateError, IntQuotient, RowSolver, add_scaled, xgcd
from .modsym import genus, get_presentation

SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))
TMAT = ((1, 1), (0, 1))

IDENT = ((1, 0), (0, 1))


def mat22_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat22_inv(m):
    # determinant-one inverse
    (a, b), (c, d) = m
    assert a * d - b * c == 1
    return ((d, -b), (-c, a))


def mat22_neg(m):
    (a, b), (c, d) = m
    return ((-a, -b), (-c, -d))


def psl_canon(m):
    """Sign representative: first nonzero of (c, d, a, b) positive."""
    (a, b), (c, d) = m
    for v in (c, d, a, b):
        if v:
            return m if v > 0 else mat22_neg(m)
    raise ValueError("zero matrix")


def psl_word(m):
    """Write m, up to sign, as a word in SIGMA and TAU.

    Returns a list of 's' and 't' letters whose left-to-right product is
    m up to sign.  Uses the continued-fraction descent on the lower-left
    entry, with T = tau*tau*sigma and T^-1 = sigma*tau.
    """
    letters = []

    def emit_t_power(k):
        if k > 0:
            letters.extend(['t', 't', 's'] * k)
        elif k < 0:
            letters.extend(['s', 't'] * (-k))

    cur = m
    while True:
        (a, b), (c, d) = cur
        if c == 0:
            # cur is (1, b; 0, 1) up to sign
            emit_t_power(b if a > 0 else -b)
            break
        q = a // c
        emit_t_power(q)
        letters.append('s')
        cur = mat22_mul(SIGMA, mat22_mul(((1, -q), (0, 1)), cur))
    prod = IDENT
    table = {'s': SIGMA, 't': TAU}
    for x in letters:
        prod = mat22_mul(prod, table[x])
    if prod != m and prod != mat22_neg(m):
        raise CertificateError("word %s does not multiply to %r"
                               % ("".join(letters), m))
    return letters


def p1_table(M):
    """The points of P^1(Z/M) and the point index of every primitive pair.

    A point is the least pair (c, d), 0 <= c, d < M, of its orbit under
    unit scaling; the points are in ascending order.  The index maps each
    primitive pair mod M, reduced into range(M), to its point's position.
    """
    units = [u for u in range(1, M) if math.gcd(u, M) == 1]
    orbits, index = orbit_table(primitive_pairs(M), lambda p: [
        (u * p[0] % M, u * p[1] % M) for u in units])
    return [orb[0] for orb in orbits], index


class CocycleModule:
    """Universal target of twisted one-cocycles vanishing on stabilizers.

    Basis elements are pairs (unit class g, Schreier generator y); the
    quotient imposes the Fox rows of the sigma- and tau-relators at every
    twist and one row per cusp from its parabolic stabilizer generator.
    """

    def __init__(self, M):
        assert M > 3
        self.M = M
        self.cusps = get_presentation(M).cusps
        # units mod M up to sign, each class named by its smaller lift
        signs, self.unit_index = orbit_table(self.cusps.units,
                                             lambda u: [M - u])
        self.units = [orb[0] for orb in signs]
        self.ng = len(self.units)
        self.points, self.point_index = p1_table(M)
        self._build_transversal()
        self._build_generators()
        self._build_rows()
        self.quotient = IntQuotient(self.rows, self.dim)

    # ----- coset walking -----

    def _act(self, i, m):
        """Index of the point i times the matrix m."""
        c, d = self.points[i]
        (a, b), (cc, dd) = m
        M = self.M
        return self.point_index[((c * a + d * cc) % M, (c * b + d * dd) % M)]

    def _build_transversal(self):
        self.start = self.point_index[(0, 1)]
        trans = {self.start: IDENT}
        self.tree_edges = set()
        queue = [self.start]
        while queue:
            i = queue.pop(0)
            for name, m in (('s', SIGMA), ('t', TAU)):
                j = self._act(i, m)
                if j not in trans:
                    trans[j] = mat22_mul(trans[i], m)
                    self.tree_edges.add((i, name))
                    queue.append(j)
        if len(trans) != len(self.points):
            raise CertificateError(
                "level %d: transversal reaches %d of %d cosets"
                % (self.M, len(trans), len(self.points)))
        self.transversal = [trans[i] for i in range(len(self.points))]

    def _build_generators(self):
        # one formal generator per non-tree edge of the coset walk; tree
        # edges carry the trivial element by construction
        self.gens = []
        self.edge_gen = {}
        for i in range(len(self.points)):
            for name, m in (('s', SIGMA), ('t', TAU)):
                if (i, name) in self.tree_edges:
                    self.edge_gen[(i, name)] = None
                    continue
                j = self._act(i, m)
                y = mat22_mul(mat22_mul(self.transversal[i], m),
                              mat22_inv(self.transversal[j]))
                if y[1][0] % self.M:
                    raise CertificateError(
                        "level %d: Schreier generator %r of edge (%d, %s) "
                        "is not in the level group" % (self.M, y, i, name))
                self.edge_gen[(i, name)] = len(self.gens)
                self.gens.append(psl_canon(y))
        self.dim = self.ng * len(self.gens)

    # ----- rows -----

    def col(self, g, k):
        return k * self.ng + self.unit_index[g % self.M]

    def _walk_row(self, start, letters):
        """Fox row of the rewritten word, starting the walk at a coset.

        Returns ({column: value} row, end coset).  The row records the
        sum of <prefix> * e_gen terms at base twist 1.
        """
        row = {}
        i = start
        tw = 1
        table = {'s': SIGMA, 't': TAU}
        for x in letters:
            k = self.edge_gen[(i, x)]
            if k is not None:
                j = self.col(tw, k)
                row[j] = row.get(j, 0) + 1
                tw = tw * self.gens[k][1][1] % self.M
            i = self._act(i, table[x])
        return row, i

    def _gen_equal_rows(self, row):
        """All unit twists of a {column: value} row over the (g, y) basis."""
        out = []
        for g in self.units:
            twisted = {}
            for idx, v in row.items():
                k, ui = divmod(idx, self.ng)
                j = self.col(g * self.units[ui], k)
                twisted[j] = twisted.get(j, 0) + v
            out.append(twisted)
        return out

    def stabilizer_matrix(self, a, b):
        """Parabolic generator of the level-M stabilizer of the cusp a/b.

        Smallest positive width h with the conjugated translation both
        lower-triangular mod M and trivially twisted: M divides b*b*h and
        a*b*h, hence b*h as gcd(a, b) = 1, so h = M / gcd(b, M).
        """
        g, x, y = xgcd(a, b)
        assert g == 1
        gm = ((a, -y), (b, x))
        h = self.M // math.gcd(b, self.M)
        return mat22_mul(mat22_mul(gm, ((1, h), (0, 1))), mat22_inv(gm)), h

    def _build_rows(self):
        found = []
        for i in range(len(self.points)):
            for word in (['s', 's'], ['t', 't', 't']):
                row, end = self._walk_row(i, word)
                if end != i:
                    raise CertificateError(
                        "level %d: relator %s from coset %d ends at %d"
                        % (self.M, "".join(word), i, end))
                found.extend(self._gen_equal_rows(row))
        for (a, b) in self.cusps.reps:
            mat, width = self.stabilizer_matrix(a, b)
            found.append(self.element_row(mat))
        # nonzero rows, first occurrences in order, columns ascending
        unique = dict.fromkeys(tuple(sorted(r.items())) for r in found if r)
        self.rows = [dict(key) for key in unique]

    def element_row(self, mat):
        """Cocycle value of a group element as a {column: value} row."""
        assert mat[1][0] % self.M == 0
        letters = psl_word(mat)
        row, end = self._walk_row(self.start, letters)
        if end != self.start:
            raise CertificateError("level %d: walk of %r does not close"
                                   % (self.M, mat))
        return row

    # ----- invariants and the homology comparison -----

    def expected_rank(self):
        return 2 * genus(self.M) + self.ng - 1

    def rank_matches(self):
        return self.quotient.invariants() == ([], self.expected_rank())

    def homology_image_row(self, g, k):
        """Image of basis element (g, y_k): g * path(0 -> y_k 0) at level M."""
        pres = get_presentation(self.M)
        (a, b), (c, d) = self.gens[k]
        return pres.apply_diamond(g, pres.decompose_to_reduced((0, 1), (b, d)))

    @functools.cached_property
    def homology_images(self):
        """homology_image_row of every basis element, indexed like a row."""
        table = [None] * self.dim
        for g in self.units:
            for k in range(len(self.gens)):
                table[self.col(g, k)] = self.homology_image_row(g, k)
        return table

    def map_kills_relations(self):
        pres = get_presentation(self.M)
        for row in self.rows:
            img = [0] * pres.nred
            for idx, v in row.items():
                add_scaled(img, self.homology_images[idx], v)
            if not pres.quotient.is_zero(img):
                return False
        return True

    def surjects_onto_interior_homology(self):
        pres = get_presentation(self.M)
        basis = pres.homology_basis(pres.cusps.zero_orbit)
        solver = RowSolver([fv for fv, _ in basis], pres.quotient.free_rank)
        cut = pres.quotient.rank
        coords = []
        for g in self.units:
            for k in range(len(self.gens)):
                red = pres.quotient.reduce(self.homology_images[self.col(g, k)])
                if any(red[:cut]):
                    return False
                sol = solver.solve(list(red[cut:]))
                if sol is None:
                    return False
                coords.append({j: v for j, v in enumerate(sol) if v})
        return IntQuotient(coords, len(basis)).invariants() == ([], 0)
