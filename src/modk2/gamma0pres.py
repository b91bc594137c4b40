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
one relation row per rewritten relator walked from each unit twist, plus
one row per cusp killing the stabilizer generator of that cusp.  The cusps
are those of the level's Manin presentation (get_presentation(M).cusps),
and the rows are {column: value} dicts, the format IntQuotient eliminates
on.  Homology images are paths 0 -> y(0), decomposed once per Schreier
generator y by that presentation's one path routine
(ManinPresentation.path_image) and moved by each diamond g; they are
{index: value} rows in its reduced coordinates.

Everything is exact integer linear algebra on small matrices.
"""

import functools
import math

from .arith import mat22_mul, orbit_table, primitive_pairs
from .intlinalg import (
    CertificateError,
    IntQuotient,
    RowSolver,
    distinct_rows,
    sparse_row,
    vec_rows,
    xgcd,
)
from .modsym import genus, get_presentation

SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))

IDENT = ((1, 0), (0, 1))


def mat22_inv(m):
    # determinant-one inverse
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix %r has determinant %d, not 1"
                         % (m, a * d - b * c))
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
        if M < 4:
            raise ValueError("cocycle modules start at level 4, not %d" % M)
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

    def _walk_row(self, start, letters, tw=1):
        """Fox row of the rewritten word, starting the walk at a coset.

        Returns ({column: value} row, end coset).  The row records the
        sum of <prefix> * e_gen terms, the walk starting at twist tw.
        """
        row = {}
        i = start
        table = {'s': SIGMA, 't': TAU}
        for x in letters:
            k = self.edge_gen[(i, x)]
            if k is not None:
                j = self.col(tw, k)
                row[j] = row.get(j, 0) + 1
                tw = tw * self.gens[k][1][1] % self.M
            i = self._act(i, table[x])
        return row, i

    def stabilizer_matrix(self, a, b):
        """Parabolic generator of the level-M stabilizer of the cusp a/b.

        Smallest positive width h with the conjugated translation both
        lower-triangular mod M and trivially twisted: M divides b*b*h and
        a*b*h, hence b*h as gcd(a, b) = 1, so h = M / gcd(b, M).
        """
        g, x, y = xgcd(a, b)
        if g != 1:
            raise ValueError("cusp %d/%d is not in lowest terms" % (a, b))
        gm = ((a, -y), (b, x))
        h = self.M // math.gcd(b, self.M)
        return mat22_mul(mat22_mul(gm, ((1, h), (0, 1))), mat22_inv(gm)), h

    def _build_rows(self):
        found = []
        for i in range(len(self.points)):
            for word in (['s', 's'], ['t', 't', 't']):
                for g in self.units:
                    row, end = self._walk_row(i, word, g)
                    if end != i:
                        raise CertificateError(
                            "level %d: relator %s from coset %d ends at %d"
                            % (self.M, "".join(word), i, end))
                    found.append(row)
        for (a, b) in self.cusps.reps:
            mat, width = self.stabilizer_matrix(a, b)
            found.append(self.element_row(mat))
        self.rows = distinct_rows(found)

    def element_row(self, mat):
        """Cocycle value of a group element as a {column: value} row."""
        if mat[1][0] % self.M:
            raise ValueError("matrix %r is not in Gamma0(%d)" % (mat, self.M))
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

    @functools.cached_property
    def homology_images(self):
        """Image of every basis element (g, y_k), indexed like a row: the
        path 0 -> y_k 0 at level M, decomposed once per k, moved by <g>."""
        pres = get_presentation(self.M)
        table = [None] * self.dim
        for k, ((a, b), (c, d)) in enumerate(self.gens):
            path = pres.decompose_to_reduced((0, 1), (b, d))
            for g in self.units:
                table[self.col(g, k)] = pres.apply_diamond(g, path)
        return table

    def map_kills_relations(self):
        pres = get_presentation(self.M)
        for row in self.rows:
            if not pres.quotient.is_zero(vec_rows(row, self.homology_images)):
                return False
        return True

    def surjects_onto_interior_homology(self):
        pres = get_presentation(self.M)
        basis = pres.homology_basis(pres.cusps.zero_orbit)
        free_rank = pres.quotient.free_rank
        solver = RowSolver([fv for fv, _ in basis], free_rank)
        # the Manin quotient has no torsion at any level the checks take
        # (test_presentation_invariants), so the head of reduce() is all
        # zero and its tail holds the free coordinates
        rank = pres.quotient.rank
        coords = []
        for g in self.units:
            for k in range(len(self.gens)):
                red = pres.quotient.reduce(self.homology_images[self.col(g, k)])
                sol = solver.solve(sparse_row(red[rank:]))
                if sol is None:
                    return False
                coords.append(sol)
        return IntQuotient(coords, len(basis)).invariants() == ([], 0)
