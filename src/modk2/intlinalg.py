"""Exact integer linear algebra: Smith form with transforms, quotients, solves.

Vectors, matrices (the rows of IntQuotient, RowSolver and rank_mod_p) and
Smith transforms (built only when read) are {index: value} rows with no
stored zeros; add_row and vec_rows combine them, check_columns bounds their
indices, sparse_row and dense_row convert for smith_normal_form's dense
argument.  rank_mod_p reads the torsion of the one integer quotient.
Everything is arbitrary precision; nothing here tolerates floats.
"""

import functools
import heapq
from math import gcd, lcm

from .arith import away_part


class CertificateError(Exception):
    """A computed certificate failed its exact check."""


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def sparse_row(row):
    """The {index: value} row of a dense list, zeros dropped."""
    return {j: v for j, v in enumerate(row) if v}


def dense_row(row, n):
    """The dense length-n list of an {index: value} row."""
    out = [0] * n
    for j, v in row.items():
        out[j] = v
    return out


def check_columns(row, n, i=None):
    """Raise ValueError naming the row (relation row i, or a vector) if it
    has an index outside range(n)."""
    for j in row:
        if not 0 <= j < n:
            what = "vector" if i is None else "relation row %d" % i
            raise ValueError("%s has column %r outside range(%d)"
                             % (what, j, n))


def add_row(acc, row, scale):
    """acc += scale * row in place for {index: value} rows, dropping the
    zeros it makes; returns acc."""
    if scale:
        for k, v in row.items():
            w = acc.get(k, 0) + scale * v
            if w:
                acc[k] = w
            else:
                acc.pop(k, None)
    return acc


def vec_rows(x, rows):
    """The row sum of x[i] * rows[i] over the entries of x, checked."""
    check_columns(x, len(rows))
    acc = {}
    for i, a in x.items():
        add_row(acc, rows[i], a)
    return acc


def _row_sub(row, i, piv, q, cols):
    """row -= q * piv for row id i, keeping the column index cols."""
    for j, v in piv.items():
        w = row.get(j, 0) - q * v
        if w:
            row[j] = w
            cols[j].add(i)
        else:
            del row[j]
            cols[j].discard(i)


def _triples(ops):
    it = iter(ops)
    return zip(it, it, it)


class SmithForm:
    """D == U*A*V for a matrix A, U and V unimodular, V*Vinv the identity.

    D is a list of sparse {index: value} rows.  U, V and Vinv are built
    from the recorded elementary operations the first time they are read,
    each as a list of sparse rows (U with len(D) rows, V and Vinv with n),
    so a caller pays only for the transforms it uses.  A record is dropped
    once every transform it feeds has been built.  U_head builds only the
    first rows of U, replaying only the row operations that feed them.
    """

    def __init__(self, D, order, row_ops, negated, col_ops, n):
        self.D = D
        self.n = n
        self._order = order        # row id at each final position
        # flat lists of (a, b, q) triples, in the order they were applied
        self._row_ops = row_ops    # row id a -= q * row id b
        self._negated = negated    # row ids whose U row changes sign last
        self._col_ops = col_ops    # column b -= q * column a, or swap
                                   # columns a and b when q == 0

    @functools.cached_property
    def U(self):
        U = self.U_head(len(self._order))
        self._order = self._row_ops = self._negated = None
        return U

    def U_head(self, count):
        """The first count rows of U, read from U once that is built.

        Otherwise a walk back through the row record keeps the operations
        whose target feeds a wanted row, and wants their source from there
        on; only those are replayed.  Each kept row sees the operations
        the full replay applies to it up to its last use, in order, so its
        rows are the full replay's.
        """
        if "U" in self.__dict__:
            return self.U[:count]
        ops = self._row_ops
        wanted = self._order[:count]
        need = set(wanted)
        kept = []
        for x in range(len(ops) - 3, -1, -3):
            if ops[x] in need:
                need.add(ops[x + 1])
                kept.append(x)
        U = {i: {i: 1} for i in need}
        for x in reversed(kept):
            add_row(U[ops[x]], U[ops[x + 1]], -ops[x + 2])
        # a negated row is final, never a source afterwards: it flips last
        for k in self._negated:
            if k in U:
                U[k] = {i: -v for i, v in U[k].items()}
        return [U[i] for i in wanted]

    def _col_record(self, other):
        """The column record; dropped once the other transform it feeds,
        V or Vinv, is built too."""
        ops = self._col_ops
        if other in self.__dict__:
            self._col_ops = None
        return ops

    @functools.cached_property
    def V(self):
        # V is the product of the column operations, first to last.  It is
        # multiplied out last to first, each operation a row operation on
        # the product of the later ones: far less fill-in than building
        # the columns of V from the first operation on.
        V = [{j: 1} for j in range(self.n)]
        for q, j, t in _triples(reversed(self._col_record("Vinv"))):
            if q:
                add_row(V[t], V[j], -q)
            else:
                V[t], V[j] = V[j], V[t]
        # compact rows, columns in increasing order
        return [dict(sorted(row.items())) for row in V]

    @functools.cached_property
    def Vinv(self):
        Vinv = [{j: 1} for j in range(self.n)]
        for t, j, q in _triples(self._col_record("V")):
            if q:
                add_row(Vinv[t], Vinv[j], q)
            else:
                Vinv[t], Vinv[j] = Vinv[j], Vinv[t]
        return Vinv


def smith_normal_form(A):
    """Diagonalize A over the integers.

    Returns a SmithForm: D, U, V and Vinv with U*A*V == D, U and V
    unimodular and V*Vinv the identity.  D is diagonal, entries
    nonnegative, each dividing the next.  A is a dense list of rows and is
    not modified.  D is computed here; the transforms are built from the
    recorded row and column operations when first read.

    The elimination is the classical dense one, and U, V and Vinv are
    exactly its transforms: the pivot is the nonzero of least absolute
    value in the remaining block, first in row-major order; the pivot
    column then the pivot row are reduced modulo it, promoting the least
    remainder (first by index), until both are clear; a row the pivot
    does not divide is added to the pivot row and the step restarts.
    Only the storage is sparse.  Rows of D live under stable ids, a row
    swap moves ids between positions, and a column -> row-ids index lets
    clearing a column and swapping two columns touch only the rows with a
    nonzero there.  No dense matrix is made.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [sparse_row(row) for row in A]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(D):
        for j in row:
            cols[j].add(i)
    at = list(range(m))      # row id at each position
    pos = list(range(m))     # position of each row id
    row_ops = []
    negated = []
    col_ops = []

    def row_swap(s, r):
        a, b = at[s], at[r]
        at[s], at[r] = b, a
        pos[a], pos[b] = r, s

    def col_swap(t, j):
        # only rows at positions >= t can hold columns t and j: the rows
        # above hold just their diagonal entry, left of column t
        a_ids, b_ids = cols[t], cols[j]
        for i in a_ids | b_ids:
            row = D[i]
            a = row.pop(t, 0)
            b = row.pop(j, 0)
            if b:
                row[t] = b
            if a:
                row[j] = a
        cols[t], cols[j] = b_ids, a_ids
        col_ops.extend((t, j, 0))

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for s in range(t, m):
            row = D[at[s]]
            if row:
                a = min(map(abs, row.values()))
                if best is None or a < best[0]:
                    best = (a, s, min(j for j, v in row.items() if abs(v) == a))
                    if a == 1:
                        break
        if best is None:
            break
        if best[1] != t:
            row_swap(t, best[1])
        if best[2] != t:
            col_swap(t, best[2])

        while True:
            k = at[t]
            piv = D[k]
            p = piv[t]
            left = None
            for i in [i for i in cols[t] if i != k]:
                q = D[i][t] // p
                if q:
                    _row_sub(D[i], i, piv, q, cols)
                    row_ops.extend((i, k, q))
                w = D[i].get(t)
                if w and (left is None or (abs(w), pos[i]) < left):
                    left = (abs(w), pos[i])
            if left:
                # remainders beat the pivot, promote the smallest
                row_swap(t, left[1])
                continue
            # column t is now zero off the pivot, so column operations
            # touch only the pivot row of D
            for j, v in list(piv.items()):
                q = v // p
                if j != t and q:
                    if v - q * p:
                        piv[j] = v - q * p
                    else:
                        del piv[j]
                        cols[j].discard(k)
                    col_ops.extend((t, j, q))
            if len(piv) > 1:
                col_swap(t, min((abs(v), j) for j, v in piv.items() if j != t)[1])
                continue
            break

        # the pivot must divide the remaining submatrix or the chain breaks;
        # a unit always does
        k = at[t]
        p = D[k][t]
        if p not in (1, -1):
            offender = next((at[s] for s in range(t + 1, m)
                             if any(v % p for v in D[at[s]].values())), None)
            if offender is not None:
                _row_sub(D[k], k, D[offender], -1, cols)
                row_ops.extend((k, offender, -1))
                continue
        if p < 0:
            # row k is final from here on, so its U row may flip last
            D[k][t] = -p
            negated.append(k)
        t += 1

    # fresh rows: the working ones keep the room their fill-in took
    D = [{j: v for j, v in D[i].items()} for i in at]
    return SmithForm(D, at, row_ops, negated, col_ops, n)


class IntQuotient:
    """Z^n modulo the row span of relation rows, eliminated sparse first.

    Relations are {column: value} rows over range(n), checked.  While some
    relation has a unit entry, the one with the smallest Markowitz cost
    (row nnz - 1) * (column nnz - 1) is pivoted on: its column is
    substituted by the rest of its row everywhere and both are dropped.
    Smith form then runs only on the residual block of rows and columns
    left over.  Its row transform is never read.  The first reduce()
    builds, for every column, the image of its unit vector over the Smith
    basis (a row of V for a residual column; for an eliminated one, the
    images of the rest of its pivot row), so a reduce costs the nonzeros
    of the vector; free_lifts() reads the free rows of Vinv.

    reduce() maps an {index: value} vector to a canonical tuple, one
    residue per torsion invariant and one integer per free generator, so
    two vectors agree in the quotient iff their tuples are equal; an index
    outside range(n) raises ValueError.  Orders and the
    away-from-primes test are read off that tuple (reduced_order,
    reduced_zero_away_from), so a caller needing several answers about
    one vector reduces it once.
    """

    def __init__(self, relations, n):
        self.n = n
        rows = {}
        where = [set() for _ in range(n)]
        for i, r in enumerate(relations):
            check_columns(r, n, i)
            row = {j: v for j, v in r.items() if v}
            for j in row:
                where[j].add(i)
            if row:
                rows[i] = row

        def cost(i, j):
            return (len(rows[i]) - 1) * (len(where[j]) - 1)

        heap = [(cost(i, j), i, j) for i, row in rows.items()
                for j, v in row.items() if v in (1, -1)]
        heapq.heapify(heap)
        # (column, sign, pivot row): the column equals -sign * (rest of row)
        self.steps = []
        while heap:
            c, i, j = heapq.heappop(heap)
            if i not in rows or rows[i].get(j) not in (1, -1):
                continue
            now = cost(i, j)
            if now > c:
                heapq.heappush(heap, (now, i, j))
                continue
            piv = rows.pop(i)
            s = piv[j]
            for k in piv:
                where[k].discard(i)
            for t in list(where[j]):
                row = rows[t]
                _row_sub(row, t, piv, row[j] * s, where)
                if not row:
                    del rows[t]
                for k in piv:
                    if row.get(k) in (1, -1):
                        heapq.heappush(heap, (cost(t, k), t, k))
            self.steps.append((j, s, piv))

        gone = {j for j, _, _ in self.steps}
        self.cols = [j for j in range(n) if j not in gone]
        at = {j: c for c, j in enumerate(self.cols)}
        self._factor([{at[j]: v for j, v in row.items()}
                      for row in rows.values()], len(self.cols))

    def _factor(self, rows, k):
        """Smith form of {index: value} rows over range(k), the one dense
        matrix made here; its transforms are read later."""
        if rows:
            snf = smith_normal_form([dense_row(row, k) for row in rows])
        else:
            snf = SmithForm([], [], [], [], [], k)
        D = snf.D
        r = 0
        lim = min(len(D), k)
        while r < lim and D[r].get(r):
            r += 1
        self.rank = r
        self.torsion = [D[i][i] for i in range(r)]
        self.free_rank = k - r
        self._snf = snf

    @functools.cached_property
    def _images(self):
        """Row j: the unit vector of column j over the Smith basis.

        Steps are undone last to first: a later pivot row never holds an
        earlier eliminated column, so the rest of each pivot row is mapped
        before its own column is.
        """
        images = [None] * self.n
        for i, row in zip(self.cols, self._snf.V):
            images[i] = row
        for j, s, piv in reversed(self.steps):
            acc = {}
            for k, v in piv.items():
                if k != j:
                    add_row(acc, images[k], -s * v)
            images[j] = acc
        self.steps = None
        return images

    def _coords(self, x):
        """The vector x over the Smith basis of the residual block, dense."""
        check_columns(x, self.n)
        acc = [0] * len(self.cols)
        images = self._images
        for j, a in x.items():
            for k, v in images[j].items():
                acc[k] += a * v
        return acc

    def reduce(self, x):
        y = self._coords(x)
        head = [y[i] % self.torsion[i] for i in range(self.rank)]
        return tuple(head + y[self.rank:])

    def is_zero(self, x):
        return not any(self.reduce(x))

    def reduced_zero_away_from(self, red, primes):
        """Whether the class with reduce() tuple red dies once the given
        primes are inverted: each residue is already reduced mod its torsion
        order d, and the part of d away from the primes divides d."""
        if any(red[self.rank:]):
            return False
        return all(y % away_part(d, primes) == 0
                   for y, d in zip(red, self.torsion))

    def reduced_order(self, red):
        """Additive order of the class with reduce() tuple red, or None
        when infinite."""
        if any(red[self.rank:]):
            return None
        return lcm(*(d // gcd(d, y) for y, d in zip(red, self.torsion)))

    def is_zero_away_from(self, x, primes):
        """Whether x dies in the quotient once the given primes are inverted."""
        return self.reduced_zero_away_from(self.reduce(x), primes)

    def element_order(self, x):
        """Additive order of the class of x, or None when infinite."""
        return self.reduced_order(self.reduce(x))

    def invariants(self):
        """(nontrivial torsion orders, free rank)."""
        return [d for d in self.torsion if d != 1], self.free_rank

    def free_lifts(self):
        """Vectors in Z^n mapping to the canonical free generators."""
        cols = self.cols
        return [{cols[j]: v for j, v in w.items()}
                for w in self._snf.Vinv[self.rank:]]


class RowSolver(IntQuotient):
    """Smith form of the {index: value} rows B over range(n), checked,
    keeping its transforms.

    Solves x * B == target over the integers.  Read as a quotient of Z^n by
    the rows of B, its coordinates are those of this one factorisation,
    with nothing eliminated first.  U and V are sparse rows, built when a
    solve, a kernel or U_rows first needs them, so a solve costs the
    nonzeros it touches; U_rows, the first rank rows of U, replays only
    the row operations that feed them.  Every solution is checked
    against B.
    """

    def __init__(self, B, n):
        for i, row in enumerate(B):
            check_columns(row, n, i)
        self.m = len(B)
        self.n = n
        self.steps = []
        self.cols = list(range(n))
        self.B = B
        self._factor(B, n)

    @functools.cached_property
    def U_rows(self):
        return self._snf.U_head(self.rank)

    def solve(self, target):
        """An integer x with x * B == target, or None if none exists.

        target and x are {index: value} rows.  Raises ValueError for a column
        outside range(n), CertificateError if x * B == target fails.
        """
        c = self._coords(target)
        if any(c[self.rank:]) or any(y % d for y, d in zip(c, self.torsion)):
            return None
        q = {i: y // d for i, (y, d) in enumerate(zip(c, self.torsion)) if y}
        x = vec_rows(q, self.U_rows)
        if add_row(vec_rows(x, self.B), target, -1):
            raise CertificateError("RowSolver: x * B differs from the target")
        return x

    def kernel_basis(self):
        """Rows spanning {x : x*B == 0}; saturated since U is unimodular."""
        return [dict(row) for row in self._snf.U[self.rank:]]


def rank_mod_p(rows, n, p):
    """Rank over F_p of {index: value} rows over range(n), checked: n less
    the free rank and the torsion invariants p divides of Z^n / rows."""
    torsion, free = IntQuotient(rows, n).invariants()
    return n - free - sum(1 for d in torsion if d % p == 0)
