"""Exact integer linear algebra: Smith form with transforms, quotients, solves.

Matrices are lists of lists of python ints, row major.  Everything is
arbitrary precision; nothing here tolerates floats.
"""

import heapq
from math import gcd


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


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def add_scaled(acc, vec, scale=1):
    """acc += scale * vec in place, skipping zero entries; returns acc."""
    if scale:
        for j, v in enumerate(vec):
            if v:
                acc[j] += scale * v
    return acc


def vec_mat(x, B):
    acc = [0] * (len(B[0]) if B else 0)
    for a, brow in zip(x, B):
        add_scaled(acc, brow, a)
    return acc


def mat_mul(A, B):
    return [vec_mat(row, B) for row in A]


def smith_normal_form(A):
    """Diagonalize A over the integers.

    Returns (D, U, V, Vinv) with U*A*V == D, U and V unimodular and
    V*Vinv the identity.  D is diagonal, entries nonnegative, each
    dividing the next.  A itself is not modified.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)
    Vinv = identity_matrix(n)

    def row_sub(i, j, q):
        add_scaled(D[i], D[j], -q)
        add_scaled(U[i], U[j], -q)

    def col_sub(j, i, q):
        # column j -= q * column i on D and V, inverse row op on Vinv
        if not q:
            return
        for row in D:
            if row[i]:
                row[j] -= q * row[i]
        for row in V:
            if row[i]:
                row[j] -= q * row[i]
        add_scaled(Vinv[i], Vinv[j], q)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        if best[1] != t:
            row_swap(t, best[1])
        if best[2] != t:
            col_swap(t, best[2])

        while True:
            for i in range(t + 1, m):
                if D[i][t]:
                    row_sub(i, t, D[i][t] // D[t][t])
            left = [i for i in range(t + 1, m) if D[i][t]]
            if left:
                # remainders beat the pivot, promote the smallest
                row_swap(t, min(left, key=lambda i: abs(D[i][t])))
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    col_sub(j, t, D[t][j] // D[t][t])
            left = [j for j in range(t + 1, n) if D[t][j]]
            if left:
                col_swap(t, min(left, key=lambda j: abs(D[t][j])))
                continue
            break

        # the pivot must divide the remaining submatrix or the chain breaks
        p = D[t][t]
        offender = None
        for i in range(t + 1, m):
            row = D[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        if p < 0:
            D[t] = [-v for v in D[t]]
            U[t] = [-v for v in U[t]]
        t += 1
    return D, U, V, Vinv


class IntQuotient:
    """Z^n modulo the row span of a relation matrix, eliminated sparse first.

    While some relation has a unit entry, the one with the smallest
    Markowitz cost (row nnz - 1) * (column nnz - 1) is pivoted on: its
    column is substituted by the rest of its row everywhere and both are
    dropped.  Dense Smith form then runs only on the residual block of
    rows and columns left over; no row transform is kept.

    reduce() maps a vector to a canonical tuple, one residue per torsion
    invariant and one integer per free generator, so two vectors agree in
    the quotient iff their tuples are equal.
    """

    def __init__(self, relations, n):
        self.n = n
        rows = {}
        where = [set() for _ in range(n)]
        for i, r in enumerate(relations):
            if len(r) != n:
                raise ValueError("relation row %d has %d entries, expected %d"
                                 % (i, len(r), n))
            row = {j: v for j, v in enumerate(r) if v}
            if row:
                rows[i] = row
                for j in row:
                    where[j].add(i)

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
                f = row[j] * s
                units = []
                for k, v in piv.items():
                    w = row.get(k, 0) - f * v
                    if w:
                        row[k] = w
                        where[k].add(t)
                        if w in (1, -1):
                            units.append(k)
                    else:
                        del row[k]
                        where[k].discard(t)
                if not row:
                    del rows[t]
                for k in units:
                    heapq.heappush(heap, (cost(t, k), t, k))
            self.steps.append((j, s, piv))

        gone = {j for j, _, _ in self.steps}
        self.cols = [j for j in range(n) if j not in gone]
        block = [[row.get(j, 0) for j in self.cols] for row in rows.values()]
        self._factor(block, len(self.cols))

    def _factor(self, block, k):
        """Smith form of the k-column block; returns its row transform U."""
        if block:
            D, U, V, Vinv = smith_normal_form(block)
        else:
            D, U, V, Vinv = [], [], identity_matrix(k), identity_matrix(k)
        r = 0
        lim = min(len(D), k)
        while r < lim and D[r][r]:
            r += 1
        self.rank = r
        self.torsion = [D[i][i] for i in range(r)]
        self.free_rank = k - r
        self.V = V
        self._free = Vinv[r:]
        return U

    def _coords(self, x):
        """x over the Smith basis of the residual block."""
        x = list(x)
        for j, s, piv in self.steps:
            c = x[j]
            if c:
                f = c * s
                for k, v in piv.items():
                    x[k] -= f * v
        return vec_mat([x[j] for j in self.cols], self.V)

    def reduce(self, x):
        y = self._coords(x)
        head = [y[i] % self.torsion[i] for i in range(self.rank)]
        return tuple(head + y[self.rank:])

    def is_zero(self, x):
        return not any(self.reduce(x))

    def is_zero_away_from(self, x, primes):
        """Whether x dies in the quotient once the given primes are inverted."""
        y = self._coords(x)
        for i in range(self.rank):
            d = self.torsion[i]
            for p in primes:
                while d % p == 0:
                    d //= p
            if y[i] % d:
                return False
        return not any(y[self.rank:])

    def element_order(self, x):
        """Additive order of the class of x, or None when infinite."""
        y = self._coords(x)
        if any(y[self.rank:]):
            return None
        o = 1
        for i in range(self.rank):
            d = self.torsion[i]
            k = d // gcd(d, y[i] % d)
            o = o * k // gcd(o, k)
        return o

    def invariants(self):
        """(nontrivial torsion orders, free rank)."""
        return [d for d in self.torsion if d != 1], self.free_rank

    def free_lifts(self):
        """Vectors in Z^n mapping to the canonical free generators."""
        out = []
        for w in self._free:
            lift = [0] * self.n
            for j, v in zip(self.cols, w):
                lift[j] = v
            out.append(lift)
        return out


class RowSolver(IntQuotient):
    """Dense Smith form of B, keeping its transforms.

    Solves x * B == target over the integers.  Read as a quotient of Z^n by
    the rows of B, its coordinates are those of this one factorisation,
    with nothing eliminated first.
    """

    def __init__(self, B, ncols=None):
        self.m = len(B)
        self.n = len(B[0]) if B else int(ncols or 0)
        self.steps = []
        self.cols = list(range(self.n))
        self.U = self._factor(B, self.n)

    def solve(self, target):
        """An integer x with x * B == target, or None if none exists."""
        c = vec_mat(target, self.V)
        for j in range(self.rank, self.n):
            if c[j]:
                return None
        x = [0] * self.m
        for j in range(self.rank):
            q, rem = divmod(c[j], self.torsion[j])
            if rem:
                return None
            add_scaled(x, self.U[j], q)
        return x

    def kernel_basis(self):
        """Rows spanning {x : x*B == 0}; saturated since U is unimodular."""
        return [list(self.U[i]) for i in range(self.rank, self.m)]


def rank_mod_p(A, p):
    """Rank of A over the prime field with p elements."""
    rows = [[v % p for v in row] for row in A]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for j in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][j]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        prow = [(v * inv) % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, nrows):
            c = rows[i][j]
            if c:
                rows[i] = [(v - c * w) % p for v, w in zip(rows[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank
