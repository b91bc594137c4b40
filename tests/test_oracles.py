"""Differential tests of the consolidated helpers against the code they replaced.

The replaced code is kept here as oracles: the interior-symbol sum that
rebuilt the whole symbol on every term, the wedge-by-wedge addition of
SymbolicK2, the symbols keyed by dense exponent vectors whose rows and
tame values the wedge-square rows and column tables replaced, the dense
U * rows product of the row-basis routine, the quotient that ran dense
Smith form on the whole relation matrix, the
dense-storage Smith form itself, whose transforms the sparse-storage one
must reproduce exactly, the row solver that added dense rows of U, the
tame backend that kept residue-field elements instead of discrete logs,
the residue-field maps that took special paths at places with
Mprime == 1, the presented-model row builders that filled dense
vectors, the per-term symbol expansion (a unit-pair symbol per
coefficient, a wedge row and tame dot products per term, three reads in
Smith coordinates per presented annotation) that the per-level symbol
tables replaced, the k2rows writer that formatted entry by entry, the
Q[x] extended Euclid and resultant that computed CycElt.inverse and
absolute_norm before the products of Galois conjugates, and the cusp
table that compared each pair with every known class, closed orbits by
search and memoised unit permutations one at a time, the P^1(Z/M)
normalisation that tried every unit, which the keyed level tables
replaced, the Hecke, Fricke, Manin-image and degeneracy maps that each
moved endpoints their own way and went through class dicts, which the one
path-image routine replaced, the hand-written orbit walks (sign
normalisation of pairs, the rotation loops with their seen-set, unit
classes up to sign, the Frobenius walk, kernel orbits of cusps and the
cusp-width search) that arith.orbit_table replaced, the discrete log of
the transported generator that the Frobenius power of a Galois move
replaced, the cocycle rows re-encoded at every unit twist that the
walk at each twist replaced, the dense-list vectors (homology
vectors, operator and degeneracy images, solves, kernel vectors, free
lifts) that {index: value} rows replaced, the full replay of the Smith
row record behind every read of U that the replay of only the rows read
replaced, the discrete log that rebuilt its Pohlig-Hellman subgroup
generators and baby-step tables on every call, the torus symbols put
into an empty element and subtracted anew on every call, and the dense
Gauss-Jordan elimination mod p behind rank_mod_p and the residue-field
changes of root, which the integer quotient and RowSolver replaced, and
the product and long division over F_ell of places (_fp_mul, _fp_mod) and
the product loop of CycElt, which the one product and monic division of
arith replaced.
"""

import copy
import random
from itertools import zip_longest
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from modk2.arith import (
    away_part,
    divisors,
    divmod_monic,
    euler_phi,
    factorize,
    is_prime,
    orbit_table,
    poly_mul,
    power,
    primitive_pairs,
)
from dense_vectors import add_scaled, identity_matrix, vec_mat
from formal_units import (
    SymbolicK2,
    _key_tame,
    column_pairs,
    cyc_is_zero,
    pair_symbol,
    symbol_add,
    symbol_of_units,
    symbol_res_to,
    symbol_scale,
    symbol_sub,
    unit,
    unit_from_vector,
    unit_pair_symbol,
    unit_res_to,
)
from modk2 import modsym, places
from modk2.cyclo import CycElt, cyclotomic_poly, unit_relation_rows
from modk2.gamma0pres import SIGMA, TAU, CocycleModule, p1_table
from modk2.harness import (
    LEVEL_BOUND,
    _presented_annotation,
    _random_lower_divisible,
    _random_sl2,
    save_wedge_rows,
)
from modk2.intlinalg import (
    IntQuotient,
    RowSolver,
    add_row,
    dense_row,
    rank_mod_p,
    smith_normal_form,
    sparse_row,
    vec_rows,
    xgcd,
)
from modk2.k2model import (
    PresentedK2,
    _column_tame,
    _place_logs,
    _places,
    _transport_log,
    get_presented,
    interior_symbol,
    k2_image,
    km_trivial,
    norm_compare,
    tame_eval,
    wedge_dim,
    wedge_index,
    wedge_of_vectors,
)
from modk2.modsym import (
    CuspTable,
    ManinPresentation,
    coprime_lift,
    degeneracy_rows,
    get_presentation,
    lattice_row_basis,
    manin_relations,
    reduce_fraction,
)
from modk2.places import (
    CertificateError,
    embed_residue,
    generators_are_units,
    get_field,
    lies_over,
    place_moved,
    places_over,
    push_residue,
    transport_residue,
)
from modk2.torus_k1 import (
    DivisorFn,
    K1Elem,
    bracket_symbol,
    cocycle_value,
    pushforward_vertical,
)

SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)

LEVELS = (4, 5, 7, 8, 9, 12)

entries = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -5])


def old_add(a, b):
    out = SymbolicK2(a.M, a.terms)
    for (xv, yv), c in b.terms.items():
        out.add_wedge(unit_from_vector(xv), unit_from_vector(yv), c)
    return out


def old_scale(sym, n):
    if n == 0:
        return SymbolicK2.zero(sym.M)
    return SymbolicK2(sym.M, {k: n * c for k, c in sym.terms.items()})


def old_interior_symbol(pres, coeffs):
    out = SymbolicK2.zero(pres.M)
    for x, i in zip(coeffs, pres.interior_classes):
        if x:
            c, d = pres.classes[i]
            out = old_add(out, old_scale(unit_pair_symbol(pres.M, c, d), x))
    return out


def dense_smith_normal_form(A):
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
        # the first least entry in row-major order; none is below 1
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
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

        # the pivot must divide the remaining submatrix or the chain breaks;
        # a pivot of 1 or -1 divides everything
        p = D[t][t]
        offender = None
        if abs(p) != 1:
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


def old_lattice_row_basis(rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    D, U, V, Vinv = dense_smith_normal_form([list(r) for r in rows])
    n = len(rows[0])
    rank = sum(1 for i in range(min(len(rows), n)) if D[i][i] != 0)
    return [[sum(U[i][k] * rows[k][j] for k in range(len(rows)))
             for j in range(n)] for i in range(rank)]


class DenseQuotient:
    """Z^n modulo the row span, by one dense Smith form of all the rows.

    snf, when given, is dense_smith_normal_form of the same rows.
    """

    def __init__(self, relations, n, snf=None):
        self.n = n
        rows = [list(r) for r in relations]
        if not rows:
            rows = [[0] * n]
        D, U, V, Vinv = snf or dense_smith_normal_form(rows)
        lim = min(len(rows), n)
        r = 0
        while r < lim and D[r][r]:
            r += 1
        self.rank = r
        self.V = V
        self.Vinv = Vinv
        self.torsion = [D[i][i] for i in range(r)]
        self.free_rank = n - r

    def reduce(self, x):
        y = vec_mat(x, self.V)
        head = [y[i] % self.torsion[i] for i in range(self.rank)]
        return tuple(head + y[self.rank:])

    def is_zero(self, x):
        return not any(self.reduce(x))

    def is_zero_away_from(self, x, primes):
        y = vec_mat(x, self.V)
        for i in range(self.rank):
            d = self.torsion[i]
            for p in primes:
                while d % p == 0:
                    d //= p
            if y[i] % d:
                return False
        return not any(y[self.rank:])

    def element_order(self, x):
        y = vec_mat(x, self.V)
        if any(y[self.rank:]):
            return None
        o = 1
        for i in range(self.rank):
            d = self.torsion[i]
            k = d // gcd(d, y[i] % d)
            o = o * k // gcd(o, k)
        return o

    def invariants(self):
        return [d for d in self.torsion if d != 1], self.free_rank

    def free_lifts(self):
        return [list(self.Vinv[i]) for i in range(self.rank, self.n)]


def assert_quotients_agree(rows, n, vectors, o=None):
    """The sparse-first quotient of dense rows, given as dicts, against the
    dense oracle o (built here when not given) on given vectors."""
    q = IntQuotient([sparse_row(r) for r in rows], n)
    o = o or DenseQuotient(rows, n)
    assert q.invariants() == o.invariants()
    for x in vectors:
        sx = sparse_row(x)
        assert q.is_zero(sx) == o.is_zero(x)
        assert q.element_order(sx) == o.element_order(x)
        for primes in ((2,), (2, 3)):
            assert q.is_zero_away_from(sx, primes) == o.is_zero_away_from(x, primes)
    free = q.invariants()[1]
    lifts = q.free_lifts()
    assert len(lifts) == free
    for i, lift in enumerate(lifts):
        red = q.reduce(lift)
        unit = [0] * free
        unit[i] = 1
        assert red == tuple([0] * (len(red) - free) + unit)
        assert o.element_order(dense_row(lift, n)) is None
    return q


def unit_vectors(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_vectors(rows, n, count, seed):
    """Unit vectors, random vectors and combinations of the rows, count each."""
    rng = random.Random(seed)
    out = rng.sample(unit_vectors(n), min(n, count))
    for _ in range(count):
        out.append([rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(n)])
        comb = [0] * n
        for row in rng.sample(rows, min(len(rows), 4)):
            add_scaled(comb, row, rng.randint(-3, 3))
        out.append(comb)
    return out


def matrices(max_rows=8, max_cols=8):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=1, max_size=max_rows))


@st.composite
def sparse_relations(draw):
    """Sparse relation matrices with zero rows, repeats, or no unit entries."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        vals = [1, -1, 1, -1, 2, -2, 3, -4, 6]
    else:
        vals = [2, -2, 3, -4, 6, 9]
    entry = st.sampled_from([0] * 9 + vals)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([0] * n)
    rows = list(draw(st.permutations(rows)))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    return rows, n, vectors


@st.composite
def snf_matrices(draw):
    """Matrices with unit or only non-unit entries, zero rows and columns.

    Negative entries make negative pivots; non-unit entries exercise the
    remainder promotions and the added non-divisible rows.
    """
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    vals = [2, -3, 6, 35, -2, -35]
    if draw(st.booleans()):
        vals += [1, -1, 1, -1]
    entry = st.sampled_from([0] * draw(st.integers(0, 12)) + vals)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return rows


def assert_same_classes(q, o, vectors):
    """Equal classes under one quotient are equal classes under the other."""
    classes = {}
    for x in vectors:
        classes.setdefault(q.reduce(sparse_row(x)), set()).add(o.reduce(x))
    assert all(len(c) == 1 for c in classes.values())
    assert len(set().union(*classes.values())) == len(classes)


SMITH_PARTS = ("D", "U", "V", "Vinv")


def assert_smith_forms_equal(A, order=SMITH_PARTS[1:]):
    """The sparse transforms, densified and read in the given order (a
    permutation of U, V, Vinv), are the dense oracle's; returns the
    oracle's factorisation."""
    before = [list(r) for r in A]
    m = len(A)
    n = len(A[0]) if m else 0
    F = smith_normal_form(A)
    want = dict(zip(SMITH_PARTS, dense_smith_normal_form(A)))
    size = {"D": n, "U": m, "V": n, "Vinv": n}
    for part in ("D",) + tuple(order):
        rows = getattr(F, part)
        assert [dense_row(r, size[part]) for r in rows] == want[part]
        assert getattr(F, part) is rows
    # every transform is built, so no operation record is kept
    assert F._row_ops is None and F._col_ops is None
    assert A == before
    return tuple(want[part] for part in SMITH_PARTS)


@st.composite
def level_and_coeffs(draw):
    pres = get_presentation(draw(st.sampled_from(LEVELS)))
    k = len(pres.interior_classes)
    return pres, draw(st.lists(entries, min_size=k, max_size=k))


@st.composite
def formal(draw, M):
    e = {a: draw(st.integers(-2, 2)) for a in
         draw(st.lists(st.integers(1, M - 1), max_size=3))}
    return unit(M, draw(st.integers(0, 1)), draw(st.integers(0, M - 1)), e)


@st.composite
def symbol_pair(draw):
    """Two symbols of one level, each as a row and as a keyed symbol."""
    M = draw(st.sampled_from(LEVELS))
    pairs = []
    for _ in range(2):
        row = {}
        sym = SymbolicK2.zero(M)
        for _ in range(draw(st.integers(0, 6))):
            x, y, c = draw(formal(M)), draw(formal(M)), draw(entries)
            row = symbol_add(row, symbol_scale(wedge_of_vectors(M, x, y), c))
            sym.add_wedge(x, y, c)
        pairs.append((row, sym))
    return pairs


@SETTINGS
@given(level_and_coeffs())
def test_interior_symbol_matches_term_by_term_sum(case):
    pres, coeffs = case
    old = old_interior_symbol(pres, coeffs)
    assert interior_symbol(pres, sparse_row(coeffs)) == old.to_row()


@SETTINGS
@given(symbol_pair())
def test_symbol_addition_matches_wedge_by_wedge(pair):
    (a, sa), (b, sb) = pair
    before = dict(a)
    assert a == sa.to_row() and b == sb.to_row()
    assert symbol_add(a, b) == old_add(sa, sb).to_row()
    assert symbol_sub(a, b) == old_add(sa, old_scale(sb, -1)).to_row()
    assert a == before


def test_rows_and_column_tables_match_keyed_symbols():
    # levels 4..60: the row of every interior class is the keyed oracle's
    # row, and for every ell | M the column table agrees with the oracle's
    # signed key table at every place mod q - 1 (as integers the two differ
    # by vi vj (q - 1) where the key order swaps the pair)
    for M in range(4, LEVEL_BOUND + 1):
        pres = get_presentation(M)
        symbols = []
        for pos, i in enumerate(pres.interior_classes):
            row = interior_symbol(pres, {pos: 1})
            old = unit_pair_symbol(M, *pres.classes[i])
            assert row == old.to_row()
            assert len(row) == len(old.terms) <= 1
            symbols.extend(zip(row.items(), old.terms.items()))
        assert symbols
        for ell in sorted(factorize(M)):
            table = _column_tame(M, ell)
            assert len(table) == wedge_dim(M)
            moduli = [w.q - 1 for w in _places(M, ell)]
            for (k, v), (key, c) in symbols:
                old = _key_tame(M, ell, key)
                assert len(table[k]) == len(old) == len(moduli)
                for t, o, m in zip(table[k], old, moduli):
                    assert (v * t - c * o) % m == 0


@SETTINGS
@given(matrices())
def test_lattice_row_basis_matches_dense_product(rows):
    basis = lattice_row_basis([sparse_row(r) for r in rows], len(rows[0]))
    assert basis == [sparse_row(b) for b in old_lattice_row_basis(rows)]


@SETTINGS
@given(matrices(), st.data())
def test_vector_products_match_dense_sums(B, data):
    # the dense helpers the oracles use, and the sparse rows that replaced
    # them in the package
    x = data.draw(st.lists(entries, min_size=len(B), max_size=len(B)))
    n = len(B[0])
    dense = [sum(x[k] * B[k][j] for k in range(len(B))) for j in range(n)]
    assert vec_mat(x, B) == dense
    acc = list(B[0])
    assert add_scaled(acc, dense, -3) is acc
    assert acc == [b - 3 * d for b, d in zip(B[0], dense)]
    rows = [sparse_row(r) for r in B]
    assert vec_rows(sparse_row(x), rows) == sparse_row(dense)
    acc = dict(rows[0])
    assert add_row(acc, sparse_row(dense), -3) is acc
    assert acc == sparse_row([b - 3 * d for b, d in zip(B[0], dense)])
    assert all(dense_row(r, n) == b for r, b in zip(rows, B))


@settings(max_examples=400, deadline=None, database=None,
          derandomize=True)
@given(snf_matrices(), st.permutations(SMITH_PARTS[1:]))
def test_smith_form_matches_dense_oracle(A, order):
    assert_smith_forms_equal(A, order)


def test_smith_form_matches_dense_oracle_on_manin_matrices():
    # the homology bases and the preimage solutions are read off these
    # transforms, so they must be the dense algorithm's exactly; each
    # dense factorisation also serves as the oracle of the solves and
    # quotients built on the same matrix
    for M in range(4, 41):
        pres = get_presentation(M)
        rel = [dense_row(r, pres.nred) for r in pres.relation_rows]
        stacked = [dense_row(pres.manin_image_of_class(i), pres.nred)
                   for i in pres.interior_classes] + rel
        o = DenseQuotient(rel, pres.nred, assert_smith_forms_equal(rel))
        assert ([dense_row(lift, pres.nred) for lift in pres.free_lifts]
                == o.free_lifts())
        assert pres.quotient.rank == o.rank
        snf = assert_smith_forms_equal(stacked)
        targets = [dense_row(red, pres.nred)
                   for allowed in ((), pres.cusps.zero_orbit)
                   for _, red in pres.homology_basis(allowed)]
        targets += unit_vectors(pres.nred)[:3]
        for target in targets:
            assert_solve_matches(pres._solver, snf, target)
        vectors = targets + random_vectors(rel, pres.nred, 4, M)
        q = assert_quotients_agree(rel, pres.nred, vectors, o)
        assert_same_classes(q, o, vectors)
        for x in vectors + unit_vectors(pres.nred):
            assert pres.quotient.reduce(sparse_row(x)) == o.reduce(x)
        if pres.boundary_free:
            _, U, _, _ = assert_smith_forms_equal(
                [dense_row(r, pres.cusps.n) for r in pres.boundary_free])
            s = RowSolver(pres.boundary_free, pres.cusps.n)
            assert s.kernel_basis() == [sparse_row(u) for u in U[s.rank:]]


@settings(max_examples=150, deadline=None, database=None,
          derandomize=True)
@given(sparse_relations())
def test_sparse_quotient_matches_dense(case):
    rows, n, vectors = case
    vectors = vectors + random_vectors(rows, n, n, len(rows))
    o = DenseQuotient(rows, n)
    q = assert_quotients_agree(rows, n, vectors, o)
    assert_same_classes(q, o, vectors)


def test_sparse_quotient_without_relations():
    q = assert_quotients_agree([], 3, unit_vectors(3))
    assert q.invariants() == ([], 3)
    assert q.free_lifts() == [sparse_row(u) for u in unit_vectors(3)]
    assert IntQuotient([{}, {1: 0}], 2).invariants() == ([], 2)


def test_presented_k2_quotients_match_dense():
    for M in range(4, 17):
        pk = get_presented(M)
        rows = [dense_row(r, pk.dim) for r in pk.rows]
        assert_quotients_agree(rows, pk.dim, random_vectors(rows, pk.dim, 16, M))


def test_cocycle_module_quotients_match_dense():
    for M in range(5, 31):
        cm = CocycleModule(M)
        rows = [dense_row(r, cm.dim) for r in cm.rows]
        assert_quotients_agree(rows, cm.dim, random_vectors(rows, cm.dim, 16, M))


def test_manin_quotient_builds_transforms_on_demand():
    # the presentation reads D and the free rows of Vinv only; V is built
    # by the first reduce and U never
    for M in (11, 24, 37):
        pres = ManinPresentation(M)
        snf = pres.quotient._snf
        assert "U" not in vars(snf) and "V" not in vars(snf)
        rel = [dense_row(r, pres.nred) for r in pres.relation_rows]
        o = DenseQuotient(rel, pres.nred)
        for x in unit_vectors(pres.nred) + random_vectors(rel, pres.nred, 8, M):
            assert pres.quotient.reduce(sparse_row(x)) == o.reduce(x)
        assert "U" not in vars(snf) and "V" in vars(snf)


# ----- the dense presented-model row builders -----


def dense_wedge_of_vectors(M, xv, yv):
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


def dense_unit_relation_rows(M):
    n = M + 1
    rows = []

    def row(pairs):
        vec = [0] * n
        for idx, c in pairs:
            vec[idx] += c
        return vec

    rows.append(row([(0, 2)]))
    rows.append(row([(1, M)]))
    if M % 2 == 0:
        rows.append(row([(0, 1), (1, -(M // 2))]))
    for a in range(1, M):
        rows.append(row([(1 + (M - a), 1), (1 + a, -1), (0, -1), (1, -(M - a))]))
    for d in divisors(M):
        if 1 < d < M:
            step = M // d
            for b in range(1, step):
                pairs = [(1 + d * b, 1)]
                for k in range(d):
                    pairs.append((1 + (b + k * step), -1))
                rows.append(row(pairs))
    return rows


def dense_presented_rows(M):
    """Lattice, Steinberg, negation and conjugation rows, first occurrences."""
    n = M + 1
    dim = wedge_dim(M)
    rows = []
    for rel in dense_unit_relation_rows(M):
        for j in range(n):
            unit = [0] * n
            unit[j] = 1
            rows.append(dense_wedge_of_vectors(M, rel, unit))
    for a in range(1, M):
        for b in range(1, M):
            s = (a + b) % M
            if s == 0:
                continue
            xv = [0] * n
            xv[1 + a] += 1
            xv[1 + s] -= 1
            yv = [0] * n
            yv[1] += a
            yv[1 + b] += 1
            yv[1 + s] -= 1
            rows.append(dense_wedge_of_vectors(M, xv, yv))
    for a in range(1, M):
        xv = [0] * n
        xv[1] = a
        yv = [0] * n
        yv[1 + a] = 1
        rows.append(dense_wedge_of_vectors(M, xv, yv))
    for g in range(1, n):
        xv = [0] * n
        xv[g] = 1
        yv = list(xv)
        yv[0] += 1
        rows.append(dense_wedge_of_vectors(M, xv, yv))
    cmat = [(0, 1), (1, -1)] + [(1 + (M - a), 1) for a in range(1, M)]
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * dim
            row[wedge_index(M, i, j)] += 1
            ci, si = cmat[i]
            cj, sj = cmat[j]
            s = si * sj
            if ci < cj:
                row[wedge_index(M, ci, cj)] -= s
            else:
                row[wedge_index(M, cj, ci)] += s
            rows.append(row)
    dedup = []
    seen = set()
    for r in rows:
        key = tuple(r)
        if any(r) and key not in seen:
            seen.add(key)
            dedup.append(r)
    return dedup


def test_presented_rows_match_dense_builders():
    # same rows in the same order, so IntQuotient takes the same steps
    for M in range(4, 41):
        assert ([dense_row(r, M + 1) for r in unit_relation_rows(M)]
                == dense_unit_relation_rows(M))
        pk = PresentedK2(M)
        oracle = dense_presented_rows(M)
        assert len(pk.rows) == len(oracle)
        for row, want in zip(pk.rows, oracle):
            assert all(row.values())
            assert dense_row(row, pk.dim) == want


def dense_solve(snf, target):
    """x * B == target through the dense U of snf, the dense-storage Smith
    form of B."""
    D, U, V, _ = snf
    m, n = len(D), len(V)
    c = vec_mat(target, V)
    r = 0
    while r < min(m, n) and D[r][r]:
        r += 1
    if any(c[r:]):
        return None
    x = [0] * m
    for j in range(r):
        q, rem = divmod(c[j], D[j][j])
        if rem:
            return None
        add_scaled(x, U[j], q)
    return x


def assert_solve_matches(s, snf, target):
    """The RowSolver s solves the dense target as dense_solve does."""
    want = dense_solve(snf, target)
    got = s.solve(sparse_row(target))
    assert got == (None if want is None else sparse_row(want))


@settings(max_examples=150, deadline=None, database=None,
          derandomize=True)
@given(snf_matrices(), st.data())
def test_row_solver_matches_dense_transform(A, data):
    n = len(A[0])
    s = RowSolver([sparse_row(row) for row in A], n)
    x = data.draw(st.lists(entries, min_size=len(A), max_size=len(A)))
    targets = [vec_mat(x, A)]
    targets += data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  max_size=3))
    snf = dense_smith_normal_form(A)
    for target in targets:
        assert_solve_matches(s, snf, target)
    assert s.kernel_basis() == [sparse_row(u) for u in snf[1][s.rank:]]


# ----- the field-element tame backend -----


class FieldTameVector:
    """Tame-symbol values of a symbol row at places over given primes."""

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
        return FieldTameVector(self.M, self.ells, self.places, comp)

    def galois(self, t):
        """Permute places by zeta -> zeta^t and transport residues."""
        comp = {}
        for ell in self.ells:
            plist = self.places[ell]
            for w in plist:
                src = place_moved(plist, w, t)
                comp[(ell, w.index)] = transport_residue(
                    w, src, t, self.comp[(ell, src.index)])
        return FieldTameVector(self.M, self.ells, self.places, comp)

    def conj_symmetrized(self):
        return self.mul(self.galois(-1))

    def dlog_certificate(self, discard):
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


def field_tame_eval(M, terms, ells=None):
    """Field-element tame vector of the symbol sum c {x, y} over the
    (x, y, c) terms, x and y formal units."""
    if ells is None:
        ells = sorted(factorize(M))
    ells = tuple(sorted(ells))
    places = {ell: _places(M, ell) for ell in ells}
    out = FieldTameVector.ones(M, ells, places)
    for x, y, c in terms:
        for ell in ells:
            for w in places[ell]:
                t = w.tame_pair(x, y)
                key = (ell, w.index)
                out.comp[key] = w.field.mul(out.comp[key], w.field.pow(t, c))
    return out


def field_km_trivial(M, terms, discard=(2,)):
    tvec = field_tame_eval(M, terms)
    ok, entries = tvec.dlog_certificate(set(discard))
    return ok, {"level": M, "discard": sorted(discard), "places": entries}


def field_norm_compare(M, p, s_high, s_low, discard=(2,)):
    N = M * p
    ells = tuple(sorted(factorize(M)))
    t_high = field_tame_eval(N, s_high, ells)
    t_low = field_tame_eval(M, s_low, ells)
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
            comp[(ell, v.index)] = v.field.mul(pushed, v.field.pow(direct, -1))
    delta = FieldTameVector(M, ells, places_low, comp)
    ok, entries = delta.dlog_certificate(set(discard))
    cert = {
        "level_high": N,
        "level_low": M,
        "p": p,
        "discard": sorted(discard),
        "places": entries,
    }
    if M % p != 0:
        extra = field_tame_eval(N, s_high, (p,))
        cert["uncompared_over_p"] = [
            {"place": w.index, "q": w.q,
             "dlog": w.field.dlog(extra.comp[(p, w.index)])}
            for w in extra.places[p]
        ]
    return ok, cert


nonzero = st.sampled_from([1, -1, 2, -2, 3, -5])


def ramified_indices(M, ell):
    """The a for which 1 - zeta^a is not a unit at the places over ell."""
    out = []
    for a in range(1, M):
        n = M // gcd(a, M)
        while n % ell == 0:
            n //= ell
        if n == 1:
            out.append(a)
    return out


@st.composite
def unit_formal(draw, M, indices):
    """A formal element with at least one generator 1 - zeta^a."""
    e = {a: draw(nonzero) for a in
         draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3))}
    return unit(M, draw(st.integers(0, 1)), draw(st.integers(0, M - 1)), e)


def random_symbol(draw, M, max_terms=4):
    """(x, y, c) terms of symbols of units, half of the time only of
    non-units at some place."""
    indices = list(range(1, M))
    if draw(st.booleans()):
        indices = ramified_indices(M, draw(st.sampled_from(sorted(factorize(M)))))
    return [(draw(unit_formal(M, indices)), draw(unit_formal(M, indices)),
             draw(nonzero)) for _ in range(draw(st.integers(1, max_terms)))]


def terms_row(M, terms):
    """Row of the symbol sum c {x, y} over the (x, y, c) terms."""
    row = {}
    for x, y, c in terms:
        row = symbol_add(row, symbol_scale(symbol_of_units(M, x, y), c))
    return row


def terms_res_to(M, terms, N, scale=1):
    return [(unit_res_to(M, x, N), unit_res_to(M, y, N), scale * c)
            for x, y, c in terms]


@st.composite
def tame_case(draw):
    """A symbol at a level 5..30 and primes dividing and not dividing it."""
    M = draw(st.integers(5, 30))
    divisors = sorted(factorize(M))
    ells = {draw(st.sampled_from(divisors)),
            draw(st.sampled_from([q for q in (2, 3, 5, 7) if M % q]))}
    return M, random_symbol(draw, M), tuple(sorted(ells))


def assert_logs_match(new, old):
    """Each dlog component raises the generator to the field component."""
    assert new.comp.keys() == old.comp.keys()
    for (ell, i), d in new.comp.items():
        fld = new.places[ell][i].field
        assert 0 <= d < fld.q - 1
        assert fld.pow(fld.generator, d) == old.comp[(ell, i)]


@settings(max_examples=60, deadline=None, database=None,
          derandomize=True)
@given(tame_case())
def test_tame_logs_match_field_backend(case):
    M, terms, ells = case
    new = tame_eval(M, terms_row(M, terms), ells)
    old = field_tame_eval(M, terms, ells)
    assert_logs_match(new, old)
    for t in range(2, M):
        if gcd(t, M) == 1:
            assert_logs_match(new.galois(t), old.galois(t))
    assert_logs_match(new.conj_symmetrized(), old.conj_symmetrized())


# (10, 3) and (14, 3) add places where the residue-field norm is not the
# identity on discrete logs and the symmetrized certificate still sees it
NORM_LEVELS = ((4, 2), (7, 2), (7, 3), (5, 3), (9, 3), (10, 2), (13, 3),
               (10, 3), (14, 3))


@st.composite
def norm_case(draw):
    M, p = draw(st.sampled_from(NORM_LEVELS))
    s_low = random_symbol(draw, M)
    s_high = random_symbol(draw, M * p)
    if draw(st.booleans()):
        # a restricted symbol, whose norm comparison can pass
        s_high = s_high + terms_res_to(M, s_low, M * p,
                                       draw(st.integers(1, 3)))
    return M, p, s_high, s_low


@settings(max_examples=50, deadline=None, database=None,
          derandomize=True)
@given(norm_case())
def test_tame_certificates_match_field_backend(case):
    M, p, s_high, s_low = case
    N = M * p
    assert (norm_compare(M, p, terms_row(N, s_high), terms_row(M, s_low))
            == field_norm_compare(M, p, s_high, s_low))
    for level, terms in ((N, s_high), (M, s_low)):
        for discard in ((2,), (2, 3)):
            assert (km_trivial(level, terms_row(level, terms), discard)
                    == field_km_trivial(level, terms, discard))


def test_tame_certificates_match_field_backend_on_restrictions():
    # passing and failing comparisons at some pairs; where the moduli are
    # 1 or 15 all pass, but their dlogs are still compared
    for M, p in NORM_LEVELS:
        s = pair_symbol(M, 1, 3)
        terms = [({2: 1}, {4: 1}, 1)]
        for k in range(4):
            assert (norm_compare(M, p, symbol_res_to(M, s, M * p),
                                 symbol_scale(s, k))
                    == field_norm_compare(M, p, terms_res_to(M, terms, M * p),
                                          terms_res_to(M, terms, M, k)))


# ----- Gauss-Jordan mod p, which the integer quotient replaced -----


def gauss_jordan_mod_p(A, p):
    """Reduced row echelon form of A over the prime field with p elements.

    Returns (rows, pivots): the nonzero rows of the reduced form, each with
    a 1 in its pivot column and 0 in the other pivot columns, and those
    pivot columns in increasing order.  Column by column, the pivot row is
    the first remaining row that is nonzero there.
    """
    rows = [[v % p for v in row] for row in A]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][j], -1, p)
        prow = rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            c = row[j]
            if c and i != r:
                rows[i] = [(v - c * w) % p for v, w in zip(row, prow)]
        pivots.append(j)
    return rows[:len(pivots)], pivots


def old_rank_mod_p(rows, n, p):
    return len(gauss_jordan_mod_p([dense_row(row, n) for row in rows], p)[1])


def _solve_prime_field(cols, target, ell):
    """Solve sum c_j cols[j] == target over F_ell; None if inconsistent."""
    n = len(cols)
    # one equation per coordinate: the columns, then the target
    rows, pivots = gauss_jordan_mod_p(list(zip(*cols, target)), ell)
    if n in pivots:
        return None
    sol = [0] * n
    for row, j in zip(rows, pivots):
        sol[j] = row[n]
    return sol


def test_rank_mod_p_matches_gauss_jordan(monkeypatch):
    # every rank degeneracy_surjective_mod_p takes on the inputs
    # sanity-integrality accepts (p prime to M, M * p <= 60), then random
    # matrices with repeated rows and entries divisible by p
    ranks = []

    def both(rows, n, p):
        got = rank_mod_p(rows, n, p)
        assert got == old_rank_mod_p(rows, n, p)
        ranks.append(got)
        return got

    monkeypatch.setattr(modsym, "rank_mod_p", both)
    for M in range(4, LEVEL_BOUND // 2 + 1):
        for p in range(2, LEVEL_BOUND // M + 1):
            if is_prime(p) and M % p:
                modsym.degeneracy_surjective_mod_p(
                    get_presentation(M * p), get_presentation(M), p)
    assert len(ranks) == 78
    rng = random.Random(26)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            A = [[rng.choice([0, 0, p, -p, 1, rng.randint(-20, 20)])
                  for _ in range(n)] for _ in range(m)]
            A += [list(row) for row in A[:rng.randint(0, m)]]
            rows = [sparse_row(row) for row in A]
            assert rank_mod_p(rows, n, p) == old_rank_mod_p(rows, n, p)


def test_change_of_root_matches_gauss_jordan(monkeypatch):
    # every change of root made by a transport at each level <= 60 and by
    # an embedding and a push at each level pair M < M * p <= 60, over
    # every prime dividing M, on random elements
    real = places._change_root
    fields = []

    def both(u, fld, root, f, out_fld, out_root):
        got = real(u, fld, root, f, out_fld, out_root)
        powers = [fld.one()]
        for _ in range(f - 1):
            powers.append(fld.mul(powers[-1], root))
        coeffs = _solve_prime_field(powers, u, fld.ell)
        assert got == out_fld.eval_fp_poly(coeffs, out_root)
        fields.append(fld.q)
        return got

    monkeypatch.setattr(places, "_change_root", both)
    rng = random.Random(26)
    for M in range(4, LEVEL_BOUND + 1):
        for ell in sorted(factorize(M)):
            below = places_over(M, ell)
            for w in below:
                for t in range(1, M):
                    if gcd(t, M) == 1:
                        u = w.field.decode(rng.randrange(1, w.q))
                        transport_residue(w, place_moved(below, w, t), t, u)
            for p in range(2, LEVEL_BOUND // M + 1):
                if not is_prime(p):
                    continue
                for v in below:
                    for w in places_over(M * p, ell):
                        if lies_over(w, v):
                            embed_residue(
                                v, w, v.field.decode(rng.randrange(1, v.q)))
                            push_residue(
                                w, v, w.field.decode(rng.randrange(1, w.q)))
    assert len(fields) == 2508 and max(fields) == 3**18


# ----- residue-field maps with the Mprime == 1 special cases -----


def old_place_moved(places, w, t):
    """The place w composed with zeta -> zeta^t, located in the table."""
    assert gcd(t, w.M) == 1
    if w.Mprime == 1:
        return w
    target = w.field.pow(w.xbar, t % w.Mprime)
    for v in places:
        if w.field.eval_fp_poly(v.factor, target) == w.field.zero():
            return v
    raise AssertionError("place table incomplete")


def old_transport_residue(w, wfrom, t, u):
    """Image in k(w) of u in k(wfrom) under the root of wfrom -> xbar_w^t.

    wfrom must be place_moved(places, w, t); the map is the residue-field
    isomorphism induced by zeta -> zeta^t.
    """
    if w.Mprime == 1:
        return u
    fld = w.field
    base = fld.pow(w.xbar, t % w.Mprime)
    assert fld.eval_fp_poly(wfrom.factor, base) == fld.zero()
    cols = []
    cur = fld.one()
    for _ in range(fld.f):
        cols.append(cur)
        cur = fld.mul(cur, wfrom.xbar)
    coeffs = _solve_prime_field(cols, u, fld.ell)
    assert coeffs is not None
    out = fld.zero()
    cur = fld.one()
    for c in coeffs:
        if c:
            out = fld.add(out, fld.mul(fld.scalar(c), cur))
        cur = fld.mul(cur, base)
    return out


def old_lies_over(w, v):
    """Whether the place w (higher level) restricts to the place v."""
    assert w.ell == v.ell and w.M % v.M == 0
    if v.Mprime == 1:
        return True
    s = w.Mprime // v.Mprime
    assert w.Mprime == s * v.Mprime
    target = w.field.pow(w.xbar, s)
    return w.field.eval_fp_poly(v.factor, target) == w.field.zero()


def old_embed_residue(v, w, u):
    """Image of u in k(v) under the compatible embedding k(v) -> k(w)."""
    assert old_lies_over(w, v)
    if v.Mprime == 1:
        return w.field.scalar(u[0])
    s = w.Mprime // v.Mprime
    fld = v.field
    cols = []
    cur = fld.one()
    for _ in range(fld.f):
        cols.append(cur)
        cur = fld.mul(cur, v.xbar)
    coeffs = _solve_prime_field(cols, u, fld.ell)
    assert coeffs is not None
    wfld = w.field
    base = wfld.pow(w.xbar, s)
    out = wfld.zero()
    cur = wfld.one()
    for c in coeffs:
        if c:
            out = wfld.add(out, wfld.mul(wfld.scalar(c), cur))
        cur = wfld.mul(cur, base)
    return out


def old_push_residue(w, v, u):
    """Norm of u from k(w) down to k(v), expressed in k(v)'s presentation."""
    assert old_lies_over(w, v)
    wfld = w.field
    n = wfld.pow(u, (w.q - 1) // (v.q - 1))
    if v.Mprime == 1:
        if any(n[1:]):
            raise AssertionError("norm did not land in the prime field")
        return v.field.scalar(n[0])
    s = w.Mprime // v.Mprime
    base = wfld.pow(w.xbar, s)
    cols = []
    cur = wfld.one()
    for _ in range(v.field.f):
        cols.append(cur)
        cur = wfld.mul(cur, base)
    coeffs = _solve_prime_field(cols, n, wfld.ell)
    if coeffs is None:
        raise AssertionError("norm did not land in the subfield")
    vfld = v.field
    out = vfld.zero()
    cur = vfld.one()
    for c in coeffs:
        if c:
            out = vfld.add(out, vfld.mul(vfld.scalar(c), cur))
        cur = vfld.mul(cur, v.xbar)
    return out


def residue_samples(fld, rng):
    """The generator, which the tame tables map, and two random units."""
    return [fld.generator] + [fld.decode(rng.randrange(1, fld.q))
                                for _ in range(2)]


def test_residue_maps_match_special_cased_ones():
    # at a prime-power level (5, 8, 9, 16, 25, 27, 32, ...) the place over
    # the prime has Mprime == 1, where the old maps took special paths; as
    # the lower place of a pair (4 below 12, say) it meets Mprime > 1 above
    rng = random.Random(61)
    for M in range(4, 41):
        for ell in sorted(factorize(M)):
            below = places_over(M, ell)
            for w in below:
                for t in range(1, M):
                    if gcd(t, M) != 1:
                        continue
                    src = place_moved(below, w, t)
                    assert src is old_place_moved(below, w, t)
                    for u in residue_samples(w.field, rng):
                        assert (transport_residue(w, src, t, u)
                                == old_transport_residue(w, src, t, u))
            for p in range(2, 60 // M + 1):
                if not is_prime(p):
                    continue
                above = places_over(M * p, ell)
                for v in below:
                    for w in above:
                        assert lies_over(w, v) == old_lies_over(w, v)
                        if not lies_over(w, v):
                            continue
                        for u in residue_samples(v.field, rng):
                            assert (embed_residue(v, w, u)
                                    == old_embed_residue(v, w, u))
                        for u in residue_samples(w.field, rng):
                            assert (push_residue(w, v, u)
                                    == old_push_residue(w, v, u))


def transport_log_by_dlog(M, ell, w, t):
    """(src, c) of a Galois move as computed before c was read off the
    orbits: the discrete log of the generator moved by transport_residue."""
    src = place_moved(_places(M, ell), w, t)
    g = w.field.generator
    return src.index, w.field.dlog(transport_residue(w, src, t, g))


def small_residue_fields(levels):
    """(M, ell), ell in 2, 3, 5, 7, whose residue fields have at most 10^6
    elements."""
    for M in levels:
        for ell in (2, 3, 5, 7):
            f = multiplicative_order(ell, away_part(M, [ell]))
            if ell**f <= 10**6:
                yield M, ell


def test_transport_logs_are_frobenius_powers():
    # conjugation (t = -1, reduced mod M as TameVector.galois passes it)
    # at every place of levels 2..60, every unit t at levels 2..24
    moves = []
    for levels, units in ((range(2, 61), lambda M: [M - 1]),
                          (range(2, 25), lambda M: [
                              t for t in range(1, M) if gcd(t, M) == 1])):
        moves.append(0)
        for M, ell in small_residue_fields(levels):
            for w in _places(M, ell):
                for t in units(M):
                    assert (_transport_log(M, ell, w.index, t)
                            == transport_log_by_dlog(M, ell, w, t))
                    moves[-1] += 1
    assert moves == [355, 1028]


def test_transport_log_refuses_a_move_off_the_orbit(monkeypatch):
    # level 7 over 2: orbits (1, 2, 4) and (3, 5, 6); a place whose orbit
    # also claims 3 is found by place_moved for t = 3, but no Frobenius
    # power of its root 1 is 3, so there is no c to read off
    w0, w1 = places_over(7, 2)
    bad = copy.copy(w0)
    bad.orbit = w0.orbit + (3,)
    monkeypatch.setattr("modk2.k2model._places", lambda M, ell: [bad, w1])
    with pytest.raises(CertificateError, match="level 7 over 2: place 0 "
                       "moved by 3 is no Frobenius power of place 0"):
        _transport_log.__wrapped__(7, 2, 0, 3)


def test_generators_are_units_matches_valuations():
    # the verdict of integral-at-ell against the valuations it stands for;
    # both must fail wherever ell divides the level
    for M in range(4, 31):
        gens = [{j: 1} for j in range(M + 1)]
        for ell in (2, 3, 5, 7):
            units = all(w.valuation_and_residue(g)[0] == 0
                        for w in places_over(M, ell) for g in gens)
            assert generators_are_units(M, ell) == units == (M % ell != 0)


# ----- per-term symbol expansion, before the per-level symbol tables -----


def per_term_interior_symbol(pres, coeffs):
    """interior_symbol building unit_pair_symbol for every coefficient."""
    out = SymbolicK2.zero(pres.M)
    for x, i in zip(coeffs, pres.interior_classes):
        if x:
            for key, c in unit_pair_symbol(pres.M, *pres.classes[i]).terms.items():
                out._add_term(key, x * c)
    return out


def per_term_row(sym):
    """Dense row of a keyed symbol, the wedge of every term taken afresh."""
    M = sym.M
    row = [0] * wedge_dim(M)
    for (xv, yv), c in sym.terms.items():
        term = wedge_of_vectors(M, {i: a for i, a in enumerate(xv) if a},
                                {j: b for j, b in enumerate(yv) if b})
        for k, v in term.items():
            row[k] += c * v
    return row


def per_column_tame_comp(M, row, ells):
    """tame_eval's comp with the dot products taken per column and place."""
    pairs = column_pairs(M)
    comp = {}
    for ell in ells:
        for w, (val, m1, rlog) in zip(_places(M, ell), _place_logs(M, ell)):
            acc = 0
            for k, c in row.items():
                i, j = pairs[k]
                acc += c * (val[i] * val[j] * m1 + val[j] * rlog[i]
                            - val[i] * rlog[j])
            comp[(ell, w.index)] = acc % (w.q - 1)
    return comp


def coords_is_zero_away_from(q, x, primes):
    y = q._coords(x)
    for i in range(q.rank):
        d = q.torsion[i]
        for p in primes:
            while d % p == 0:
                d //= p
        if y[i] % d:
            return False
    return not any(y[q.rank:])


def coords_element_order(q, x):
    y = q._coords(x)
    if any(y[q.rank:]):
        return None
    o = 1
    for i in range(q.rank):
        d = q.torsion[i]
        k = d // gcd(d, y[i] % d)
        o = o * k // gcd(o, k)
    return o


def three_read_annotation(pk, row, discard):
    """The presented annotation from reduce, order and away-from checks,
    each reading the row in Smith coordinates on its own."""
    if not any(pk.quotient.reduce(row)):
        return {"reduced_to_zero": True}
    return {"reduced_to_zero": False,
            "residual_order": coords_element_order(pk.quotient, row),
            "residual_in_discard_torsion":
                coords_is_zero_away_from(pk.quotient, row, discard)}


def assert_tables_match_per_term(M, row):
    assert tame_eval(M, row).comp == per_column_tame_comp(
        M, row, sorted(factorize(M)))
    pk = get_presented(M)
    for discard in ((2,), (2, 3)):
        assert (_presented_annotation(pk, row, discard)
                == three_read_annotation(pk, row, discard))


@st.composite
def interior_and_extra(draw):
    """An interior symbol at a level 4..30 and wedges of formal elements,
    most of them not the term of any interior class."""
    pres = get_presentation(draw(st.integers(4, 30)))
    k = len(pres.interior_classes)
    coeffs = [0] * k
    for i in draw(st.lists(st.integers(0, k - 1), max_size=8)):
        coeffs[i] = draw(nonzero)
    extra = {}
    for _ in range(draw(st.integers(0, 4))):
        term = wedge_of_vectors(pres.M, draw(formal(pres.M)),
                                draw(formal(pres.M)))
        extra = symbol_add(extra, symbol_scale(term, draw(nonzero)))
    return pres, coeffs, extra


@SETTINGS
@given(interior_and_extra())
def test_symbol_tables_match_per_term_expansion(case):
    pres, coeffs, extra = case
    sym = interior_symbol(pres, sparse_row(coeffs))
    old = per_term_interior_symbol(pres, coeffs)
    assert sym == sparse_row(per_term_row(old))
    assert_tables_match_per_term(pres.M, symbol_add(sym, extra))


def test_symbol_tables_match_per_term_expansion_on_bench_bases():
    # every homology basis class of the presented bench grid's upper levels
    for M, p in ((4, 2), (8, 2), (9, 3)):
        pres = get_presentation(M * p)
        for orb in pres.cusps.kernel_orbits(M):
            for _, red in pres.homology_basis(orb):
                sym = k2_image(pres, red)
                old = per_term_interior_symbol(pres, dense_row(
                    pres.express_in_manin_image(red),
                    len(pres.interior_classes)))
                assert sym == sparse_row(per_term_row(old))
                assert_tables_match_per_term(pres.M, sym)


def old_save_wedge_rows(pk, path):
    with open(path, "w") as fh:
        fh.write("modk2 wedge-relations 1\n")
        fh.write("level %d\n" % pk.M)
        fh.write("dim %d\n" % pk.dim)
        fh.write("rows %d\n" % len(pk.rows))
        for row in pk.rows:
            fh.write(" ".join(str(row.get(j, 0)) for j in range(pk.dim)) + "\n")


def test_wedge_rows_file_matches_entry_by_entry_writer(tmp_path):
    # the levels the presented bench grid writes
    for M in (8, 16, 27):
        pk = get_presented(M)
        new, old = tmp_path / ("new-%d" % M), tmp_path / ("old-%d" % M)
        save_wedge_rows(pk, str(new))
        old_save_wedge_rows(pk, str(old))
        assert new.read_bytes() == old.read_bytes()


# ----- CycElt inverse and norm through Q[x] -----


def _qpoly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _qpoly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] * inv
        if c:
            q[i - (len(b) - 1)] = c
            for j, bv in enumerate(b):
                a[i - (len(b) - 1) + j] -= c * bv
    return _qpoly_trim(q), _qpoly_trim(a)


def _qpoly_xgcd(a, b):
    """Extended euclid in Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = _qpoly_trim(list(a)), _qpoly_trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]

    def sub_scaled(u, q, v):
        # u - q*v in Q[x]
        out = list(u) + [Fraction(0)] * max(0, len(q) + len(v) - 1 - len(u))
        for i, qc in enumerate(q):
            if qc:
                for j, vc in enumerate(v):
                    if vc:
                        out[i + j] -= qc * vc
        return _qpoly_trim(out)

    while r1:
        q, r = _qpoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_scaled(s0, q, s1)
        t0, t1 = t1, sub_scaled(t0, q, t1)
    return r0, s0, t0


def _qpoly_resultant(a, b):
    a = _qpoly_trim(list(a))
    b = _qpoly_trim(list(b))
    if not a or not b:
        return Fraction(0)
    sign = 1
    acc = Fraction(1)
    while len(b) > 1:
        _, r = _qpoly_divmod(a, b)
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1 if r else 0
        if not r:
            return Fraction(0)
        if (da * db) % 2:
            sign = -sign
        acc *= b[-1] ** (da - dr)
        a, b = b, r
    return sign * acc * b[0] ** (len(a) - 1)


def xgcd_inverse(x):
    phi = [Fraction(v) for v in cyclotomic_poly(x.M)]
    g, _, t = _qpoly_xgcd(phi, [Fraction(v) for v in x.coeffs])
    assert len(g) == 1 and g[0] != 0, "not invertible"
    scale = 1 / g[0]
    return CycElt(x.M, [v * scale for v in t])


def resultant_norm(x):
    f = [Fraction(v) for v in cyclotomic_poly(x.M)]
    return _qpoly_resultant(f, [Fraction(v) for v in x.coeffs])


def test_conjugate_products_match_xgcd_and_resultant():
    rng = random.Random(29)
    elts = []
    for M in range(4, 41):
        for _ in range(3):
            elts.append(CycElt(M, [rng.randint(-2, 2)
                                   for _ in range(euler_phi(M))]))
    for M in (4, 5, 7, 9, 12, 15):
        for _ in range(3):
            elts.append(CycElt(M, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                   for _ in range(euler_phi(M))]))
    for x in elts:
        assert x.absolute_norm() == resultant_norm(x), x
        if not cyc_is_zero(x):
            assert x.inverse() == xgcd_inverse(x), x


# ----- cusp classes and P^1(Z/M) found by search -----


def cusps_equivalent(M, p1, p2):
    """Whether two coprime integer pairs give the same cusp at level M."""
    a1, b1 = p1
    a2, b2 = p2
    g = gcd(b1, M)
    for s in (1, -1):
        if (b2 - s * b1) % M == 0 and (a2 - s * a1) % g == 0:
            return True
    return False


class ScanCuspTable(CuspTable):
    """The cusp table that compared each pair with every known class,
    memoised one unit permutation at a time and closed orbits by search."""

    def __init__(self, M):
        self.M = M
        self.reps = []
        self._class_cache = {}
        for a in range(M):
            for b in range(M):
                if gcd(a, b, M) != 1:
                    continue
                pair = coprime_lift(M, a, b)
                if (a, b) not in self._class_cache:
                    idx = None
                    for k, rep in enumerate(self.reps):
                        if cusps_equivalent(M, rep, pair):
                            idx = k
                            break
                    if idx is None:
                        idx = len(self.reps)
                        self.reps.append(pair)
                    self._class_cache[(a, b)] = idx
        self.n = len(self.reps)
        self.units = [t for t in range(1, M) if gcd(t, M) == 1]
        self._diamond_cache = {}
        self.zero_orbit = self._orbit(self.class_of_fraction(0, 1), self.units)
        self.infinity_orbit = self._orbit(self.class_of_fraction(1, 0), self.units)
        self.interior = sorted(set(range(self.n)) - self.zero_orbit)

    def class_of_pair(self, a, b):
        key = (a % self.M, b % self.M)
        idx = self._class_cache.get(key)
        if idx is not None:
            return idx
        pair = (a, b) if gcd(a, b) == 1 else coprime_lift(self.M, a, b)
        for k, rep in enumerate(self.reps):
            if cusps_equivalent(self.M, rep, pair):
                self._class_cache[key] = k
                return k
        raise AssertionError("cusp not found")

    def diamond(self, t):
        t %= self.M
        if t in self._diamond_cache:
            return self._diamond_cache[t]
        g, x, y = xgcd(t, self.M)
        assert g == 1
        perm = []
        for (a, b) in self.reps:
            perm.append(self.class_of_fraction(x * a - y * b, self.M * a + t * b))
        self._diamond_cache[t] = perm
        return perm

    def _orbit(self, idx, units):
        seen = {idx}
        stack = [idx]
        while stack:
            cur = stack.pop()
            for t in units:
                nxt = self.diamond(t)[cur]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def kernel_orbits(self, M_sub):
        kern = [t for t in self.units if (t - 1) % M_sub == 0]
        orbits = []
        seen = set()
        for idx in self.interior:
            if idx in seen:
                continue
            orb = self._orbit(idx, kern)
            orb &= set(self.interior)
            seen |= orb
            orbits.append(sorted(orb))
        orbits.sort(key=lambda o: o[0])
        return orbits


def old_p1_normalize(M, c, d):
    """Canonical representative of (c : d) under unit scaling mod M."""
    best = None
    for u in range(1, M):
        if gcd(u, M) != 1:
            continue
        cand = ((u * c) % M, (u * d) % M)
        if best is None or cand < best:
            best = cand
    return best


def old_p1_points(M):
    seen = set()
    out = []
    for c in range(M):
        for d in range(M):
            if gcd(gcd(c, d), M) != 1:
                continue
            pt = old_p1_normalize(M, c, d)
            if pt not in seen:
                seen.add(pt)
                out.append(pt)
    out.sort()
    return out


def test_keyed_level_tables_match_search():
    # the cusp representatives are printed by `modk2 present` and the
    # point order fixes the cocycle module's basis
    for M in range(4, 61):
        old, new = ScanCuspTable(M), CuspTable(M)
        assert new.reps == old.reps
        assert new.zero_orbit == old.zero_orbit
        assert new.infinity_orbit == old.infinity_orbit
        assert new.interior == old.interior
        for d in divisors(M)[:-1]:
            assert new.kernel_orbits(d) == old.kernel_orbits(d)
        points, index = p1_table(M)
        assert points == old_p1_points(M)
        pairs = [(a, b) for a in range(M) for b in range(M)
                 if gcd(a, b, M) == 1]
        assert len(index) == len(pairs)
        for a, b in pairs:
            assert new.class_of_pair(a, b) == old.class_of_pair(a, b)
            assert points[index[(a, b)]] == old_p1_normalize(M, a, b)


# ----- orbit tables walked by hand -----
#
# Sign classes of pairs came from normalize_pair, the Manin relations from
# rotation loops that remembered the orbits they had seen, paths from a
# class dict per path, units up to sign from the smaller lift, places from
# a seen-set Frobenius walk with the residue degree computed apart, and
# cusp widths from a search over h = 1..M.


def normalize_pair(M, c, d):
    """Canonical representative of +-(c, d) mod M."""
    c %= M
    d %= M
    alt = ((-c) % M, (-d) % M)
    return min((c, d), alt)


def enumerate_classes(M):
    out = []
    for c in range(M):
        for d in range(M):
            if gcd(c, d, M) != 1:
                continue
            if normalize_pair(M, c, d) == (c, d):
                out.append((c, d))
    return out


def old_path_classes(M, num, den):
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
        out.append(normalize_pair(M, q_cur, sign * q_prev))
        n, d = d, n - a * d
        if d == 0:
            break
        p_pp, q_pp = p_prev, q_prev
        p_prev, q_prev = p_cur, q_cur
        j += 1
    assert (p_cur, q_cur) == (num, den)
    return out


def decompose(M, start, end):
    """Symbol {start -> end} as a class/coefficient dict at level M."""
    out = {}
    for key in old_path_classes(M, *end):
        out[key] = out.get(key, 0) + 1
    for key in old_path_classes(M, *start):
        out[key] = out.get(key, 0) - 1
    return {k: v for k, v in out.items() if v}


def old_manin_tables(M):
    """(classes, index, reps, reduced_of, relation_rows) by the old loops."""
    classes = enumerate_classes(M)
    index = {pair: i for i, pair in enumerate(classes)}
    reduced_of = [None] * len(classes)
    reps = []
    two_rows = []
    for i, (c, d) in enumerate(classes):
        if reduced_of[i] is not None:
            continue
        r = len(reps)
        reps.append(i)
        reduced_of[i] = (r, 1)
        j = index[normalize_pair(M, d, -c)]
        if j == i:
            two_rows.append(r)
        else:
            reduced_of[j] = (r, -1)
    nred = len(reps)
    rows = []
    for r in two_rows:
        row = [0] * nred
        row[r] = 2
        rows.append(row)
    seen_orbits = set()
    for i, (c, d) in enumerate(classes):
        j = index[normalize_pair(M, d, -c - d)]
        cj, dj = classes[j]
        k = index[normalize_pair(M, dj, -cj - dj)]
        orbit = frozenset((i, j, k))
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        row = [0] * nred
        for m in (i, j, k):
            r, s = reduced_of[m]
            row[r] += s
        if any(row):
            rows.append(row)
    return classes, index, reps, reduced_of, rows


def unit_classes(M):
    """Units mod M up to sign, canonical representative the smaller lift."""
    return [u for u in range(1, M // 2 + 1) if gcd(u, M) == 1]


def unit_canon(M, u):
    u %= M
    return min(u, M - u)


class CanonTwistModule(CocycleModule):
    """The cocycle module that kept each twist as the smaller lift of +-u,
    walked each relator once at twist 1 and re-encoded that row at every
    unit twist (_gen_equal_rows)."""

    def _twist_of(self, y):
        return unit_canon(self.M, y[1][1])

    def col(self, g, k):
        return k * self.ng + self.units.index(unit_canon(self.M, g))

    def _walk_row(self, start, letters):
        row = {}
        i = start
        tw = 1
        table = {'s': SIGMA, 't': TAU}
        for x in letters:
            k = self.edge_gen[(i, x)]
            if k is not None:
                j = self.col(tw, k)
                row[j] = row.get(j, 0) + 1
                tw = unit_canon(self.M, tw * self._twist_of(self.gens[k]))
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

    def _build_rows(self):
        found = []
        for i in range(len(self.points)):
            for word in (['s', 's'], ['t', 't', 't']):
                row, end = self._walk_row(i, word)
                assert end == i
                found.extend(self._gen_equal_rows(row))
        for (a, b) in self.cusps.reps:
            found.append(self.element_row(self.stabilizer_matrix(a, b)[0]))
        unique = dict.fromkeys(tuple(sorted(r.items())) for r in found if r)
        self.rows = [dict(key) for key in unique]


def multiplicative_order(a, n):
    """Order of a modulo n; a must be a unit."""
    assert gcd(a, n) == 1
    a %= n
    k, x = 1, a
    while x != 1 % n:
        x = x * a % n
        k += 1
    return k


def old_frobenius_orbits(M, ell):
    Mp = away_part(M, [ell])
    seen = set()
    orbits = []
    for t in range(Mp):
        if gcd(t, Mp) == 1 and t not in seen:
            orb = []
            cur = t
            while cur not in seen:
                seen.add(cur)
                orb.append(cur)
                cur = cur * ell % Mp
            orbits.append(tuple(sorted(orb)))
    orbits.sort()
    return orbits, multiplicative_order(ell, Mp)


def searched_stabilizer_width(M, a, b):
    for h in range(1, M + 1):
        if (b * b * h) % M == 0 and (a * b * h) % M == 0:
            return h
    raise AssertionError("no parabolic width found")


def test_orbit_table_numbers_orbits_by_least_member():
    # 0 <-> 4 and 1 <-> 2 swapped, 3 fixed: by least member the orbit of
    # 4 comes first, by largest member it would come last
    swap = {0: 4, 4: 0, 1: 2, 2: 1, 3: 3}
    orbits, number = orbit_table(range(5), lambda x: [swap[x]])
    assert orbits == [[0, 4], [1, 2], [3]]
    assert number == {0: 0, 4: 0, 1: 1, 2: 1, 3: 2}
    # a generating set is enough: x -> 2x mod 7 on the units has orbits
    # {1, 2, 4} and {3, 5, 6}
    orbits, number = orbit_table(range(1, 7), lambda x: [2 * x % 7])
    assert orbits == [[1, 2, 4], [3, 5, 6]]
    assert [number[x] for x in range(1, 7)] == [0, 0, 1, 0, 1, 1]
    assert primitive_pairs(4) == [(a, b) for a in range(4) for b in range(4)
                                  if gcd(a, b, 4) == 1]


def test_power_squares_once_per_bit():
    # CycElt.__pow__ is traced, so its product count must stay that of the
    # loops power replaced: one product per set bit of n and one squaring
    # per bit, the last squaring included
    for n in range(70):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        assert power(3, n, mul, 1) == 3 ** n
        assert len(calls) == n.bit_length() + bin(n).count("1")


def test_place_moved_matches_root_search():
    # the orbit lookup against evaluating every factor at the moved root,
    # also over primes prime to the level, whose residue fields are larger
    for M in range(2, 61):
        for ell in (2, 3, 5, 7):
            Mp = away_part(M, [ell])
            if ell ** multiplicative_order(ell, Mp) > 10 ** 6:
                continue
            plist = places_over(M, ell)
            for w in plist:
                for t in range(1, M):
                    if gcd(t, M) == 1:
                        assert (place_moved(plist, w, t)
                                is old_place_moved(plist, w, t))


def test_manin_tables_match_hand_walks():
    # the reports and `modk2 present` print classes, reps and relation rows;
    # levels 2 and 3 have classes the order-2 and order-3 rotations fix
    for M in range(2, 61):
        classes, index, reps, reduced_of, rows = old_manin_tables(M)
        new_classes, new_index, new_reps, new_reduced_of, new_rows = (
            manin_relations(M))
        assert new_classes == classes
        assert [new_reps, new_reduced_of] == [reps, reduced_of]
        assert [dense_row(r, len(reps)) for r in new_rows] == rows
        pairs = primitive_pairs(M)
        assert len(new_index) == len(pairs)
        for a, b in pairs:
            assert new_index[(a, b)] == index[normalize_pair(M, a, b)]
        if M < 4:
            continue
        pres = get_presentation(M)
        for i in range(pres.n):
            start, end = pres.symbol_endpoints(i)
            old = [0] * pres.nred
            for key, c in decompose(M, start, end).items():
                r, s = reduced_of[index[key]]
                old[r] += s * c
            assert pres.decompose_to_reduced(start, end) == sparse_row(old)
    assert manin_relations(3)[4][-1] == {1: 3}


def test_cocycle_tables_match_hand_walks():
    for M in range(4, 61):
        cm = CocycleModule(M)
        assert cm.units == unit_classes(M)
        for u in cm.cusps.units:
            assert cm.units[cm.unit_index[u]] == unit_canon(M, u)
        assert cm.rows == CanonTwistModule(M).rows
        for a, b in cm.cusps.reps:
            assert cm.stabilizer_matrix(a, b)[1] == searched_stabilizer_width(
                M, a, b)


def test_places_match_frobenius_walk():
    # ell | M at every level, and ell not dividing M only up to level 16:
    # above it such an ell can need GF(2^58) (level 59)
    for M in range(4, 61):
        ells = set(factorize(M)) | ({2, 3, 5, 7} if M <= 16 else set())
        for ell in sorted(ells):
            orbits, f = old_frobenius_orbits(M, ell)
            places = places_over(M, ell)
            assert [w.orbit for w in places] == orbits
            assert all(w.f == f for w in places)


# ----- Manin-symbol maps before the one path-image routine -----
#
# Each map moved the endpoints of a symbol by a fraction map of its own
# and decomposed the moved path into a {class: coefficient} dict, which
# dict_to_reduced turned into reduced coordinates.  The oracles keep those
# maps and that conversion; they sum the dicts of a whole vector first, so
# one conversion serves all its terms.


def old_dict_to_reduced(pres, class_dict):
    vec = [0] * pres.nred
    for key, coeff in class_dict.items():
        r, s = pres.reduced_of[pres.index[key]]
        vec[r] += s * coeff
    return vec


def old_decompose_to_reduced(pres, start, end):
    return old_dict_to_reduced(pres, decompose(pres.M, start, end))


def old_symbol_images(pres, vec, maps):
    """Sum of vec[r] times rep r's path moved by each map."""
    acc = {}
    for r, v in enumerate(vec):
        if v:
            start, end = pres.symbol_endpoints(pres.reps[r])
            for f in maps:
                for key, c in decompose(pres.M, f(start), f(end)).items():
                    acc[key] = acc.get(key, 0) + v * c
    return old_dict_to_reduced(pres, acc)


def old_apply_u(pres, ell, vec):
    maps = [lambda fr, j=j: (fr[0] + j * fr[1], fr[1] * ell)
            for j in range(ell)]
    return old_symbol_images(pres, vec, maps)


def old_apply_diamond(pres, t, vec):
    M = pres.M
    out = [0] * pres.nred
    for r, v in enumerate(vec):
        if v:
            c, d = pres.classes[pres.reps[r]]
            r2, s2 = pres.reduced_of[pres.index[(t * c % M, t * d % M)]]
            out[r2] += s2 * v
    return out


def old_apply_t(pres, ell, vec):
    scaled = old_symbol_images(pres, vec, [lambda fr: (ell * fr[0], fr[1])])
    return add_scaled(old_apply_u(pres, ell, vec),
                      old_apply_diamond(pres, ell, scaled))


def old_apply_w(pres, vec):
    M = pres.M
    return old_symbol_images(pres, vec, [lambda fr: (-fr[1], M * fr[0])])


def old_manin_image_of_class(pres, i):
    (a, b), (c, d) = pres.lifts[i]
    M = pres.M
    return old_decompose_to_reduced(pres, (-d, M * b), (-c, M * a))


def old_degeneracy_rows(pres_high, pres_low, p):
    pi1 = []
    pi2 = []
    for r in range(pres_high.nred):
        start, end = pres_high.symbol_endpoints(pres_high.reps[r])
        pi1.append(old_decompose_to_reduced(pres_low, start, end))
        pi2.append(old_decompose_to_reduced(
            pres_low, (p * start[0], start[1]), (p * end[0], end[1])))
    return pi1, pi2


def test_operators_match_symbol_by_symbol_sums():
    # exact vectors, not classes: the reports print the operator images
    rng = random.Random(13)
    for M in range(4, 61):
        pres = get_presentation(M)
        mixed = [rng.randrange(-3, 4) for _ in range(pres.nred)]
        for vec in unit_vectors(pres.nred) + [mixed]:
            sv = sparse_row(vec)
            for ell in (2, 3, 5):
                assert (pres.apply_u(ell, sv)
                        == sparse_row(old_apply_u(pres, ell, vec)))
                if M % ell:
                    assert (pres.apply_t(ell, sv)
                            == sparse_row(old_apply_t(pres, ell, vec)))
            assert pres.apply_w(sv) == sparse_row(old_apply_w(pres, vec))


def test_manin_images_match_decomposed_fricke_paths():
    for M in range(4, 61):
        pres = get_presentation(M)
        for i in range(pres.n):
            assert (pres.manin_image_of_class(i)
                    == sparse_row(old_manin_image_of_class(pres, i)))
        rows = [old_manin_image_of_class(pres, i)
                for i in pres.interior_classes]
        assert ([dense_row(r, pres.nred) for r in pres._solver.B]
                == rows + old_manin_tables(M)[4])


def test_degeneracy_rows_match_decomposed_paths():
    for N in range(8, 61):
        for p in factorize(N):
            if N // p >= 4:
                high, low = get_presentation(N), get_presentation(N // p)
                assert degeneracy_rows(high, low, p) == tuple(
                    [sparse_row(r) for r in block]
                    for block in old_degeneracy_rows(high, low, p))


# ----- one vector format -----
#
# Homology vectors, operator and degeneracy images, solves, kernel vectors
# and free lifts were dense lists over all coordinates.  They are now
# {index: value} rows; each must be the dense result, sparsified.


def assert_sparse(row, n):
    """row is an {index: value} row over range(n) with no stored zeros."""
    assert isinstance(row, dict)
    assert all(isinstance(j, int) and 0 <= j < n and v for j, v in row.items())


def dense_transforms(snf):
    """(D, U, V, Vinv) of a SmithForm as dense lists, the format
    dense_solve reads."""
    m, n = len(snf.D), snf.n
    return ([dense_row(r, n) for r in snf.D], [dense_row(r, m) for r in snf.U],
            [dense_row(r, n) for r in snf.V], None)


def dense_boundary_free(pres, lifts):
    """boundary_free over dense lists: each dense free lift times the
    boundary e(a/c) - e(b/d) of the lift ((a, b), (c, d)) of every
    reduced generator."""
    bnd = []
    for r in range(pres.nred):
        (a, b), (c, d) = pres.lifts[pres.reps[r]]
        row = [0] * pres.cusps.n
        row[pres.cusps.class_of_fraction(a, c)] += 1
        row[pres.cusps.class_of_fraction(b, d)] -= 1
        bnd.append(row)
    return [vec_mat(lift, bnd) for lift in lifts]


def dense_homology_basis(pres, allowed):
    """homology_basis over dense lists: the dense Smith form's kernel of
    the boundary, its row basis, and that basis times the free lifts."""
    free = pres.quotient.free_rank
    cols = [j for j in range(pres.cusps.n) if j not in set(allowed)]
    if not cols:
        basis = identity_matrix(free)
    else:
        restricted = [[row.get(j, 0) for j in cols]
                      for row in pres.boundary_free]
        D, U, _, _ = dense_smith_normal_form(restricted)
        rank = sum(1 for i in range(min(len(D), len(cols))) if D[i][i])
        basis = old_lattice_row_basis(U[rank:])
    lifts = [dense_row(lift, pres.nred) for lift in pres.free_lifts]
    return [(b, vec_mat(b, lifts)) for b in basis]


def test_vectors_are_sparse_rows_equal_to_dense_oracles():
    rng = random.Random(21)
    for M in (11, 27, 37, 60):
        pres = get_presentation(M)
        n, free = pres.nred, pres.quotient.free_rank
        k = len(pres.interior_classes)
        # free lifts map to the unit vectors of the free part and are the
        # rows of Vinv placed at their columns
        q = pres.quotient
        assert len(pres.free_lifts) == len(q.free_lifts()) == free
        dense_lifts = []
        for i, lift in enumerate(q.free_lifts()):
            assert_sparse(lift, n)
            assert lift == pres.free_lifts[i]
            want = [0] * n
            for j, v in q._snf.Vinv[q.rank + i].items():
                want[q.cols[j]] = v
            assert dense_row(lift, n) == want
            dense_lifts.append(want)
            unit = [0] * free
            unit[i] = 1
            assert q.reduce(lift) == tuple([0] * q.rank + unit)
        # the matrices: relation rows, boundary_free and the preimage
        # solver's rows are lists of {index: value} rows, each the dense
        # oracle's
        old_rows = old_manin_tables(M)[4]
        solver_rows = [old_manin_image_of_class(pres, i)
                       for i in pres.interior_classes] + old_rows
        for rows, width, want in (
                (pres.relation_rows, n, old_rows),
                (pres.boundary_free, pres.cusps.n,
                 dense_boundary_free(pres, dense_lifts)),
                (pres._solver.B, n, solver_rows)):
            assert isinstance(rows, list) and rows
            for row in rows:
                assert_sparse(row, width)
            assert [dense_row(row, width) for row in rows] == want
        reds = []
        for allowed in ((), pres.cusps.zero_orbit, pres.cusps.infinity_orbit):
            basis = pres.homology_basis(allowed)
            want = dense_homology_basis(pres, allowed)
            assert len(basis) == len(want)
            for (fv, red), (dfv, dred) in zip(basis, want):
                assert_sparse(fv, free)
                assert_sparse(red, n)
                assert (dense_row(fv, free), dense_row(red, n)) == (dfv, dred)
            reds += [red for _, red in basis]
        # operators on a sample of the basis vectors
        for red in rng.sample(reds, min(len(reds), 12)):
            dred = dense_row(red, n)
            images = [(pres.apply_u(2, red), old_apply_u(pres, 2, dred)),
                      (pres.apply_w(red), old_apply_w(pres, dred)),
                      (pres.apply_diamond(5 if M % 5 else 7, red),
                       old_apply_diamond(pres, 5 if M % 5 else 7, dred))]
            ell = next(e for e in (2, 3, 5, 7) if M % e)
            images.append((pres.apply_t(ell, red), old_apply_t(pres, ell, dred)))
            for got, want in images:
                assert_sparse(got, n)
                assert dense_row(got, n) == want
        # the preimage solver: solutions and kernel vectors against a dense
        # solve through the same Smith transforms
        snf = pres._solver._snf
        dense_snf = dense_transforms(snf)
        rank = pres._solver.rank
        solved = 0
        for red in reds:
            coeffs = pres.express_in_manin_image(red)
            want = dense_solve(dense_snf, dense_row(red, n))
            if want is None:
                assert coeffs is None
                continue
            assert_sparse(coeffs, k)
            assert dense_row(coeffs, k) == want[:k]
            solved += 1
        assert solved
        kernel = pres._solver.kernel_basis()
        dense_kernel = dense_snf[1][rank:]
        assert [dense_row(row, pres._solver.m) for row in kernel] == dense_kernel
        for row in kernel:
            assert_sparse(row, pres._solver.m)
        kvs = pres.manin_kernel_vectors()
        for kv in kvs:
            assert_sparse(kv, k)
        assert [dense_row(kv, k) for kv in kvs] == [
            u[:k] for u in dense_kernel if any(u[:k])]
        # degeneracy maps down to every level M / p >= 4
        for p in sorted(factorize(M)):
            if M // p >= 4:
                low = get_presentation(M // p)
                rows = degeneracy_rows(pres, low, p)
                want = old_degeneracy_rows(pres, low, p)
                for block, dblock in zip(rows, want):
                    assert len(block) == n
                    for row, drow in zip(block, dblock):
                        assert_sparse(row, low.nred)
                        assert dense_row(row, low.nred) == drow


# ----- paid on every read: full U replays, per-call discrete logs, -----
# ----- torus symbols put and subtracted anew -----


def old_full_U(snf):
    """U from the whole row record of a Smith form, every operation
    replayed; the record is read, not dropped."""
    U = [{i: 1} for i in range(len(snf._order))]
    ops = snf._row_ops
    for x in range(0, len(ops), 3):
        i, k, q = ops[x:x + 3]
        add_row(U[i], U[k], -q)
    for k in snf._negated:
        U[k] = {i: -v for i, v in U[k].items()}
    return [U[i] for i in snf._order]


@pytest.mark.parametrize("which", ["quotient", "_solver"])
def test_u_rows_replayed_as_read_match_the_full_replay(which):
    # the Manin quotient and the stacked preimage solver at every level:
    # the first rank rows replayed alone, then the full U, equal the full
    # replay
    for M in range(4, LEVEL_BOUND + 1):
        pres = get_presentation(M)
        solver = getattr(pres, which)
        if "U" in vars(solver._snf):
            # a kernel was read here before, and the record is gone
            solver = RowSolver(solver.B, pres.nred)
        snf, rank = solver._snf, solver.rank
        want = old_full_U(snf)
        assert snf.U_head(rank) == want[:rank]
        assert solver.U_rows == want[:rank]
        assert "U" not in vars(snf)
        assert snf.U == want
        assert snf._row_ops is None
        assert snf.U_head(rank) == want[:rank]


def old_dlog(F, u):
    """GFq.dlog before the per-field tables: Pohlig-Hellman with the
    subgroup generators and a baby-step giant-step table built on every
    call."""
    def bsgs(target, g, order):
        m = isqrt(order - 1) + 1
        table = {}
        cur = F.one()
        for j in range(m):
            table.setdefault(cur, j)
            cur = F.mul(cur, g)
        hop = F.pow(g, -m)
        y = target
        for i in range(m + 1):
            if y in table:
                return i * m + table[y]
            y = F.mul(y, hop)
        raise CertificateError("dlog failed")

    n = F.q - 1
    if n == 1:
        return 0
    x, mod = 0, 1
    for r, e in F.qm1_factors.items():
        pe = r**e
        gg = F.pow(F.generator, n // pe)
        uu = F.pow(u, n // pe)
        gr = F.pow(gg, pe // r)
        d = 0
        for i in range(e):
            shifted = F.mul(uu, F.pow(gg, -d))
            d += bsgs(F.pow(shifted, pe // r ** (i + 1)), gr, r) * r**i
        x = (x + (d - x) * pow(mod, -1, pe) % pe * mod) % (mod * pe)
        mod *= pe
    return x


def residue_degrees(ell, levels):
    """The degrees f of the residue fields over ell at the given levels:
    the order of ell modulo the prime-to-ell part of the level."""
    out = set()
    for M in levels:
        Mp = away_part(M, (ell,))
        f, x = 1, ell % Mp
        while x != 1 % Mp:
            x, f = x * ell % Mp, f + 1
        out.add(f)
    return sorted(out)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_dlog_tables_match_per_call_pohlig_hellman(ell):
    # every residue field over ell at levels up to the bound with at most
    # 10^6 elements: every unit up to 10^3 elements, a sample above
    rng = random.Random(ell)
    for f in residue_degrees(ell, range(4, LEVEL_BOUND + 1)):
        if ell**f > 10**6:
            continue
        F = get_field(ell, f)
        units = (range(1, F.q) if F.q <= 10**3
                 else rng.sample(range(1, F.q), 8))
        for k in units:
            u = F.decode(k)
            assert F.dlog(u) == old_dlog(F, u), (ell, f, u)


OLD_ONE_MINUS_S = DivisorFn(Fraction(0), 0, {(Fraction(0), 1): 1})


def old_bracket_symbol(a, c):
    out = K1Elem()
    out.put(a, c, OLD_ONE_MINUS_S)
    return out


def test_torus_symbols_match_put_then_subtract():
    # lemma41's sampler with seed 0: its lower-divisible and SL_2 draws
    rng = random.Random(0)
    mats = [_random_lower_divisible(rng, 30) for _ in range(1000)]
    mats += [_random_sl2(rng) for _ in range(1000)]
    base = old_bracket_symbol(0, 1)
    for mat in mats:
        (a, b), (c, d) = mat
        for x, y in ((a, c), (b, d)):
            assert bracket_symbol(x, y) == old_bracket_symbol(x, y)
        got = cocycle_value(mat)
        want = old_bracket_symbol(b, d) - base
        assert got == want
        assert pushforward_vertical(5, got) == pushforward_vertical(5, want)
        # an integral constant or exponent shift is the int 0
        for fn in got.comp.values():
            for v in [fn.const] + [eta for eta, _ in fn.factors]:
                assert type(v) is int and v == 0 or v.denominator > 1



# ----- the F_ell product and division of places and the product loop of
# CycElt, which arith.poly_mul and arith.divmod_monic replaced -----


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, ell):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % ell
    return _fp_trim(out)


def _fp_mod(a, m, ell):
    a = [v % ell for v in a]
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, ell)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * lead_inv % ell
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % ell
    return _fp_trim(a)


def old_fp_gcd(a, b, ell):
    a = _fp_trim([v % ell for v in a])
    b = _fp_trim([v % ell for v in b])
    while b:
        a, b = b, _fp_mod(a, b, ell)
    if a:
        inv = pow(a[-1], -1, ell)
        a = [v * inv % ell for v in a]
    return a


def old_fp_powmod(a, n, m, ell):
    return power(_fp_mod(a, m, ell), n,
                 lambda x, y: _fp_mod(_fp_mul(x, y, ell), m, ell), [1])


def old_fp_irreducible(h, ell, f_primes):
    f = len(h) - 1
    y = [0, 1]
    powers = [y]
    t = y
    for _ in range(f):
        t = old_fp_powmod(t, ell, h, ell)
        powers.append(t)
    if _fp_trim(list(powers[f])) != _fp_mod(y, h, ell):
        return False
    for r in f_primes:
        g = old_fp_gcd(places._fp_sub(powers[f // r], y, ell), h, ell)
        if len(g) != 1:
            return False
    return True


def old_first_irreducible(ell, f):
    f_primes = list(factorize(f))
    for code in range(ell**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % ell)
            c //= ell
        h = coeffs + [1]
        if old_fp_irreducible(h, ell, f_primes):
            return h
    raise CertificateError("no irreducible found")


def old_cyc_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def built_places():
    """Every place over a prime of the level at levels 4..LEVEL_BOUND."""
    return [w for M in range(4, LEVEL_BOUND + 1)
            for ell in sorted(factorize(M)) for w in places_over(M, ell)]


def fp_poly(rng, ell, length):
    return [rng.randrange(-2 * ell, 2 * ell) for _ in range(length)]


def test_shared_product_and_division_match_fp_mul_and_fp_mod():
    # every field modulus and place factor built at levels 4..60, then
    # seeded random monic moduli; the shared routines work over Z and the
    # result is reduced mod ell afterwards
    rng = random.Random(27)
    built = built_places()
    moduli = {(w.ell, tuple(w.field.modulus)) for w in built}
    moduli |= {(w.ell, tuple(w.factor)) for w in built}
    assert len(moduli) == 132
    for ell in (2, 3, 5, 7, 13, 37):
        for _ in range(20):
            moduli.add((ell, tuple([rng.randrange(ell)
                                    for _ in range(rng.randint(0, 12))]
                                   + [1])))
    for ell, m in sorted(moduli):
        m = list(m)
        for _ in range(10):
            a = fp_poly(rng, ell, rng.randint(0, 2 * len(m)))
            b = fp_poly(rng, ell, rng.randint(0, 2 * len(m)))
            prod = poly_mul(a, b)
            assert _fp_trim([v % ell for v in prod]) == _fp_mul(a, b, ell)
            for c in (a, prod):
                q, r = divmod_monic(c, m)
                assert len(r) == len(m) - 1
                assert _fp_trim([v % ell for v in r]) == _fp_mod(c, m, ell)
                # over Z, c == q m + r
                back = [x + z for x, z in
                        zip_longest(poly_mul(q, m), r, fillvalue=0)]
                assert _fp_trim(back) == _fp_trim(list(c))
            if a and any(v % ell for v in a):
                a = _fp_trim([v % ell for v in a])
                assert places._fp_gcd(a, m, ell) == old_fp_gcd(a, m, ell)
            got = places._fp_powmod(a, ell, m, ell)
            assert _fp_trim(got) == old_fp_powmod(a, ell, m, ell)
    fields = {w.field for w in built}
    assert len(fields) == 42
    for fld in fields:
        for _ in range(50):
            u = fld.decode(rng.randrange(fld.q))
            v = fld.decode(rng.randrange(fld.q))
            red = _fp_mod(_fp_mul(list(u), list(v), fld.ell), fld.modulus,
                          fld.ell)
            assert fld.mul(u, v) == tuple(red + [0] * (fld.f - len(red)))


def test_first_irreducible_matches_the_fp_search():
    # every (ell, f) of a residue field built at levels 4..60
    degrees = sorted({(w.ell, w.f) for w in built_places()})
    assert (3, 18) in degrees and (2, 28) in degrees
    for ell, f in degrees:
        assert places._first_irreducible(ell, f) == old_first_irreducible(
            ell, f)


def test_cyclotomic_products_match_the_product_loop():
    # random elements at every level up to 60, int and Fraction
    # coefficients
    rng = random.Random(27)
    for M in range(1, LEVEL_BOUND + 1):
        n = len(cyclotomic_poly(M)) - 1
        for _ in range(10):
            x = CycElt(M, [rng.randint(-9, 9) for _ in range(n)])
            y = CycElt(M, [rng.choice([0, 0, 1, -1, rng.randint(-99, 99)])
                           for _ in range(n)])
            assert x * y == CycElt(M, old_cyc_mul(x.coeffs, y.coeffs))
        # inverse() makes Fraction coefficients
        z = CycElt(M, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(n)])
        assert z * x == CycElt(M, old_cyc_mul(z.coeffs, x.coeffs))
