"""Differential tests of the consolidated helpers against the code they replaced.

The replaced formulas are kept here as oracles: the interior-symbol sum
that rebuilt the whole symbol on every term, the wedge-by-wedge addition
of SymbolicK2, and the dense U * rows product of the row-basis routine.
"""

from hypothesis import given, settings, strategies as st

from modk2.cyclo import CycNumFormal
from modk2.intlinalg import add_scaled, mat_mul, smith_normal_form, vec_mat
from modk2.k2model import SymbolicK2, interior_symbol, unit_pair_symbol
from modk2.modsym import get_presentation, lattice_row_basis

SETTINGS = settings(max_examples=40, deadline=None, database=None)

LEVELS = (4, 5, 7, 8, 9, 12)

entries = st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -5])


def old_add(a, b):
    out = SymbolicK2(a.M, a.terms)
    for (xv, yv), c in b.terms.items():
        out.add_wedge(CycNumFormal.from_vector(a.M, list(xv)),
                      CycNumFormal.from_vector(a.M, list(yv)), c)
    return out


def old_interior_symbol(pres, coeffs):
    out = SymbolicK2.zero(pres.M)
    for x, i in zip(coeffs, pres.interior_classes):
        if x:
            c, d = pres.classes[i]
            out = old_add(out, unit_pair_symbol(pres.M, c, d).scale(x))
    return out


def old_lattice_row_basis(rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    D, U, V, Vinv = smith_normal_form([list(r) for r in rows])
    n = len(rows[0])
    rank = sum(1 for i in range(min(len(rows), n)) if D[i][i] != 0)
    return [[sum(U[i][k] * rows[k][j] for k in range(len(rows)))
             for j in range(n)] for i in range(rank)]


def matrices(max_rows=8, max_cols=8):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=1, max_size=max_rows))


@st.composite
def level_and_coeffs(draw):
    pres = get_presentation(draw(st.sampled_from(LEVELS)))
    k = len(pres.interior_classes)
    return pres, draw(st.lists(entries, min_size=k, max_size=k))


@st.composite
def formal(draw, M):
    e = {a: draw(st.integers(-2, 2)) for a in
         draw(st.lists(st.integers(1, M - 1), max_size=3))}
    return CycNumFormal(M, draw(st.integers(0, 1)), draw(st.integers(0, M - 1)), e)


@st.composite
def symbol_pair(draw):
    M = draw(st.sampled_from(LEVELS))
    syms = []
    for _ in range(2):
        sym = SymbolicK2.zero(M)
        for _ in range(draw(st.integers(0, 6))):
            sym.add_wedge(draw(formal(M)), draw(formal(M)), draw(entries))
        syms.append(sym)
    return syms


@SETTINGS
@given(level_and_coeffs())
def test_interior_symbol_matches_term_by_term_sum(case):
    pres, coeffs = case
    new = interior_symbol(pres, coeffs)
    old = old_interior_symbol(pres, coeffs)
    assert list(new.terms.items()) == list(old.terms.items())


@SETTINGS
@given(symbol_pair())
def test_symbol_addition_matches_wedge_by_wedge(pair):
    a, b = pair
    before = dict(a.terms)
    assert list((a + b).terms.items()) == list(old_add(a, b).terms.items())
    assert list((a - b).terms.items()) == list(old_add(a, -b).terms.items())
    assert a.terms == before


@SETTINGS
@given(matrices())
def test_lattice_row_basis_matches_dense_product(rows):
    assert lattice_row_basis(rows) == old_lattice_row_basis(rows)


@SETTINGS
@given(matrices(), st.data())
def test_vector_products_match_dense_sums(B, data):
    x = data.draw(st.lists(entries, min_size=len(B), max_size=len(B)))
    n = len(B[0])
    dense = [sum(x[k] * B[k][j] for k in range(len(B))) for j in range(n)]
    assert vec_mat(x, B) == dense
    assert mat_mul([x, x], B) == [dense, dense]
    acc = list(B[0])
    assert add_scaled(acc, dense, -3) is acc
    assert acc == [b - 3 * d for b, d in zip(B[0], dense)]
