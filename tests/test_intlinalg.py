import random
from fractions import Fraction

import pytest

from dense_vectors import identity_matrix, vec_mat
from modk2.intlinalg import (
    CertificateError,
    IntQuotient,
    RowSolver,
    dense_row,
    rank_mod_p,
    smith_normal_form,
    sparse_row,
    vec_rows,
    xgcd,
)
from modk2.modsym import get_presentation


def mat_mul(A, B):
    return [vec_mat(row, B) for row in A]


def det(A):
    # fraction Gaussian elimination, only for small test matrices
    n = len(A)
    M = [[Fraction(v) for v in row] for row in A]
    d = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if M[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            M[j], M[piv] = M[piv], M[j]
            d = -d
        d *= M[j][j]
        inv = 1 / M[j][j]
        M[j] = [v * inv for v in M[j]]
        for i in range(j + 1, n):
            if M[i][j]:
                c = M[i][j]
                M[i] = [v - c * w for v, w in zip(M[i], M[j])]
    return d


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert g == x * a + y * b
        if a or b:
            assert a % g == 0 and b % g == 0
    assert xgcd(0, 0)[0] == 0


def densify(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def check_snf(A):
    m, n = len(A), len(A[0]) if A else 0
    F = smith_normal_form(A)
    D, U, V, Vinv = F.D, F.U, F.V, F.Vinv
    for rows in (D, U, V, Vinv):
        assert all(isinstance(row, dict) and all(row.values()) for row in rows)
    D, U, V, Vinv = densify(D, n), densify(U, m), densify(V, n), densify(Vinv, n)
    assert mat_mul(mat_mul(U, A), V) == D
    assert mat_mul(V, Vinv) == identity_matrix(n)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i, row in enumerate(D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_snf_known():
    # worked example: invariant factors of [[2,4,4],[-6,6,12],[10,4,16]]
    diag = check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[6]]) == [6]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_random():
    rng = random.Random(2)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(A)
    # low rank and skinny shapes
    for _ in range(30):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        r = rng.randint(0, min(m, n))
        B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        A = [
            [sum(rng.randint(-2, 2) * B[k][j] for k in range(r)) for j in range(n)]
            for _ in range(m)
        ]
        check_snf(A)


def test_row_solver_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        B = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        solver = RowSolver([sparse_row(row) for row in B], n)
        x = [rng.randint(-8, 8) for _ in range(m)]
        target = vec_mat(x, B)
        got = solver.solve(sparse_row(target))
        assert got is not None
        assert vec_mat(dense_row(got, m), B) == target
        for k in solver.kernel_basis():
            assert vec_mat(dense_row(k, m), B) == [0] * n
        assert len(solver.kernel_basis()) == m - solver.rank


def test_row_solver_no_solution():
    solver = RowSolver([{0: 2}, {1: 3}], 2)
    assert solver.solve({0: 1}) is None
    assert solver.solve({0: 2, 1: 3}) == {0: 1, 1: 1}
    assert RowSolver([{0: 2, 1: 4}], 2).solve({0: 1, 1: 2}) is None
    # no rows: only the zero target is reached, and columns are checked
    assert RowSolver([], 2).solve({}) == {}
    assert RowSolver([], 2).solve({0: 1}) is None
    with pytest.raises(ValueError, match=r"column 2 outside range\(2\)"):
        solver.solve({0: 2, 1: 3, 2: 1})
    # saturation: kernel of [[1,1],[2,2]] is generated by (2,-1)... times unit
    ker = RowSolver([{0: 1, 1: 1}, {0: 2, 1: 2}], 2).kernel_basis()
    assert len(ker) == 1
    assert abs(ker[0][0]) == 2 and abs(ker[0][1]) == 1


def test_row_solver_checks_its_solution():
    # a solution read off a corrupted transform is refused, not returned
    B = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
    solver = RowSolver([sparse_row(row) for row in B], 3)
    target = sparse_row(vec_mat([1, -2, 3], B))
    assert solver.solve(target) == {0: 1, 1: -2, 2: 3}
    row = solver.U_rows[0]
    k = next(iter(row))
    row[k] += 1
    with pytest.raises(CertificateError, match="differs from the target"):
        solver.solve(target)


def test_quotient_canonical():
    # Z^2 / <2e1, 3e2> is cyclic of order 6
    q = IntQuotient([{0: 2}, {1: 3}], 2)
    assert q.invariants() == ([6], 0)
    assert q.element_order({0: 1}) == 2
    assert q.element_order({1: 1}) == 3
    assert q.element_order({0: 1, 1: 1}) == 6
    assert q.is_zero({0: 2, 1: 3})
    assert not q.is_zero({0: 1})
    assert q.is_zero_away_from({0: 1}, (2,))
    assert not q.is_zero_away_from({1: 1}, (2,))
    assert q.is_zero_away_from({0: 1, 1: 1}, (2, 3))


def test_quotient_free_part():
    q = IntQuotient([{2: 2}], 3)
    assert q.invariants() == ([2], 2)
    lifts = q.free_lifts()
    assert len(lifts) == 2
    seen = {q.reduce(v) for v in lifts}
    assert len(seen) == 2
    for v in lifts:
        assert q.element_order(v) is None
    assert q.element_order({2: 5}) == 2
    assert q.is_zero({2: -4})


def test_quotient_rejects_column_out_of_range():
    with pytest.raises(ValueError, match="relation row 1 has column 3 outside"):
        IntQuotient([{0: 1}, {1: 1, 3: 0}], 3)
    with pytest.raises(ValueError, match="relation row 0 has column -1 outside"):
        IntQuotient([{-1: 2}], 3)


def test_row_solver_and_rank_mod_p_reject_columns_out_of_range():
    # the rows are checked as IntQuotient checks them: a negative column is
    # an error naming the row, not a column counted from the end
    for bad in ([{0: 1}, {2: 1}], [{0: 1}, {-1: 1}]):
        with pytest.raises(ValueError,
                           match=r"relation row 1 has column -?\d outside "
                                 r"range\(2\)"):
            RowSolver(bad, 2)
        with pytest.raises(ValueError,
                           match=r"relation row 1 has column -?\d outside "
                                 r"range\(2\)"):
            rank_mod_p(bad, 2, 5)


def test_vectors_with_a_column_out_of_range_are_refused():
    # an entry past the last column, or a negative one, is an error, not
    # dropped or wrapped: a dropped one made such a vector the zero class
    pres = get_presentation(11)
    n = pres.nred
    assert n == 30
    for bad in ({n: 5}, {0: 1, -1: 2}, {n + 7: 1}):
        with pytest.raises(ValueError, match=r"outside range\(30\)"):
            pres.quotient.reduce(bad)
        with pytest.raises(ValueError, match=r"outside range\(30\)"):
            pres.quotient.is_zero(bad)
        with pytest.raises(ValueError, match=r"outside range\(30\)"):
            pres.express_in_manin_image(bad)
    q = IntQuotient([{0: 2}], 2)
    for bad in ({2: 1}, {-2: 1}):
        with pytest.raises(ValueError, match=r"column -?2 outside range\(2\)"):
            q.reduce(bad)


def test_operator_vectors_with_an_index_out_of_range_are_refused():
    # a negative index is not counted from the end of a list: apply_w({-1: 1})
    # was apply_w({29: 1}) at level 11
    pres = get_presentation(11)
    n = pres.nred
    calls = [lambda v: pres.apply_u(2, v), lambda v: pres.apply_u(11, v),
             lambda v: pres.apply_t(2, v), pres.apply_w,
             lambda v: pres.apply_diamond(2, v), pres.boundary_of_vec,
             lambda v: vec_rows(v, pres.boundary_red)]
    for bad in ({-1: 1}, {0: 1, -n: 2}, {n: 1}):
        for call in calls:
            with pytest.raises(ValueError, match=r"outside range\(30\)"):
                call(bad)
    with pytest.raises(ValueError, match=r"vector has column -1 outside "
                                         r"range\(2\)"):
        vec_rows({-1: 1}, [{0: 1}, {1: 1}])


def test_quotient_reduce_is_canonical():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rel = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        q = IntQuotient([sparse_row(r) for r in rel], n)
        x = [rng.randint(-9, 9) for _ in range(n)]
        shift = [0] * n
        for row in rel:
            c = rng.randint(-3, 3)
            shift = [s + c * v for s, v in zip(shift, row)]
        assert q.reduce(sparse_row(x)) == q.reduce(
            sparse_row([a + b for a, b in zip(x, shift)]))
        if any(shift):
            assert q.is_zero(sparse_row(shift))


def test_rank_mod_p():
    assert rank_mod_p([{0: 2, 1: 4}, {0: 1, 1: 2}], 2, 5) == 1
    assert rank_mod_p([{0: 2, 1: 4}, {0: 1, 1: 3}], 2, 2) == 1
    assert rank_mod_p([{0: 2, 1: 4}, {0: 1, 1: 3}], 2, 5) == 2
    assert rank_mod_p([{}], 1, 7) == 0
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D = smith_normal_form(A).D
        diag = [D[i].get(i, 0) for i in range(min(m, n))]
        for p in (2, 3, 7):
            assert (rank_mod_p([sparse_row(row) for row in A], n, p)
                    == sum(1 for d in diag if d % p))
