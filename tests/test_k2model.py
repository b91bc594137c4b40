import random

import pytest

from formal_units import (
    component_orders_divide,
    pair_symbol,
    presented_is_zero,
    symbol_add,
    symbol_galois,
    symbol_of_units,
    symbol_res_to,
    symbol_scale,
    symbol_sub,
    tame_is_one,
    unit,
    unit_from_vector,
)
from fresh_process import run_python
from modk2.cyclo import CycElt, unit_relation_rows
from modk2.intlinalg import sparse_row, vec_rows
from modk2.k2model import (
    PreimageError,
    PresentedK2,
    get_presented,
    interior_symbol,
    km_trivial,
    norm_compare,
    tame_eval,
    k2_image,
    wedge_dim,
    wedge_index,
    wedge_of_vectors,
)
from modk2.modsym import get_presentation
from modk2.places import CertificateError


def test_wedge_indexing():
    for M in (4, 5, 9):
        seen = set()
        for i in range(M + 1):
            for j in range(i + 1, M + 1):
                seen.add(wedge_index(M, i, j))
        assert seen == set(range(wedge_dim(M)))


def test_wedge_canonical_form():
    # a symbol is the {column: coeff} row of the wedge square, column
    # wedge_index(M, i, j) for e_i ^ e_j with i < j; swapping the units
    # negates and zero coefficients are dropped
    a = pair_symbol(5, 1, 2)
    b = pair_symbol(5, 2, 1)
    assert a == {wedge_index(5, 2, 3): 1} and b == {wedge_index(5, 2, 3): -1}
    assert not symbol_add(a, b)
    assert not pair_symbol(5, 3, 3)
    assert not symbol_scale(a, 0)
    pres = get_presentation(5)
    for pos, i in enumerate(pres.interior_classes):
        c, d = pres.classes[i]
        assert interior_symbol(pres, {pos: 1}) == pair_symbol(5, c, d)
    # the exponents of -1 and zeta are kept as given, not reduced
    row = wedge_of_vectors(5, {0: 3, 1: 7, 2: 1}, {3: 1})
    assert row == {2: 3, 6: 7, 9: 1}
    assert row == {wedge_index(5, 0, 3): 3, wedge_index(5, 1, 3): 7,
                   wedge_index(5, 2, 3): 1}
    # a generator index outside 0..M, or a column outside the wedge square,
    # is refused, not wrapped
    for x in ({-1: 1}, {6: 1}):
        with pytest.raises(ValueError):
            wedge_of_vectors(5, x, {2: 1})
    pk = get_presented(5)
    for bad in ({-1: 1}, {wedge_dim(5): 1}, {0: 1, -15: 2}):
        with pytest.raises(ValueError):
            pk.reduce(bad)
        with pytest.raises(ValueError):
            tame_eval(5, bad)


def test_presented_regression_anchors():
    # computed once with this machinery and frozen as change detectors
    assert PresentedK2(5).quotient.invariants() == ([], 1)
    assert PresentedK2(8).quotient.invariants() == ([], 0)


def test_steinberg_check_rejects_false_identity(monkeypatch):
    pk = object.__new__(PresentedK2)
    pk.M = 5
    rows = []
    pk._add_steinberg_rows(rows)
    assert len(rows) == 16
    # a wrong zeta^2 breaks u_1 + zeta u_1 == u_2 and must stop the build
    real = CycElt.zeta.__func__
    monkeypatch.setattr(CycElt, "zeta", classmethod(
        lambda cls, M, a=1: real(cls, M, 3 if a == 2 else a)))
    with pytest.raises(CertificateError):
        pk._add_steinberg_rows([])


def test_steinberg_check_survives_optimize():
    # the Steinberg identities are certificates: python -O must not drop them
    code = ("from modk2.cyclo import CycElt\n"
            "from modk2.k2model import PresentedK2\n"
            "from modk2.places import CertificateError\n"
            "real = CycElt.zeta.__func__\n"
            "CycElt.zeta = classmethod(\n"
            "    lambda cls, M, a=1: real(cls, M, 3 if a == 2 else a))\n"
            "try:\n"
            "    PresentedK2(5)\n"
            "except CertificateError as err:\n"
            "    print('rejected:', err)\n")
    out = run_python(code)
    assert out.startswith("rejected: ")


def test_column_range_check_survives_optimize():
    # every column of a level-15 interior row lies past the wedge square of
    # level 5, and a negative column would wrap; python -O must not drop
    # the check that refuses both in the presented model and the tame
    # table, nor the one that refuses a generator index outside 0..M
    code = ("from modk2.k2model import get_presented, interior_symbol, "
            "tame_eval, wedge_of_vectors\n"
            "from modk2.modsym import get_presentation\n"
            "pres = get_presentation(15)\n"
            "row = interior_symbol(pres, dict.fromkeys(\n"
            "    range(len(pres.interior_classes)), 1))\n"
            "print('least column', min(row))\n"
            "for bad in (row, {-1: 1}):\n"
            "    for check in (get_presented(5).reduce,\n"
            "                  lambda r: tame_eval(5, r)):\n"
            "        try:\n"
            "            check(bad)\n"
            "        except ValueError as err:\n"
            "            print('rejected:', err)\n"
            "try:\n"
            "    wedge_of_vectors(5, {2: 1}, {6: 1})\n"
            "except ValueError as err:\n"
            "    print('rejected:', err)\n")
    out = run_python(code)
    lines = out.splitlines()
    assert int(lines[0].split()[-1]) >= wedge_dim(5)
    assert len(lines) == 6
    assert all(ln.startswith("rejected: column ") and "level 5" in ln
               for ln in lines[1:5])
    assert lines[3].startswith("rejected: column -1 ")
    assert lines[5] == "rejected: no wedge column e_2 ^ e_6 at level 5"


def test_steinberg_generator_reduces_to_zero():
    pk = get_presented(5)
    x = unit(5, e={1: 1, 2: -1})
    y = unit(5, zpow=1, e={1: 1, 2: -1})
    assert presented_is_zero(pk, wedge_of_vectors(5, x, y))


def test_conjugate_pair_symbol_equal():
    for M in (5, 7):
        pk = get_presented(M)
        pres = get_presentation(M)
        for i in pres.interior_classes:
            c, d = pres.classes[i]
            a = pair_symbol(M, c, d)
            b = pair_symbol(M, M - c, M - d)
            assert pk.reduce(a) == pk.reduce(b)


def test_interior_kernel_maps_to_zero():
    # acceptance core at two hand-checked levels
    for M in (5, 8):
        pk = get_presented(M)
        pres = get_presentation(M)
        kvs = pres.manin_kernel_vectors()
        assert kvs
        for kv in kvs:
            assert presented_is_zero(pk, interior_symbol(pres, kv))


def test_k2_image_definition_chain():
    M = 5
    pk = get_presented(M)
    pres = get_presentation(M)
    i = pres.index[(1, 2)]
    vec = pres.manin_image_of_class(i)
    assert pk.reduce(k2_image(pres, vec)) == pk.reduce(pair_symbol(M, 1, 2))


def test_k2_image_zero_and_preimage_independence():
    M = 7
    pk = get_presented(M)
    pres = get_presentation(M)
    assert k2_image(pres, {}) == {}
    rng = random.Random(20260817)
    rows = [pres.manin_image_of_class(i) for i in pres.interior_classes]
    kvs = pres.manin_kernel_vectors()
    for _ in range(5):
        coeffs = [rng.randrange(-2, 3) for _ in rows]
        vec = vec_rows(sparse_row(coeffs), rows)
        base = k2_image(pres, vec)
        kv = kvs[rng.randrange(len(kvs))]
        other = {}
        for c, i in zip(coeffs, pres.interior_classes):
            if c:
                cc, dd = pres.classes[i]
                other = symbol_add(other, symbol_scale(
                    pair_symbol(M, cc, dd), c))
        other = symbol_add(other, interior_symbol(pres, kv))
        assert pk.reduce(base) == pk.reduce(other)


def test_tame_oracle_level5():
    # components are discrete logs to the residue field's generator
    tv = tame_eval(5, pair_symbol(5, 1, 2), (5,))
    w = tv.places[5][0]
    assert w.field.pow(w.field.generator, tv.comp[(5, 0)]) == w.field.scalar(2)


def test_tame_lattice_rows_trivial():
    # {rel, e_j} is trivial; its row needs the {e_j, -1} term where rel
    # has e_j, which the wedge square drops (symbol_of_units)
    for M in (5, 6, 8):
        for rel in unit_relation_rows(M):
            for j in range(M + 1):
                sym = symbol_of_units(M, rel, {j: 1})
                assert tame_is_one(tame_eval(M, sym))


def test_tame_steinberg_rows_trivial():
    for M in (5, 7):
        for a in range(1, M):
            for b in range(1, M):
                s = (a + b) % M
                if s == 0:
                    continue
                x = unit(M, e={a: 1, s: -1})
                y = unit(M, zpow=a, e={b: 1, s: -1})
                sym = symbol_of_units(M, x, y)
                assert tame_is_one(tame_eval(M, sym))
        for a in range(1, M):
            sym = symbol_scale(wedge_of_vectors(M, {1: a}, {1 + a: 1}), a)
            assert tame_is_one(tame_eval(M, sym))


def test_tame_negation_rows_two_torsion():
    M = 5
    for g in range(1, M + 1):
        vec = [0] * (M + 1)
        vec[g] = 1
        neg = list(vec)
        neg[0] += 1
        sym = wedge_of_vectors(M, unit_from_vector(vec), unit_from_vector(neg))
        assert component_orders_divide(tame_eval(M, sym), 2)


def test_tame_conjugation_rows_die_symmetrized():
    M = 7
    rng = random.Random(11)
    for _ in range(10):
        x = unit(M, rng.randrange(2), rng.randrange(M),
                 {rng.randrange(1, M): rng.randrange(-2, 3)})
        y = unit(M, rng.randrange(2), rng.randrange(M),
                 {rng.randrange(1, M): rng.randrange(-2, 3)})
        sym = wedge_of_vectors(M, x, y)
        row = symbol_sub(sym, symbol_galois(M, sym, -1))
        assert tame_is_one(tame_eval(M, row).conj_symmetrized())


def test_galois_equivariance():
    for M, ts in ((5, (2, 3, 4)), (7, (2, 3, 6))):
        rng = random.Random(M)
        for t in ts:
            sym = {}
            for _ in range(3):
                c = rng.randrange(1, M)
                d = rng.randrange(1, M)
                sym = symbol_add(sym, symbol_scale(pair_symbol(M, c, d),
                                                  rng.randrange(-2, 3)))
            lhs = tame_eval(M, symbol_galois(M, sym, t))
            rhs = tame_eval(M, sym).galois(t)
            assert lhs.comp == rhs.comp


def test_km_trivial_controls():
    # a bare interior symbol at level 7 is NOT trivial in the odd quotient
    ok, cert = km_trivial(7, pair_symbol(7, 1, 2))
    assert not ok
    assert any(e["dlog"] % e["modulus"] for e in cert["places"])
    # while the conjugation-fixed combination is
    ok, _ = km_trivial(7, pair_symbol(7, 1, 6))
    assert ok


def test_norm_compare_trivial_and_degree():
    assert norm_compare(7, 2, {}, {})[0]
    # degree of the cyclotomic extension: 1 for (7,2), 2 for (7,3) and (4,2)
    s7 = pair_symbol(7, 1, 3)
    assert norm_compare(7, 2, symbol_res_to(7, s7, 14), s7)[0]
    assert not norm_compare(7, 2, symbol_res_to(7, s7, 14),
                            symbol_scale(s7, 2))[0]
    assert norm_compare(7, 3, symbol_res_to(7, s7, 21), symbol_scale(s7, 2))[0]
    assert not norm_compare(7, 3, symbol_res_to(7, s7, 21), s7)[0]
    s4 = pair_symbol(4, 1, 2)
    assert norm_compare(4, 2, symbol_res_to(4, s4, 8), symbol_scale(s4, 2))[0]


def test_norm_compare_certificate_shape():
    s7 = pair_symbol(7, 1, 3)
    ok, cert = norm_compare(7, 3, symbol_res_to(7, s7, 21),
                            symbol_scale(s7, 2))
    assert ok and cert["p"] == 3 and cert["level_high"] == 21
    assert all(e["dlog"] % e["modulus"] == 0 for e in cert["places"])
    assert "uncompared_over_p" in cert
    ok, cert = norm_compare(4, 2, symbol_res_to(4, pair_symbol(4, 1, 2), 8),
                            symbol_scale(pair_symbol(4, 1, 2), 2))
    assert ok and "uncompared_over_p" not in cert


def test_presented_reduce_matches_tame_on_equalities():
    # model equality implies tame equality, spot checked
    M = 7
    pk = get_presented(M)
    a = pair_symbol(M, 1, 2)
    b = pair_symbol(M, M - 1, M - 2)
    assert pk.reduce(a) == pk.reduce(b)
    diff = symbol_sub(a, b)
    assert tame_is_one(tame_eval(M, diff).conj_symmetrized())