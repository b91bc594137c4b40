import math
import random
import re

import pytest

from modk2 import modsym
from modk2.arith import euler_phi
from modk2.harness import LEVEL_BOUND
from modk2.intlinalg import (
    CertificateError,
    IntQuotient,
    RowSolver,
    add_row,
    dense_row,
    sparse_row,
    vec_rows,
)
from modk2.modsym import (
    CuspTable,
    ManinPresentation,
    cusp_number,
    degeneracy_rows,
    degeneracy_surjective_mod_p,
    genus,
    get_presentation,
    index_mu,
    lift_to_sl2,
)
from test_oracles import enumerate_classes


GENUS_TABLE = {4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0, 11: 1, 12: 0,
               13: 2, 14: 1, 15: 1, 16: 2, 27: 13, 33: 21}

CUSP_TABLE = {4: 3, 5: 4, 6: 4, 7: 6, 8: 6, 9: 8, 10: 8, 11: 10, 12: 10}


def class_to_reduced(pres, i):
    """Reduced coordinates of the Manin symbol of class i."""
    r, s = pres.reduced_of[i]
    return {r: s}


def manin_rows(pres):
    return [pres.manin_image_of_class(i) for i in pres.interior_classes]


def reduce_vec(pres, vec):
    return pres.quotient.reduce(vec)


def test_class_enumeration():
    assert ManinPresentation(4).classes == [(0, 1), (1, 0), (1, 1), (1, 2),
                                            (1, 3), (2, 1)]
    # presentations start at level 4; level 3 is counted by the old walk
    assert len(enumerate_classes(3)) == index_mu(3)
    for M in range(4, 17):
        assert len(ManinPresentation(M).classes) == index_mu(M)
    classes5 = ManinPresentation(5).classes
    assert len(classes5) == 12
    interior = [(c, d) for (c, d) in classes5 if c % 5 and d % 5]
    assert len(interior) == 8
    assert (0, 1) not in interior


def test_lift_to_sl2():
    rng = random.Random(20260817)
    for _ in range(200):
        M = rng.randrange(4, 30)
        c = rng.randrange(M)
        d = rng.randrange(M)
        if math.gcd(c, d, M) != 1:
            continue
        (a, b), (cc, dd) = lift_to_sl2(M, c, d)
        assert a * dd - b * cc == 1
        assert cc % M == c and dd % M == d


def test_decompose_small_cases():
    pres5, pres7 = get_presentation(5), get_presentation(7)
    # the path from 0 to the infinite cusp is a single coset term
    out = pres5.decompose_to_reduced((0, 1), (1, 0))
    assert len(out) == 1
    # degenerate paths vanish
    assert pres7.decompose_to_reduced((2, 3), (2, 3)) == {}
    # reversal negates
    fwd = pres7.decompose_to_reduced((0, 1), (1, 2))
    bwd = pres7.decompose_to_reduced((1, 2), (0, 1))
    assert fwd == {r: -v for r, v in bwd.items()}


def test_decompose_path_at_5():
    pres = ManinPresentation(5)
    assert len(pres.decompose_to_reduced((0, 1), (1, 2))) <= 3
    bnd = pres.boundary_of_vec(pres.decompose_to_reduced((0, 1), (1, 2)))
    expect = [0] * pres.cusps.n
    expect[pres.cusps.class_of_fraction(1, 2)] += 1
    expect[pres.cusps.class_of_fraction(0, 1)] -= 1
    assert bnd == sparse_row(expect)


def test_decompose_is_section():
    for M in (5, 6, 7):
        pres = ManinPresentation(M)
        for i in range(pres.n):
            start, end = pres.symbol_endpoints(i)
            via_path = pres.decompose_to_reduced(start, end)
            direct = class_to_reduced(pres, i)
            assert reduce_vec(pres, via_path) == reduce_vec(pres, direct)


def test_relation_boundary_check_survives_optimize(monkeypatch):
    # every relation must have zero boundary, so a shifted boundary map has
    # to stop the build
    real = ManinPresentation._boundary_of_rep

    def shifted(self, r):
        bnd = real(self, r)
        bnd[0] = bnd.get(0, 0) + 1
        return bnd

    monkeypatch.setattr(ManinPresentation, "_boundary_of_rep", shifted)
    with pytest.raises(CertificateError, match="^level 11: relation row "
                       ".* has nonzero boundary$"):
        ManinPresentation(11)


def test_path_endpoint_check_survives_optimize(monkeypatch):
    # the last convergent of a path is its endpoint, so an endpoint left
    # unreduced has to raise
    monkeypatch.setattr(modsym, "reduce_fraction", lambda num, den: (num, den))
    with pytest.raises(CertificateError,
                       match="^the last convergent of 2/4 is 1/2$"):
        modsym.path_pairs(2, 4)


def test_genus_identity_checks_survive_optimize(monkeypatch):
    # the index, the cusp count and the genus decide verdicts (absolute
    # rank, cusp count, the cocycle module's expected rank); a broken
    # formula must raise, not floor silently
    faults = [
        ("cusp_number", lambda M: 1, 5,
         "level 5: 12g = 18 is no nonnegative multiple of 12"),
        ("euler_phi", lambda n: 1, 9,
         "level 9: twice the cusp number, 3, is odd"),
        ("factorize", lambda n: {}, 5, "level 5: mu = 25 is odd")]
    for name, fake, M, msg in faults:
        with monkeypatch.context() as patch:
            patch.setattr(modsym, name, fake)
            with pytest.raises(CertificateError, match="^%s$" % msg):
                genus(M)
    assert (genus(5), genus(9)) == (0, 0)


def test_argument_and_gcd_checks_survive_optimize(monkeypatch):
    # a bad argument is a ValueError and a failed gcd identity a
    # CertificateError
    pres = get_presentation(12)
    low = get_presentation(4)
    calls = [
        (lambda: ManinPresentation(3),
         "presentations start at level 4, not 3"),
        (lambda: pres.apply_t(3, {0: 1}), "T_3: 3 divides level 12"),
        (lambda: degeneracy_rows(pres, low, 2),
         "level 12 is not 2 times level 4"),
        (lambda: pres.cusps.kernel_orbits(5),
         "5 is no proper divisor of 12"),
        (lambda: pres.cusps.kernel_orbits(12),
         "12 is no proper divisor of 12"),
        (lambda: index_mu(2), "index_mu needs a level above 2, not 2"),
        (lambda: genus(3), "genus needs a level of at least 4, not 3")]
    for call, msg in calls:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            call()
    monkeypatch.setattr(modsym, "xgcd", lambda a, b: (2, 0, 0))
    with pytest.raises(CertificateError,
                       match=r"^level 5: gcd\(1, 2\) = 2$"):
        lift_to_sl2(5, 1, 2)


def test_presentation_invariants():
    # CocycleModule.surjects_onto_interior_homology reads the free
    # coordinates of reduce() only, so every level a check takes must
    # have no torsion
    for M in range(4, LEVEL_BOUND + 1):
        pres = get_presentation(M)
        torsion, free_rank = pres.quotient.invariants()
        assert torsion == []
        assert free_rank == 2 * genus(M) + cusp_number(M) - 1
        assert pres.cusps.n == cusp_number(M)


def test_genus_and_cusp_formulas():
    for M, g in GENUS_TABLE.items():
        assert genus(M) == g
    for M, nu in CUSP_TABLE.items():
        assert cusp_number(M) == nu


def test_cusp_orbits():
    for M in (4, 5, 6, 8, 9, 12):
        tab = CuspTable(M)
        for i, (a, b) in enumerate(tab.reps):
            assert (i in tab.zero_orbit) == (math.gcd(b, M) == 1)
            assert (i in tab.infinity_orbit) == (b % M == 0)
        assert len(tab.zero_orbit) == max(1, euler_phi(M) // 2)
        assert sorted(tab.interior) == sorted(set(range(tab.n)) - tab.zero_orbit)
        # the zero cusp is in the zero orbit, the infinite cusp is interior
        assert tab.class_of_fraction(0, 1) in tab.zero_orbit
        assert tab.class_of_fraction(1, 0) in tab.interior


def test_diamond_of_a_non_unit_is_refused():
    # a ValueError naming t and M, not an assert that python -O drops
    for t in (6, -3):
        with pytest.raises(ValueError, match="^%d is no unit mod 12$" % t):
            CuspTable(12).diamond(t)


def test_manin_diamond_of_a_non_unit_is_refused():
    # before: a bare KeyError from the class lookup of (t c, t d); the
    # degeneracy check reaches it through <p> when p divides the low level
    for call in (lambda: get_presentation(10).apply_diamond(5, {0: 1}),
                 lambda: degeneracy_surjective_mod_p(
                     get_presentation(50), get_presentation(10), 5)):
        with pytest.raises(ValueError, match="^5 is no unit mod 10$"):
            call()


def test_kernel_orbits_12_over_4():
    tab = CuspTable(12)
    orbits = tab.kernel_orbits(4)
    flat = [i for orb in orbits for i in orb]
    assert sorted(flat) == tab.interior
    assert all(len(orb) in (1, 2) for orb in orbits)
    inf_cls = tab.class_of_fraction(1, 0)
    inf_orbit = [orb for orb in orbits if inf_cls in orb]
    assert len(inf_orbit) == 1 and len(inf_orbit[0]) == 2


def test_diamond_action():
    pres = ManinPresentation(5)
    i = pres.index[(1, 0)]
    img = pres.apply_diamond(2, class_to_reduced(pres, i))
    assert img == class_to_reduced(pres, pres.index[(2, 0)])
    # diamonds compose to the identity when the units multiply to 1
    for r in range(pres.nred):
        e = {r: 1}
        assert pres.apply_diamond(3, pres.apply_diamond(2, e)) == e


def test_fricke_involution():
    for M in (5, 6, 8):
        pres = ManinPresentation(M)
        for r in range(pres.nred):
            e = {r: 1}
            twice = pres.apply_w(pres.apply_w(e))
            assert reduce_vec(pres, twice) == reduce_vec(pres, e)


def test_manin_image_is_fricke_of_manin():
    for M in (5, 7):
        pres = ManinPresentation(M)
        for i in range(pres.n):
            lhs = pres.manin_image_of_class(i)
            rhs = pres.apply_w(class_to_reduced(pres, i))
            assert reduce_vec(pres, lhs) == reduce_vec(pres, rhs)


def test_manin_image_lift_independent():
    M = 5
    pres = ManinPresentation(M)
    rng = random.Random(7)

    def manin_image_of_matrix(mat):
        (a, b), (c, d) = mat
        return pres.decompose_to_reduced((-d, M * b), (-c, M * a))

    gens = [((1, 0), (M, 1)), ((1, 1), (0, 1))]
    for i in range(pres.n):
        base = pres.lifts[i]
        g = ((1, 0), (0, 1))
        for _ in range(rng.randrange(1, 4)):
            h = rng.choice(gens)
            g = (
                (g[0][0] * h[0][0] + g[0][1] * h[1][0],
                 g[0][0] * h[0][1] + g[0][1] * h[1][1]),
                (g[1][0] * h[0][0] + g[1][1] * h[1][0],
                 g[1][0] * h[0][1] + g[1][1] * h[1][1]),
            )
        moved = (
            (g[0][0] * base[0][0] + g[0][1] * base[1][0],
             g[0][0] * base[0][1] + g[0][1] * base[1][1]),
            (g[1][0] * base[0][0] + g[1][1] * base[1][0],
             g[1][0] * base[0][1] + g[1][1] * base[1][1]),
        )
        assert reduce_vec(pres, manin_image_of_matrix(moved)) == \
            reduce_vec(pres, manin_image_of_matrix(base))


def test_u2_symbol_formula():
    pres = ManinPresentation(4)
    vec_start = pres.decompose_to_reduced((0, 1), (1, 0))
    half = pres.decompose_to_reduced((1, 2), (1, 0))
    total = {}
    for j in range(2):
        # x/y -> (x + j*y)/(2*y)
        pres.path_image(total, (j, 2), (1, 0))
    expect = [x + y for x, y in zip(dense_row(vec_start, pres.nred),
                                    dense_row(half, pres.nred))]
    assert total == sparse_row(expect)


def _apply_u_to_class(pres, i, ell):
    maps = [((1, j), (0, ell)) for j in range(ell)]
    return pres.add_symbol_images({}, i, maps)


def _apply_t_to_class(pres, i, ell):
    out = _apply_u_to_class(pres, i, ell)
    scaled = pres.add_symbol_images({}, i, [((ell, 0), (0, 1))])
    tw = pres.apply_diamond(ell, scaled)
    return add_row(out, tw, 1)


def test_operators_well_defined():
    pres = ManinPresentation(5)
    # relation vectors map to zero
    for row in pres.relation_rows:
        for op in (lambda v: pres.apply_u(5, v),
                   lambda v: pres.apply_t(2, v),
                   lambda v: pres.apply_diamond(2, v),
                   pres.apply_w):
            assert reduce_vec(pres, op(row)) == pres.quotient.reduce({})
    # image of a class does not depend on which orbit member carries the lift
    for i in range(pres.n):
        r, s = pres.reduced_of[i]
        rep = pres.reps[r]
        for fn in (lambda j: _apply_u_to_class(pres, j, 5),
                   lambda j: _apply_t_to_class(pres, j, 2)):
            via_class = fn(i)
            via_rep = {k: s * v for k, v in fn(rep).items()}
            assert reduce_vec(pres, via_class) == reduce_vec(pres, via_rep)


def test_hecke_commutativity():
    pres = ManinPresentation(5)
    for r in range(pres.nred):
        e = {r: 1}
        ab = pres.apply_t(2, pres.apply_t(3, e))
        ba = pres.apply_t(3, pres.apply_t(2, e))
        assert reduce_vec(pres, ab) == reduce_vec(pres, ba)
        td = pres.apply_t(2, pres.apply_diamond(2, e))
        dt = pres.apply_diamond(2, pres.apply_t(2, e))
        assert reduce_vec(pres, td) == reduce_vec(pres, dt)


def test_manin_image_surjective():
    for M in range(4, 10):
        pres = ManinPresentation(M)
        full = [pres.manin_image_of_class(i) for i in range(pres.n)]
        full.extend(pres.relation_rows)
        assert IntQuotient(full, pres.nred).invariants() == ([], 0)


def test_manin_image_interior_surjective_onto_interior_homology():
    # rows from interior classes land in homology relative to the interior
    # cusps and fill that whole sublattice
    for M in range(4, 10):
        pres = ManinPresentation(M)
        basis = pres.homology_basis(pres.cusps.interior)
        free_rank = pres.quotient.free_rank
        solver = RowSolver([fv for fv, _ in basis], free_rank)
        coords = []
        for row in manin_rows(pres):
            red = pres.quotient.reduce(row)
            cut = pres.quotient.rank
            assert not any(red[:cut])
            sol = solver.solve(sparse_row(red[cut:]))
            assert sol is not None
            coords.append(sol)
        assert IntQuotient(coords, len(basis)).invariants() == ([], 0)


def test_manin_image_boundary_interior():
    for M in (5, 6, 8):
        pres = ManinPresentation(M)
        for row in manin_rows(pres):
            bnd = pres.boundary_of_vec(row)
            for j in bnd:
                assert j in pres.cusps.interior


def test_express_in_xi_roundtrip():
    pres = ManinPresentation(6)
    rng = random.Random(11)
    rows = manin_rows(pres)
    k = len(rows)
    for _ in range(10):
        x = sparse_row([rng.randrange(-3, 4) for _ in range(k)])
        vec = vec_rows(x, rows)
        sol = pres.express_in_manin_image(vec)
        assert sol is not None
        back = vec_rows(sol, rows)
        assert reduce_vec(pres, back) == reduce_vec(pres, vec)
    for kv in pres.manin_kernel_vectors():
        img = vec_rows(kv, rows)
        assert reduce_vec(pres, img) == pres.quotient.reduce({})


def test_homology_bases():
    pres = ManinPresentation(11)
    assert pres.absolute_rank() == 2 * genus(11)
    absolute = pres.homology_basis(())
    assert len(absolute) == 2
    for free_vec, red_vec in absolute:
        assert pres.boundary_of_vec(red_vec) == {}
    inf_orbit = pres.cusps.infinity_orbit
    rel = pres.homology_basis(inf_orbit)
    assert len(rel) == 2 * genus(11) + len(inf_orbit) - 1
    for free_vec, red_vec in rel:
        bnd = pres.boundary_of_vec(red_vec)
        for j in bnd:
            assert j in inf_orbit
    full = pres.homology_basis(range(pres.cusps.n))
    assert len(full) == pres.quotient.free_rank
    pres5 = ManinPresentation(5)
    assert pres5.absolute_rank() == 0
    assert len(pres5.homology_basis(range(pres5.cusps.n))) == 3


def test_degeneracy_maps():
    high = ManinPresentation(12)
    low = ManinPresentation(4)
    pi1, pi2 = degeneracy_rows(high, low, 3)
    # scaling endpoints by p fixes the geodesic from 0 to the infinite cusp
    v1 = low.decompose_to_reduced((0, 1), (1, 0))
    v2 = low.decompose_to_reduced((3 * 0, 1), (3 * 1, 0))
    assert v1 == v2
    # relations at the high level die in the low-level quotient
    zero = low.quotient.reduce({})
    for row in high.relation_rows:
        img1 = vec_rows(row, pi1)
        img2 = vec_rows(row, pi2)
        assert low.quotient.reduce(img1) == zero
        assert low.quotient.reduce(img2) == zero
    # boundary compatibility for the endpoint-preserving map
    for r in range(high.nred):
        bnd_high = high.boundary_red[r]
        pushed = [0] * low.cusps.n
        for j, v in bnd_high.items():
            a, b = high.cusps.reps[j]
            pushed[low.cusps.class_of_pair(a, b)] += v
        assert low.boundary_of_vec(pi1[r]) == sparse_row(pushed)