import math
import os
import random
import subprocess
import sys

import pytest

from modk2.arith import euler_phi
from modk2.intlinalg import IntQuotient
from modk2.modsym import (
    CuspTable,
    ManinPresentation,
    cusp_number,
    degeneracy_rows,
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
    vec = [0] * pres.nred
    r, s = pres.reduced_of[i]
    vec[r] += s
    return vec


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


def support(vec):
    return [j for j, v in enumerate(vec) if v]


def test_decompose_small_cases():
    pres5, pres7 = get_presentation(5), get_presentation(7)
    # the path from 0 to the infinite cusp is a single coset term
    out = pres5.decompose_to_reduced((0, 1), (1, 0))
    assert len(support(out)) == 1
    # degenerate paths vanish
    assert not any(pres7.decompose_to_reduced((2, 3), (2, 3)))
    # reversal negates
    fwd = pres7.decompose_to_reduced((0, 1), (1, 2))
    bwd = pres7.decompose_to_reduced((1, 2), (0, 1))
    assert fwd == [-v for v in bwd]


def test_decompose_path_at_5():
    pres = ManinPresentation(5)
    assert len(support(pres.decompose_to_reduced((0, 1), (1, 2)))) <= 3
    bnd = pres.boundary_of_vec(pres.decompose_to_reduced((0, 1), (1, 2)))
    expect = [0] * pres.cusps.n
    expect[pres.cusps.class_of_fraction(1, 2)] += 1
    expect[pres.cusps.class_of_fraction(0, 1)] -= 1
    assert bnd == expect


def test_decompose_is_section():
    for M in (5, 6, 7):
        pres = ManinPresentation(M)
        for i in range(pres.n):
            start, end = pres.symbol_endpoints(i)
            via_path = pres.decompose_to_reduced(start, end)
            direct = class_to_reduced(pres, i)
            assert reduce_vec(pres, via_path) == reduce_vec(pres, direct)


def test_relation_boundary_check_survives_optimize():
    # every relation must have zero boundary; python -O must not drop the
    # check, so a shifted boundary map has to stop the build
    code = ("from modk2.intlinalg import CertificateError\n"
            "from modk2.modsym import ManinPresentation\n"
            "real = ManinPresentation._boundary_of_rep\n"
            "def shifted(self, r):\n"
            "    bnd = real(self, r)\n"
            "    bnd[0] += 1\n"
            "    return bnd\n"
            "ManinPresentation._boundary_of_rep = shifted\n"
            "try:\n"
            "    ManinPresentation(11)\n"
            "except CertificateError as err:\n"
            "    print('rejected:', err)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("rejected: level 11: relation row ")
    assert out.rstrip().endswith("has nonzero boundary")


def test_presentation_invariants():
    for M in range(4, 15):
        pres = ManinPresentation(M)
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
    with pytest.raises(ValueError, match="6 is no unit mod 12"):
        CuspTable(12).diamond(6)
    code = ("from modk2.modsym import CuspTable\n"
            "try:\n"
            "    CuspTable(12).diamond(-3)\n"
            "except ValueError as err:\n"
            "    print('rejected:', err)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "rejected: -3 is no unit mod 12\n"


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
        e = [0] * pres.nred
        e[r] = 1
        assert pres.apply_diamond(3, pres.apply_diamond(2, e)) == e


def test_fricke_involution():
    for M in (5, 6, 8):
        pres = ManinPresentation(M)
        for r in range(pres.nred):
            e = [0] * pres.nred
            e[r] = 1
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
    total = [0] * pres.nred
    for j in range(2):
        # x/y -> (x + j*y)/(2*y)
        pres.path_image(total, (j, 2), (1, 0))
    expect = [x + y for x, y in zip(vec_start, half)]
    assert total == expect


def _apply_u_to_class(pres, i, ell):
    maps = [((1, j), (0, ell)) for j in range(ell)]
    return pres.add_symbol_images([0] * pres.nred, i, maps)


def _apply_t_to_class(pres, i, ell):
    out = _apply_u_to_class(pres, i, ell)
    scaled = pres.add_symbol_images([0] * pres.nred, i, [((ell, 0), (0, 1))])
    tw = pres.apply_diamond(ell, scaled)
    return [a + b for a, b in zip(out, tw)]


def test_operators_well_defined():
    pres = ManinPresentation(5)
    # relation vectors map to zero
    for row in pres.relation_rows:
        for op in (lambda v: pres.apply_u(5, v),
                   lambda v: pres.apply_t(2, v),
                   lambda v: pres.apply_diamond(2, v),
                   pres.apply_w):
            assert reduce_vec(pres, op(row)) == pres.quotient.reduce([0] * pres.nred)
    # image of a class does not depend on which orbit member carries the lift
    for i in range(pres.n):
        r, s = pres.reduced_of[i]
        rep = pres.reps[r]
        for fn in (lambda j: _apply_u_to_class(pres, j, 5),
                   lambda j: _apply_t_to_class(pres, j, 2)):
            via_class = fn(i)
            via_rep = [s * v for v in fn(rep)]
            assert reduce_vec(pres, via_class) == reduce_vec(pres, via_rep)


def test_hecke_commutativity():
    pres = ManinPresentation(5)
    for r in range(pres.nred):
        e = [0] * pres.nred
        e[r] = 1
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
        full = [{j: v for j, v in enumerate(r) if v} for r in full]
        assert IntQuotient(full, pres.nred).invariants() == ([], 0)


def test_manin_image_interior_surjective_onto_interior_homology():
    # rows from interior classes land in homology relative to the interior
    # cusps and fill that whole sublattice
    from modk2.intlinalg import RowSolver

    for M in range(4, 10):
        pres = ManinPresentation(M)
        basis = pres.homology_basis(pres.cusps.interior)
        solver = RowSolver([fv for fv, _ in basis])
        coords = []
        for row in manin_rows(pres):
            red = pres.quotient.reduce(row)
            cut = pres.quotient.rank
            assert not any(red[:cut])
            sol = solver.solve(list(red[cut:]))
            assert sol is not None
            coords.append({j: v for j, v in enumerate(sol) if v})
        assert IntQuotient(coords, len(basis)).invariants() == ([], 0)


def test_manin_image_boundary_interior():
    for M in (5, 6, 8):
        pres = ManinPresentation(M)
        for row in manin_rows(pres):
            bnd = pres.boundary_of_vec(row)
            for j, v in enumerate(bnd):
                if v:
                    assert j in pres.cusps.interior


def test_express_in_xi_roundtrip():
    pres = ManinPresentation(6)
    rng = random.Random(11)
    rows = manin_rows(pres)
    k = len(rows)
    for _ in range(10):
        x = [rng.randrange(-3, 4) for _ in range(k)]
        vec = [0] * pres.nred
        for coeff, row in zip(x, rows):
            vec = [a + coeff * b for a, b in zip(vec, row)]
        sol = pres.express_in_manin_image(vec)
        assert sol is not None
        back = [0] * pres.nred
        for coeff, row in zip(sol, rows):
            back = [a + coeff * b for a, b in zip(back, row)]
        assert reduce_vec(pres, back) == reduce_vec(pres, vec)
    for kv in pres.manin_kernel_vectors():
        img = [0] * pres.nred
        for coeff, row in zip(kv, rows):
            img = [a + coeff * b for a, b in zip(img, row)]
        assert reduce_vec(pres, img) == pres.quotient.reduce([0] * pres.nred)


def test_homology_bases():
    pres = ManinPresentation(11)
    assert pres.absolute_rank() == 2 * genus(11)
    absolute = pres.homology_basis(())
    assert len(absolute) == 2
    for free_vec, red_vec in absolute:
        assert not any(pres.boundary_of_vec(red_vec))
    inf_orbit = pres.cusps.infinity_orbit
    rel = pres.homology_basis(inf_orbit)
    assert len(rel) == 2 * genus(11) + len(inf_orbit) - 1
    for free_vec, red_vec in rel:
        bnd = pres.boundary_of_vec(red_vec)
        for j, v in enumerate(bnd):
            if v:
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
    zero = low.quotient.reduce([0] * low.nred)
    for row in high.relation_rows:
        img1 = [0] * low.nred
        img2 = [0] * low.nred
        for r, c in enumerate(row):
            if c:
                img1 = [a + c * b for a, b in zip(img1, pi1[r])]
                img2 = [a + c * b for a, b in zip(img2, pi2[r])]
        assert low.quotient.reduce(img1) == zero
        assert low.quotient.reduce(img2) == zero
    # boundary compatibility for the endpoint-preserving map
    for r in range(high.nred):
        bnd_high = high.boundary_red[r]
        pushed = [0] * low.cusps.n
        for j, v in enumerate(bnd_high):
            if v:
                a, b = high.cusps.reps[j]
                pushed[low.cusps.class_of_pair(a, b)] += v
        assert low.boundary_of_vec(pi1[r]) == pushed