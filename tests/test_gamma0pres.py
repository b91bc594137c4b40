import math
import random

from fresh_process import run_python
from modk2.arith import euler_phi, factorize
from modk2.gamma0pres import (
    CocycleModule,
    SIGMA,
    TAU,
    mat22_mul,
    p1_table,
    psl_word,
)
from modk2.intlinalg import add_row, xgcd
from modk2.modsym import ManinPresentation

TMAT = ((1, 1), (0, 1))


def psi_index(M):
    out = M
    for p in factorize(M):
        out = out * (p + 1) // p
    return out


def random_gamma0(rng, M):
    while True:
        c = M * rng.randrange(0, 4)
        d = rng.randrange(-8, 9)
        if math.gcd(c, d) == 1:
            break
    # complete the bottom row to a determinant-one matrix
    g, x, y = xgcd(d, c)
    assert g == 1
    return ((x, -y), (c, d))


def test_psl_word_reconstructs():
    rng = random.Random(3)
    mats = [SIGMA, TAU, TMAT, ((1, 0), (0, 1)), ((1, -5), (0, 1))]
    for _ in range(30):
        m = ((1, 0), (0, 1))
        for _ in range(rng.randrange(1, 8)):
            m = mat22_mul(m, rng.choice((SIGMA, TAU, TMAT)))
        mats.append(m)
    table = {'s': SIGMA, 't': TAU}
    for m in mats:
        prod = ((1, 0), (0, 1))
        for x in psl_word(m):
            prod = mat22_mul(prod, table[x])
        assert prod == m or prod == ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))


def test_projective_line_counts():
    for M in (4, 5, 6, 7, 8, 9, 12):
        assert len(p1_table(M)[0]) == psi_index(M)


def test_unit_class_counts():
    for M in (4, 5, 7, 9, 11, 12):
        assert len(CocycleModule(M).units) == max(1, euler_phi(M) // 2)


def test_stabilizer_matrices():
    cm = CocycleModule(7)
    t_mat, w = cm.stabilizer_matrix(1, 0)
    assert t_mat == TMAT and w == 1
    low, w0 = cm.stabilizer_matrix(0, 1)
    assert low == ((1, 0), (-7, 1)) and w0 == 7
    for (a, b) in cm.cusps.reps:
        mat, w = cm.stabilizer_matrix(a, b)
        assert mat[1][0] % 7 == 0
        assert mat[0][0] % 7 in (1, 7 - 1) and mat[1][1] % 7 in (1, 7 - 1)


def test_module_rank():
    assert CocycleModule(5).quotient.invariants() == ([], 1)
    assert CocycleModule(11).quotient.invariants() == ([], 6)
    for M in range(5, 14):
        assert CocycleModule(M).rank_matches()


def test_stabilizer_values_vanish():
    cm = CocycleModule(6)
    zero = cm.quotient.reduce({})
    for mat in (((1, 0), (6, 1)), ((1, 1), (0, 1)), ((1, 0), (-12, 1))):
        assert cm.quotient.reduce(cm.element_row(mat)) == zero
    # a conjugated parabolic also dies: it stabilizes a moved cusp
    g = ((1, 0), (6, 1))
    par = ((1, 1), (0, 1))
    ginv = ((1, 0), (-6, 1))
    conj = mat22_mul(mat22_mul(g, par), ginv)
    assert cm.quotient.reduce(cm.element_row(conj)) == zero


def twist_row(cm, g, row):
    out = {}
    for idx, v in row.items():
        k, ui = divmod(idx, cm.ng)
        t = (g * cm.units[ui]) % cm.M
        add_row(out, {cm.col(t, k): v}, 1)
    return out


def test_cocycle_identity_on_rows():
    rng = random.Random(20260817)
    for M in (5, 8):
        cm = CocycleModule(M)
        for _ in range(25):
            g1 = random_gamma0(rng, M)
            g2 = random_gamma0(rng, M)
            prod = mat22_mul(g1, g2)
            lhs = cm.element_row(prod)
            rhs = add_row(dict(cm.element_row(g1)),
                          twist_row(cm, g1[1][1], cm.element_row(g2)), 1)
            assert cm.quotient.reduce(lhs) == cm.quotient.reduce(rhs)


def test_map_to_homology():
    for M in (5, 7, 11):
        cm = CocycleModule(M)
        assert cm.map_kills_relations()
        assert cm.surjects_onto_interior_homology()

def test_homology_images_computed_once(monkeypatch):
    # one path decomposition per Schreier generator, moved by every <g>,
    # and every table entry set once, however often the table is read
    cm = CocycleModule(12)
    paths, moves = [], []
    real_path = ManinPresentation.decompose_to_reduced
    real_move = ManinPresentation.apply_diamond

    def path(self, start, end):
        paths.append(end)
        return real_path(self, start, end)

    def move(self, g, vec):
        moves.append(g)
        return real_move(self, g, vec)

    monkeypatch.setattr(ManinPresentation, "decompose_to_reduced", path)
    monkeypatch.setattr(ManinPresentation, "apply_diamond", move)
    table = cm.homology_images
    assert cm.map_kills_relations()
    assert cm.surjects_onto_interior_homology()
    assert paths == [(b, d) for (a, b), (c, d) in cm.gens]
    assert sorted(moves) == sorted(cm.units * len(cm.gens))
    assert None not in table and cm.homology_images is table


def test_certificates_survive_optimize():
    # word products, coset coverage, generator membership and closed walks
    # are certificates: under python -O a tampered generator table or
    # walk must still stop CocycleModule with CertificateError
    # without the checks a tampered build can run away, so the child gets
    # a 1 GB address-space cap and a time limit
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from modk2 import gamma0pres as g\n"
            "from modk2.intlinalg import CertificateError\n"
            "real = dict(vars(g))\n"
            "cls = g.CocycleModule\n"
            "tampers = [\n"
            "    ('TAU', ((0, -1), (1, 1))),\n"
            "    ('SIGMA', ((1, 1), (0, 1))),\n"
            "    ('mat22_inv', lambda m: g.IDENT),\n"
            "    ('psl_word', lambda m: ['t']),\n"
            "]\n"
            "for name, fake in tampers:\n"
            "    setattr(g, name, fake)\n"
            "    try:\n"
            "        cls(11)\n"
            "        print(name, 'accepted')\n"
            "    except CertificateError as err:\n"
            "        print(name, 'rejected:', err)\n"
            "    setattr(g, name, real[name])\n"
            "act = cls._act\n"
            "cls._act = lambda self, pt, m: pt\n"
            "try:\n"
            "    cls(11)\n"
            "    print('_act accepted')\n"
            "except CertificateError as err:\n"
            "    print('_act rejected:', err)\n"
            "cls._act = act\n"
            "print(cls(11).rank_matches())\n")
    out = run_python(code, timeout=120)
    lines = out.splitlines()
    assert [ln.split(" ", 2)[:2] for ln in lines[:-1]] == [
        [name, "rejected:"]
        for name in ("TAU", "SIGMA", "mat22_inv", "psl_word", "_act")]
    assert lines[-1] == "True"
