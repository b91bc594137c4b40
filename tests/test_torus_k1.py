import math
import random
from fractions import Fraction

from fresh_process import run_python
from modk2.intlinalg import xgcd
from modk2.torus_k1 import (
    DivisorFn,
    K1Elem,
    ONE_MINUS_S,
    bracket_symbol,
    cocycle_value,
    degeneracy_conjugate,
    prim_canon,
    pullback,
    pushforward_cocycle_compat,
    pushforward_vertical,
)

S_MAT = ((0, -1), (1, 0))
T_MAT = ((1, 1), (0, 1))
IDENT = ((1, 0), (0, 1))


def bracket_from_completion(mat):
    # completion matrix with target vector as first column
    assert mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 1
    return pullback(mat, bracket_symbol(1, 0))


def covering_pullback(p, x):
    # section-side pullback; only defined away from indices with p | a
    out = K1Elem()
    for (a, c), fn in x.comp.items():
        assert a % p != 0
        fac = {(eta, p * k): e for (eta, k), e in fn.factors.items()}
        out.put(a, p * c, DivisorFn(fn.const, p * fn.m, fac))
    return out


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def random_sl2(rng, steps=6):
    m = IDENT
    for _ in range(steps):
        if rng.randrange(2):
            m = mat_mul(m, S_MAT)
        else:
            k = rng.randrange(-3, 4)
            m = mat_mul(m, ((1, k), (0, 1)))
    return m


def random_lower_divisible(rng, n):
    while True:
        k = rng.randrange(-4, 5)
        d = rng.randrange(-9, 10)
        if math.gcd(n * k, d) == 1:
            g, x, y = xgcd(d, n * k)
            return ((x, -y), (n * k, d))


def random_k1(rng):
    out = K1Elem()
    for _ in range(rng.randrange(1, 4)):
        a = rng.randrange(-5, 6)
        c = rng.randrange(-5, 6)
        if a == 0 and c == 0:
            a = 1
        g = math.gcd(a, c)
        a, c = a // g, c // g
        fn = DivisorFn(Fraction(rng.randrange(4), 4), rng.randrange(-2, 3),
                       {(Fraction(rng.randrange(3), 3), rng.randrange(1, 4)):
                        rng.randrange(-2, 3)})
        out.put(a, c, fn)
    return out


def test_prim_canon():
    assert prim_canon(0, -1) == ((0, 1), True)
    assert prim_canon(-2, 3) == ((2, -3), True)
    assert prim_canon(2, -3) == ((2, -3), False)


def test_flip_is_involution():
    rng = random.Random(5)
    for _ in range(20):
        fn = DivisorFn(Fraction(rng.randrange(6), 6), rng.randrange(-3, 4),
                       {(Fraction(rng.randrange(5), 5), rng.randrange(1, 4)):
                        rng.randrange(-2, 3)})
        assert fn.flip_reparam().flip_reparam() == fn


def test_bracket_storage():
    b = bracket_symbol(0, 1)
    assert b.comp == {(0, 1): ONE_MINUS_S}
    flipped = bracket_symbol(0, -1)
    assert flipped.comp == {(0, 1): DivisorFn(Fraction(1, 2), -1,
                                              {(Fraction(0), 1): 1})}
    assert flipped != b


def test_bracket_completion_independent():
    for a, c in ((0, 1), (1, 0), (2, 3), (-3, 5), (1, -4)):
        g, x, y = xgcd(a, c)
        base = ((a, -y), (c, x))
        vals = []
        for k in range(-3, 4):
            vals.append(bracket_from_completion(
                mat_mul(base, ((1, k), (0, 1)))))
        assert all(v == vals[0] for v in vals)
        assert vals[0] == bracket_symbol(a, c)


def test_pullback_functorial():
    rng = random.Random(20260817)
    for _ in range(40):
        g1 = random_sl2(rng)
        g2 = random_sl2(rng)
        x = random_k1(rng)
        assert pullback(mat_mul(g1, g2), x) == pullback(g1, pullback(g2, x))
    assert pullback(IDENT, x) == x


def test_pushforward_fixed_point():
    for p in (2, 3, 5):
        assert pushforward_vertical(p, bracket_symbol(0, 1)) == bracket_symbol(0, 1)
    assert pushforward_vertical(3, bracket_symbol(1, 1)) == bracket_symbol(3, 1)


def test_pushforward_norm_branch():
    # hand-worked norms along the squaring covering
    x = K1Elem()
    x.put(1, 2, DivisorFn(0, 0, {(Fraction(1, 3), 1): 1}))
    y = pushforward_vertical(2, x)
    assert y.comp == {(1, 1): DivisorFn(0, 0, {(Fraction(2, 3), 1): 1})}
    x = K1Elem()
    x.put(1, 2, DivisorFn(0, 0, {(Fraction(1, 3), 2): 1}))
    y = pushforward_vertical(2, x)
    assert y.comp == {(1, 1): DivisorFn(0, 0, {(Fraction(1, 3), 1): 2})}
    x = K1Elem()
    x.put(1, 2, DivisorFn(0, 1, None))
    y = pushforward_vertical(2, x)
    assert y.comp == {(1, 1): DivisorFn(Fraction(1, 2), 1, None)}
    x = K1Elem()
    x.put(1, 3, DivisorFn(0, 1, None))
    y = pushforward_vertical(3, x)
    assert y.comp == {(1, 1): DivisorFn(0, 1, None)}


def test_pushforwards_commute():
    rng = random.Random(9)
    for _ in range(25):
        x = random_k1(rng)
        a = pushforward_vertical(2, pushforward_vertical(3, x))
        b = pushforward_vertical(3, pushforward_vertical(2, x))
        assert a == b


def test_projection_formula():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(20):
            x = random_k1(rng)
            if any(a % p == 0 for a, c in x.comp):
                continue
            assert pushforward_vertical(p, covering_pullback(p, x)) == x.scale(p)


def test_cocycle_small_values():
    assert cocycle_value(T_MAT) != K1Elem()
    # T moves the base vector to (1, 1)
    assert cocycle_value(T_MAT) == bracket_symbol(1, 1) - bracket_symbol(0, 1)
    assert cocycle_value(IDENT) == K1Elem()
    # lower unipotents fix the base vector
    for k in (-2, 1, 5):
        assert cocycle_value(((1, 0), (k, 1))) == K1Elem()
    # -1 acts by the reparametrization, leaving a unit
    minus = cocycle_value(((-1, 0), (0, -1)))
    assert minus.comp == {(0, 1): DivisorFn(Fraction(1, 2), -1, None)}


def test_cocycle_identity():
    rng = random.Random(20260817)
    for _ in range(100):
        g1 = random_sl2(rng)
        g2 = random_sl2(rng)
        lhs = cocycle_value(mat_mul(g1, g2))
        rhs = cocycle_value(g1) + pullback(g1, cocycle_value(g2))
        assert lhs == rhs


def test_degeneracy_conjugate():
    assert degeneracy_conjugate(((1, 1), (2, 3)), 2) == ((1, 2), (1, 3))


def test_pushforward_cocycle_compat():
    assert pushforward_cocycle_compat(2, IDENT)
    rng = random.Random(42)
    for M, p in ((4, 2), (4, 3), (6, 5)):
        for _ in range(50):
            mat = random_lower_divisible(rng, M * p)
            assert pushforward_cocycle_compat(p, mat)


def test_bad_input_is_refused_under_optimize():
    # python -O drops assert statements; each bad input is a ValueError
    # naming it
    code = ("from fractions import Fraction\n"
            "from modk2.torus_k1 import (DivisorFn, cocycle_value,\n"
            "    degeneracy_conjugate, prim_canon)\n"
            "calls = [\n"
            "    ('prim', lambda: prim_canon(4, -6)),\n"
            "    ('k', lambda: DivisorFn(0, 0, {(Fraction(1, 3), 0): 1})),\n"
            "    ('det', lambda: cocycle_value(((2, 1), (3, 4)))),\n"
            "    ('p', lambda: degeneracy_conjugate(((1, 1), (2, 3)), 3))]\n"
            "for name, call in calls:\n"
            "    try:\n"
            "        call()\n"
            "        print(name, 'accepted')\n"
            "    except ValueError as err:\n"
            "        print(name, type(err).__name__, err)\n")
    out = run_python(code)
    assert out.splitlines() == [
        "prim ValueError vector (4, -6) is not primitive",
        "k ValueError factor (Fraction(1, 3), 0) needs k >= 1",
        "det ValueError matrix ((2, 1), (3, 4)) has determinant 5, not 1",
        "p ValueError matrix ((1, 1), (2, 3)): lower-left entry not "
        "divisible by 3",
    ]
