"""Named verification checks over the homology-to-K2 machinery.

Each check kind computes a family of assertions and returns a report
dictionary with one entry per assertion, a certificate for each, and an
overall flag.  Reports are deterministic for a fixed seed apart from the
timing fields.

Only arith and intlinalg load with this module.  Each check family imports
the modules it calls when it runs, so a run compiles and loads only those:
lemma41 never loads the Manin symbols, and no check but lemma41 loads the
torus cocycles.
"""

import contextlib
import json
import math
import os
import random
import time

from .arith import is_prime, mat22_mul
from .intlinalg import add_row, dense_row, sparse_row, vec_rows, xgcd

KINDS = (
    "welldefined",
    "theorem1-divides",
    "theorem1-coprime",
    "atkin",
    "eisenstein",
    "prop31",
    "lemma41",
    "sanity-integrality",
)

BACKENDS = ("tame", "both")

# every level, and the product of the two levels in any norm
# comparison, stays at or below this
LEVEL_BOUND = 60


# ----- cache files -----


class CacheFileError(ValueError):
    """A cache file is damaged or holds the wrong model; names the file."""


def _cache_path(cache_dir, name):
    return os.path.join(cache_dir, name)


@contextlib.contextmanager
def _cache_file(path, mode="r"):
    """open(path, mode); an OSError while the file is open or used becomes
    a CacheFileError naming it."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as err:
        raise CacheFileError("cache file %s: %s"
                             % (path, err.strerror or err)) from None


def _read_cache(path, magic, keys):
    """Header values named by keys and the remaining lines of a cache file.

    Every defect of the file raises CacheFileError naming it, also under
    python -O.
    """
    with _cache_file(path) as fh:
        lines = fh.read().split("\n")
    try:
        if lines[0] != magic:
            raise ValueError("first line is not %r" % magic)
        head = []
        for key, ln in zip(keys, lines[1:1 + len(keys)]):
            name, value = ln.split()
            if name != key:
                raise ValueError("expected %r, got %r" % (key, ln))
            head.append(int(value))
        if len(head) != len(keys):
            raise ValueError("header ends early")
    except ValueError as err:
        raise CacheFileError("cache file %s: %s" % (path, err)) from None
    return head, lines[1 + len(keys):]


def _read_rows(path, lines, count, width):
    """The first count lines as {index: value} rows of the given width."""
    rows = [ln.split() for ln in lines[:count]]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CacheFileError("cache file %s: row %d has %d entries, "
                                 "expected %d" % (path, i, len(row), width))
    if len(rows) != count:
        raise CacheFileError("cache file %s: %d rows, expected %d"
                             % (path, len(rows), count))
    try:
        return [sparse_row(map(int, row)) for row in rows]
    except ValueError as err:
        raise CacheFileError("cache file %s: %s" % (path, err)) from None


def save_wedge_rows(pk, path):
    with _cache_file(path, "w") as fh:
        fh.write("modk2 wedge-relations 1\n")
        fh.write("level %d\n" % pk.M)
        fh.write("dim %d\n" % pk.dim)
        fh.write("rows %d\n" % len(pk.rows))
        for row in pk.rows:
            line = ["0"] * pk.dim
            for j, v in row.items():
                line[j] = str(v)
            fh.write(" ".join(line) + "\n")


def load_wedge_rows(path):
    """(level, rows) of a k2rows file, rows as {column: value} dicts."""
    from . import k2model
    (level, dim, count), lines = _read_cache(
        path, "modk2 wedge-relations 1", ("level", "dim", "rows"))
    if dim != k2model.wedge_dim(level):
        raise CacheFileError("cache file %s: dim %d does not match level %d"
                             % (path, dim, level))
    return level, _read_rows(path, lines, count, dim)


def presented_model(M, cache_dir=None):
    """The level-M presented model this process builds.

    With a cache directory, an existing k2rows file is compared with its
    relation rows (a difference is a CacheFileError naming the file) and
    a missing one is written.
    """
    from . import k2model
    if not cache_dir:
        return k2model.get_presented(M)
    path = _cache_path(cache_dir, "k2rows-M%d.txt" % M)
    if not os.path.exists(path):
        pk = k2model.get_presented(M)
        save_wedge_rows(pk, path)
        return pk
    level, rows = load_wedge_rows(path)
    if level != M:
        raise CacheFileError("cache file %s holds level %d, expected %d"
                             % (path, level, M))
    try:
        return k2model.PresentedK2.from_rows(M, rows)
    except ValueError as err:
        raise CacheFileError("cache file %s: %s" % (path, err)) from None


def save_degeneracy(path, high, low, p, pi1, pi2):
    from . import modsym
    ncols = modsym.get_presentation(low).nred
    with _cache_file(path, "w") as fh:
        fh.write("modk2 degeneracy 1\n")
        fh.write("high %d\nlow %d\np %d\n" % (high, low, p))
        fh.write("nrows %d\nncols %d\n" % (len(pi1), ncols))
        for block in (pi1, pi2):
            for row in block:
                fh.write(" ".join(map(str, dense_row(row, ncols))) + "\n")


def load_degeneracy(path):
    (high, low, p, nrows, ncols), lines = _read_cache(
        path, "modk2 degeneracy 1", ("high", "low", "p", "nrows", "ncols"))
    vals = _read_rows(path, lines, 2 * nrows, ncols)
    return high, low, p, vals[:nrows], vals[nrows:]


def degeneracy_pair(pres_high, pres_low, p, cache_dir=None):
    """The two degeneracy matrices this process builds.

    With a cache directory, an existing degeneracy file is compared with
    them (a difference is a CacheFileError naming the file) and a missing
    one is written.
    """
    from . import modsym
    pi1, pi2 = modsym.degeneracy_rows(pres_high, pres_low, p)
    if not cache_dir:
        return pi1, pi2
    path = _cache_path(cache_dir, "degeneracy-M%d-p%d.txt" % (pres_high.M, p))
    if not os.path.exists(path):
        save_degeneracy(path, pres_high.M, pres_low.M, p, pi1, pi2)
        return pi1, pi2
    high, low, pp, f1, f2 = load_degeneracy(path)
    if (high, low, pp) != (pres_high.M, pres_low.M, p):
        raise CacheFileError(
            "cache file %s holds levels %d, %d and p %d, expected "
            "%d, %d and %d" % (path, high, low, pp,
                               pres_high.M, pres_low.M, p))
    if (f1, f2) != (pi1, pi2):
        raise CacheFileError("cache file %s: maps differ from the degeneracy "
                             "maps of level %d to %d" % (path, high, low))
    return pi1, pi2


# ----- shared helpers -----


def select_cusp_subset(pres_high, M_sub, mode):
    """Kernel orbits of interior cusps used as relative boundary sets."""
    orbits = pres_high.cusps.kernel_orbits(M_sub)
    if mode == "all":
        return orbits
    if mode == "orbit":
        return [orbits[0]]
    raise ValueError("unknown cusp mode %r" % (mode,))


def _random_sl2(rng, steps=6):
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        if rng.randrange(2):
            m = mat22_mul(m, ((0, -1), (1, 0)))
        else:
            m = mat22_mul(m, ((1, rng.randrange(-3, 4)), (0, 1)))
    return m


def _random_lower_divisible(rng, n):
    while True:
        k = rng.randrange(-4, 5)
        d = rng.randrange(-9, 10)
        if math.gcd(n * k, d) == 1:
            g, x, y = xgcd(d, n * k)
            return ((x, -y), (n * k, d))


def _presented_annotation(pk, sym, discard):
    red = pk.reduce(sym)
    if not any(red):
        return {"reduced_to_zero": True}
    return {"reduced_to_zero": False,
            "residual_order": pk.quotient.reduced_order(red),
            "residual_in_discard_torsion":
                pk.quotient.reduced_zero_away_from(red, discard)}


def _verdict(entry, build, pk, label, discard):
    """Fill in entry: a PreimageError from build() fails it; else build()
    gives the symbol and a callable for its tame (ok, certificate), which
    decides ok.  A presented model pk, when given, annotates the symbol
    under label."""
    from . import k2model
    try:
        sym, tame = build()
    except k2model.PreimageError as err:
        return dict(entry, ok=False, error="preimage: %s" % (err,))
    entry["ok"], entry["tame"] = tame()
    if pk is not None:
        entry[label] = _presented_annotation(pk, sym, discard)
    return entry


# ----- check kinds -----


def _welldefined_checks(M, cache_dir):
    from . import k2model, modsym
    pres = modsym.get_presentation(M)
    pk = presented_model(M, cache_dir)
    checks = []
    for ki, kv in enumerate(pres.manin_kernel_vectors()):
        sym = k2model.interior_symbol(pres, kv)
        red = pk.reduce(sym)
        tok, cert = k2model.km_trivial(M, sym)
        checks.append({"name": "kernel-vector-%d" % ki,
                       "ok": not any(red) and tok, "tame": cert})
    return checks


def _norm_relation_checks(M, p, divides, cusp_mode, backend, cache_dir):
    from . import k2model, modsym
    discard = (2,)
    N = M * p
    pres_high = modsym.get_presentation(N)
    pres_low = modsym.get_presentation(M)
    pi1, pi2 = degeneracy_pair(pres_high, pres_low, p, cache_dir)
    checks = []
    pk_high = None
    if backend == "both":
        pk_high = presented_model(N, cache_dir)
        kvs = pres_high.manin_kernel_vectors()
        all_zero = all(
            not any(pk_high.reduce(k2model.interior_symbol(pres_high, kv)))
            for kv in kvs)
        checks.append({"name": "presented-preimage-independence",
                       "ok": all_zero, "kernel_vectors": len(kvs)})
    for orb in select_cusp_subset(pres_high, M, cusp_mode):
        basis = pres_high.homology_basis(orb)
        for bi, (free_vec, red) in enumerate(basis):
            def build():
                s_high = k2model.k2_image(pres_high, red)
                if divides:
                    low = vec_rows(red, pi1)
                else:
                    low = modsym.twisted_degeneracy(pres_low, p, pi1, pi2,
                                                    red)
                s_low = k2model.k2_image(pres_low, low)
                return s_high, lambda: k2model.norm_compare(
                    M, p, s_high, s_low, discard)
            entry = {"name": "orbit%d-basis%d" % (orb[0], bi),
                     "orbit": list(orb)}
            checks.append(_verdict(entry, build, pk_high, "presented_high",
                                   discard))
    return checks


def _operator_kill_checks(M, ell, eisenstein, backend, cache_dir):
    from . import k2model, modsym
    pres = modsym.get_presentation(M)
    if eisenstein:
        allowed = sorted(pres.cusps.infinity_orbit)
        discard = (2,)
        opname = "hecke%d-%d<%d>-1" % (ell, ell, ell)
    else:
        allowed = ()
        discard = (2, 3)
        opname = "atkin%d-1" % ell
    pk = presented_model(M, cache_dir) if backend == "both" else None
    checks = []
    for bi, (free_vec, red) in enumerate(pres.homology_basis(allowed)):
        def build():
            if eisenstein:
                img = add_row(pres.apply_t(ell, red),
                              pres.apply_diamond(ell % M, red), -ell)
            else:
                img = pres.apply_u(ell, red)
            add_row(img, red, -1)
            sym = k2model.k2_image(pres, img)
            return sym, lambda: k2model.km_trivial(M, sym, discard)
        entry = {"name": "basis%d" % bi, "operator": opname}
        checks.append(_verdict(entry, build, pk, "presented", discard))
    return checks


def _module_presentation_checks(M):
    from . import gamma0pres, modsym
    # the module reuses the presentation's cusp table; building the
    # presentation first keeps its cost out of the module's build time
    modsym.get_presentation(M)
    mod = gamma0pres.CocycleModule(M)
    tor, free = mod.quotient.invariants()
    checks = [
        {"name": "module-rank", "ok": mod.rank_matches(),
         "torsion": list(tor), "free": free,
         "expected_free": mod.expected_rank()},
        {"name": "relations-die-in-homology",
         "ok": mod.map_kills_relations()},
        {"name": "hits-interior-homology",
         "ok": mod.surjects_onto_interior_homology()},
    ]
    return checks


def _transfer_cocycle_checks(M, p, trials, seed):
    from . import torus_k1
    rng = random.Random(seed)
    base = torus_k1.bracket_symbol(0, 1)
    checks = [{"name": "base-vector-fixed",
               "ok": torus_k1.pushforward_vertical(p, base) == base}]
    passed = 0
    for _ in range(trials):
        mat = _random_lower_divisible(rng, M * p)
        if torus_k1.pushforward_cocycle_compat(p, mat):
            passed += 1
    checks.append({"name": "pushforward-compat", "ok": passed == trials,
                   "trials": trials, "passed": passed})
    pairs = trials // 2
    passed = 0
    for _ in range(pairs):
        g1 = _random_sl2(rng)
        g2 = _random_sl2(rng)
        lhs = torus_k1.cocycle_value(mat22_mul(g1, g2))
        rhs = torus_k1.cocycle_value(g1) + torus_k1.pullback(
            g1, torus_k1.cocycle_value(g2))
        if lhs == rhs:
            passed += 1
    checks.append({"name": "cocycle-identity", "ok": passed == pairs,
                   "trials": pairs, "passed": passed})
    return checks


def _first_primes_away_from(M, count):
    out = []
    n = 2
    while len(out) < count:
        if is_prime(n) and M % n != 0:
            out.append(n)
        n += 1
    return out


def _sanity_checks(M, p):
    from . import modsym, places
    pres = modsym.get_presentation(M)
    rank = pres.absolute_rank()
    genus = modsym.genus(M)
    cusps = modsym.cusp_number(M)
    checks = [
        {"name": "absolute-rank", "ok": rank == 2 * genus,
         "rank": rank, "genus": genus},
        {"name": "cusp-count", "ok": pres.cusps.n == cusps,
         "count": pres.cusps.n, "expected": cusps},
    ]
    # every symbol image is a wedge of -1, zeta and 1 - zeta^a, so it is
    # integral at ell as soon as these generators are units there
    basis = pres.homology_basis(pres.cusps.interior)
    for ell in _first_primes_away_from(M, 3):
        checks.append({"name": "integral-at-%d" % ell,
                       "ok": places.generators_are_units(M, ell),
                       "vectors": len(basis)})
    if p is not None:
        pres_high = modsym.get_presentation(M * p)
        ok = modsym.degeneracy_surjective_mod_p(pres_high, pres, p)
        checks.append({"name": "degeneracy-surjective-mod-%d" % p, "ok": ok})
    return checks


# ----- entry points -----


def _cache_presentations(cache_dir, levels):
    for M in levels:
        path = _cache_path(cache_dir, "presentation-M%d.txt" % M)
        if not os.path.exists(path):
            with _cache_file(path, "w") as fh:
                fh.write(presentation_text(M, "all") + "\n")


def _check_level(M):
    """Raise ValueError unless 4 <= M <= LEVEL_BOUND."""
    if M < 4:
        raise ValueError("--M must be at least 4")
    if M > LEVEL_BOUND:
        raise ValueError("--M exceeds the supported bound %d" % LEVEL_BOUND)


def check_params(kind, M, p, ell, backend, trials=200, cusps="orbit"):
    """Raise ValueError unless the parameters suit the check kind."""
    if kind not in KINDS:
        raise ValueError("unknown check kind %r" % (kind,))
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r" % (backend,))
    if cusps not in VERIFY_CUSP_MODES:
        raise ValueError("unknown cusp mode %r" % (cusps,))
    _check_level(M)
    if p is None and kind in ("theorem1-divides", "theorem1-coprime", "lemma41"):
        raise ValueError("%s requires --p" % kind)
    if ell is None and kind in ("atkin", "eisenstein"):
        raise ValueError("%s requires --l" % kind)
    if p is not None:
        # the bound first: trial division grows with the square root of p
        if kind != "lemma41" and M * p > LEVEL_BOUND:
            raise ValueError("M*p exceeds the supported bound %d" % LEVEL_BOUND)
        if not is_prime(p):
            raise ValueError("--p must be prime")
        if kind == "theorem1-divides" and M % p != 0:
            raise ValueError("theorem1-divides needs p dividing M")
        if kind in ("theorem1-coprime", "sanity-integrality") and M % p == 0:
            raise ValueError("%s needs p coprime to M" % kind)
    if ell is not None:
        if not is_prime(ell):
            raise ValueError("--l must be prime")
        if kind == "atkin" and M % ell != 0:
            raise ValueError("atkin needs l dividing M")
        if kind == "eisenstein" and M % ell == 0:
            raise ValueError("eisenstein needs l coprime to M")
    if kind == "lemma41" and trials < 2:
        # the cocycle identity pairs trials up; fewer than two checks nothing
        raise ValueError("lemma41 needs --trials of at least 2")


def run_check(kind, M, p=None, ell=None, cusps="orbit", trials=200, seed=0,
              backend="tame", cache_dir=None):
    check_params(kind, M, p, ell, backend, trials, cusps)
    t0 = time.time()
    params = {"M": M, "p": p, "ell": ell, "cusps": cusps,
              "trials": trials, "seed": seed, "backend": backend}
    if kind == "welldefined":
        checks = _welldefined_checks(M, cache_dir)
    elif kind == "theorem1-divides":
        checks = _norm_relation_checks(M, p, True, cusps, backend, cache_dir)
    elif kind == "theorem1-coprime":
        checks = _norm_relation_checks(M, p, False, cusps, backend, cache_dir)
    elif kind == "atkin":
        checks = _operator_kill_checks(M, ell, False, backend, cache_dir)
    elif kind == "eisenstein":
        checks = _operator_kill_checks(M, ell, True, backend, cache_dir)
    elif kind == "prop31":
        checks = _module_presentation_checks(M)
    elif kind == "lemma41":
        checks = _transfer_cocycle_checks(M, p, trials, seed)
    else:
        checks = _sanity_checks(M, p)
    if cache_dir:
        levels = {M}
        if kind.startswith("theorem1") or (
                kind == "sanity-integrality" and p is not None):
            levels.add(M * p)
        _cache_presentations(cache_dir, sorted(levels))
    failed = sum(1 for c in checks if not c["ok"])
    return {
        "kind": kind,
        "level": M,
        "params": params,
        "checks": checks,
        "counts": {"total": len(checks), "failed": failed},
        "ok": failed == 0,
        "elapsed_ms": int((time.time() - t0) * 1000),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


def render_text(report):
    head = "%s %s level=%d" % ("PASS" if report["ok"] else "FAIL",
                               report["kind"], report["level"])
    extras = []
    for key in ("p", "ell", "cusps", "backend"):
        val = report["params"].get(key)
        if val is not None and key != "cusps" or (
                key == "cusps" and report["kind"].startswith("theorem1")):
            extras.append("%s=%s" % (key, val))
    if extras:
        head += " (" + ", ".join(extras) + ")"
    lines = [head]
    for c in report["checks"]:
        mark = "PASS" if c["ok"] else "FAIL"
        detail = ""
        if "operator" in c:
            detail += " op=%s" % c["operator"]
        if "trials" in c:
            detail += " %d/%d" % (c["passed"], c["trials"])
        if "error" in c:
            detail += " " + c["error"]
        lines.append("  [%s] %s%s" % (mark, c["name"], detail))
    lines.append("checks: %d, failed: %d, elapsed: %dms" % (
        report["counts"]["total"], report["counts"]["failed"],
        report["elapsed_ms"]))
    return "\n".join(lines)


# ----- presentation printer -----

CUSP_MODES = ("all", "C0", "Cinf", "none")
# boundary orbits the norm checks of `verify` use; see select_cusp_subset
VERIFY_CUSP_MODES = ("orbit", "all")


def presentation_text(M, cusp_mode="all"):
    _check_level(M)
    from . import modsym
    pres = modsym.get_presentation(M)
    if cusp_mode == "all":
        allowed = list(range(pres.cusps.n))
    elif cusp_mode == "C0":
        allowed = list(pres.cusps.interior)
    elif cusp_mode == "Cinf":
        allowed = sorted(pres.cusps.infinity_orbit)
    elif cusp_mode == "none":
        allowed = []
    else:
        raise ValueError("unknown cusp mode %r" % (cusp_mode,))
    lines = ["modk2 presentation 1",
             "level %d" % M,
             "cusps %s" % cusp_mode,
             "classes %d" % len(pres.classes)]
    for i, (c, d) in enumerate(pres.classes):
        lines.append("class %d %d %d" % (i, c, d))
    lines.append("generators %d" % pres.nred)
    for r, i in enumerate(pres.reps):
        lines.append("gen %d class %d" % (r, i))
    lines.append("relations %d" % len(pres.relation_rows))
    for row in pres.relation_rows:
        lines.append("row " + " ".join(map(str, dense_row(row, pres.nred))))
    lines.append("cusp-classes %d" % pres.cusps.n)
    for i, (a, b) in enumerate(pres.cusps.reps):
        lines.append("cusp %d %d %d" % (i, a, b))
    lines.append("boundary-set " + " ".join(str(i) for i in allowed))
    basis = pres.homology_basis(allowed)
    lines.append("subgroup-rank %d" % len(basis))
    for free_vec, red in basis:
        lines.append("basis " + " ".join(map(str, dense_row(red, pres.nred))))
    tor, free = pres.quotient.invariants()
    lines.append("invariants torsion=%s free=%d" % (
        ",".join(str(t) for t in tor), free))
    return "\n".join(lines)