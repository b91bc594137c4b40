import hashlib
import json
import os

import pytest

from formal_units import pair_symbol, symbol_add
from fresh_process import run_python
from modk2 import harness, k2model
from modk2.k2model import PresentedK2, get_presented
from modk2.modsym import ManinPresentation, get_presentation


def strip_timing(report):
    out = dict(report)
    out.pop("elapsed_ms")
    out.pop("generated")
    return out


def test_every_kind_runs_and_passes():
    cases = [
        ("welldefined", dict(M=5)),
        ("theorem1-divides", dict(M=4, p=2)),
        ("theorem1-coprime", dict(M=4, p=3)),
        ("atkin", dict(M=14, ell=2)),
        ("eisenstein", dict(M=11, ell=3)),
        ("prop31", dict(M=7)),
        ("lemma41", dict(M=4, p=2, trials=30)),
        ("sanity-integrality", dict(M=7)),
    ]
    for kind, kw in cases:
        report = harness.run_check(kind, **kw)
        assert report["ok"], (kind, report)
        assert report["counts"]["failed"] == 0
        assert report["kind"] == kind


def test_report_deterministic():
    a = harness.run_check("lemma41", 4, p=2, trials=20, seed=9)
    b = harness.run_check("lemma41", 4, p=2, trials=20, seed=9)
    assert strip_timing(a) == strip_timing(b)
    c = harness.run_check("theorem1-coprime", 4, p=3)
    d = harness.run_check("theorem1-coprime", 4, p=3)
    assert strip_timing(c) == strip_timing(d)


def test_empty_report_is_valid():
    # genus zero leaves no closed-surface basis vectors to check
    report = harness.run_check("atkin", 5, ell=5)
    assert report["ok"]
    assert report["counts"] == {"total": 0, "failed": 0}
    assert "PASS" in harness.render_text(report)


def test_render_text_marks_failures():
    report = harness.run_check("prop31", 5)
    text = harness.render_text(report)
    assert text.splitlines()[0].startswith("PASS prop31 level=5")
    report["checks"][0]["ok"] = False
    report["ok"] = False
    report["counts"]["failed"] = 1
    text = harness.render_text(report)
    assert "FAIL" in text.splitlines()[0]
    assert any(ln.strip().startswith("[FAIL]") for ln in text.splitlines())


def test_render_json_roundtrip():
    report = harness.run_check("welldefined", 4)
    loaded = json.loads(harness.render_json(report))
    assert loaded == report


def test_select_cusp_subset_modes():
    pres = get_presentation(8)
    orbits = harness.select_cusp_subset(pres, 4, "all")
    assert orbits and all(orbits[i][0] < orbits[i + 1][0]
                          for i in range(len(orbits) - 1))
    first = harness.select_cusp_subset(pres, 4, "orbit")
    assert first == [orbits[0]]
    inf = pres.cusps.class_of_fraction(1, 0)
    through = harness.select_cusp_subset(pres, 4, "infty")
    assert len(through) == 1 and inf in through[0]
    with pytest.raises(ValueError):
        harness.select_cusp_subset(pres, 4, "everything")


def test_wedge_row_cache_roundtrip(tmp_path):
    pk = PresentedK2(5)
    path = os.path.join(str(tmp_path), "k2rows-M5.txt")
    harness.save_wedge_rows(pk, path)
    level, rows = harness.load_wedge_rows(path)
    assert level == 5 and rows == pk.rows
    # rows are compared with the model this process builds, never trusted
    assert PresentedK2.from_rows(5, rows) is get_presented(5)
    assert get_presented(5).rows == pk.rows
    with pytest.raises(ValueError, match="level 5"):
        PresentedK2.from_rows(5, rows[:-1])
    with pytest.raises(ValueError, match="level 5"):
        PresentedK2.from_rows(5, [{k: 2 * v for k, v in r.items()} for r in rows])


def test_degeneracy_cache_roundtrip(tmp_path):
    ph = get_presentation(8)
    pl = get_presentation(4)
    pi1, pi2 = harness.degeneracy_pair(ph, pl, 2, str(tmp_path))
    assert os.path.exists(os.path.join(str(tmp_path), "degeneracy-M8-p2.txt"))
    again1, again2 = harness.degeneracy_pair(ph, pl, 2, str(tmp_path))
    assert again1 == pi1 and again2 == pi2
    fresh1, fresh2 = harness.degeneracy_pair(ph, pl, 2, None)
    assert fresh1 == pi1 and fresh2 == pi2


def test_cache_files_written(tmp_path):
    cache = str(tmp_path)
    report = harness.run_check("theorem1-coprime", 4, p=3, backend="both",
                               cache_dir=cache)
    assert report["ok"]
    names = sorted(os.listdir(cache))
    assert "degeneracy-M12-p3.txt" in names
    assert "k2rows-M12.txt" in names
    assert "presentation-M4.txt" in names
    assert "presentation-M12.txt" in names
    with open(os.path.join(cache, "presentation-M4.txt")) as fh:
        assert fh.readline().strip() == "modk2 presentation 1"


def test_presented_backend_annotations():
    report = harness.run_check("theorem1-coprime", 4, p=3, backend="both")
    names = [c["name"] for c in report["checks"]]
    assert "presented-preimage-independence" in names
    assert report["ok"]
    for c in report["checks"]:
        if "presented_high" in c:
            assert "reduced_to_zero" in c["presented_high"]
    report = harness.run_check("eisenstein", 11, ell=3, backend="both")
    assert report["ok"]
    assert all("presented" in c for c in report["checks"])


def test_presentation_text_shape():
    text = harness.presentation_text(5, "C0")
    lines = text.splitlines()
    assert lines[0] == "modk2 presentation 1"
    assert "level 5" in lines
    assert "cusps C0" in lines
    assert any(ln.startswith("subgroup-rank ") for ln in lines)
    assert any(ln.startswith("invariants ") for ln in lines)
    # interior boundary set for level 5 is the two non-unit cusp classes
    bset = [ln for ln in lines if ln.startswith("boundary-set")][0]
    pres = get_presentation(5)
    assert bset == "boundary-set " + " ".join(str(i) for i in pres.cusps.interior)
    with pytest.raises(ValueError):
        harness.presentation_text(5, "some")


def test_run_check_rejects_unknown():
    with pytest.raises(ValueError):
        harness.run_check("frobnicate", 5)
    with pytest.raises(ValueError):
        harness.run_check("welldefined", 5, backend="fancy")
    with pytest.raises(ValueError, match="unknown cusp mode 'bogus'"):
        harness.run_check("prop31", 5, cusps="bogus")


def test_run_check_rejects_vacuous_trials():
    # lemma41 pairs its trials up: fewer than two would pass on 0/0 checks
    for trials in (0, 1, -5):
        with pytest.raises(ValueError, match="--trials"):
            harness.run_check("lemma41", 4, p=2, trials=trials)
    assert harness.run_check("lemma41", 4, p=2, trials=2)["ok"]


def test_run_check_validates_under_optimize():
    # parameter checks must not be compiled out by python -O
    code = ("from modk2 import harness\n"
            "for kind, M, kw in (('theorem1-divides', 5, {'p': 3}),\n"
            "                    ('eisenstein', 7, {'ell': 7})):\n"
            "    try:\n"
            "        harness.run_check(kind, M, **kw)\n"
            "    except ValueError as err:\n"
            "        print(err)\n"
            "try:\n"
            "    harness.presentation_text(2)\n"
            "except ValueError as err:\n"
            "    print(err)\n"
            "from modk2.intlinalg import IntQuotient\n"
            "try:\n"
            "    IntQuotient([{0: 1}, {3: 1}], 3)\n"
            "except ValueError as err:\n"
            "    print(err)\n"
            "from modk2.modsym import CuspTable\n"
            "try:\n"
            "    CuspTable(6).class_of_pair(2, 4)\n"
            "except ValueError as err:\n"
            "    print(err)\n")
    out = run_python(code)
    assert out.splitlines() == ["theorem1-divides needs p dividing M",
                                "eisenstein needs l coprime to M",
                                "--M must be at least 4",
                                "relation row 1 has column 3 outside range(3)",
                                "(2, 4) is no primitive pair mod 6"]


def test_prop31_builds_one_cusp_table():
    # the cocycle module takes the cusps of the level's Manin presentation
    # instead of building a second table; a fresh process starts uncached
    code = ("from modk2 import harness, modsym\n"
            "real = modsym.CuspTable.__init__\n"
            "levels = []\n"
            "def counted(self, M):\n"
            "    levels.append(M)\n"
            "    real(self, M)\n"
            "modsym.CuspTable.__init__ = counted\n"
            "print(harness.run_check('prop31', 30)['ok'], levels)\n")
    out = run_python(code, optimize=False)
    assert out.split() == ["True", "[30]"]


def _modules_added(setup, step):
    """The modules a fresh process loads in step, after setup."""
    code = ("import sys\n" + setup + "\n"
            "before = set(sys.modules)\n" + step + "\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    out = run_python(code, optimize=False)
    return set(out.split())


def test_checks_load_only_the_modules_they_call():
    # harness loads arith and intlinalg; each check family loads the
    # modules it calls when it runs
    imported = _modules_added("", "import modk2.harness")
    assert {m for m in imported if m.startswith("modk2")} == {
        "modk2", "modk2.arith", "modk2.intlinalg", "modk2.harness"}
    assert "fractions" not in imported
    setup = "from modk2 import harness"
    fractions = _modules_added(setup, "import fractions")
    assert "fractions" in fractions
    assert _modules_added(setup, "harness.run_check('lemma41', 6, p=5, "
                          "trials=2)") == {"modk2.torus_k1"} | fractions
    prop31 = _modules_added(setup, "harness.run_check('prop31', 12)")
    assert "modk2.gamma0pres" in prop31
    assert not prop31 & {"modk2.k2model", "modk2.places", "modk2.cyclo",
                         "modk2.torus_k1", "fractions"}
    sanity = _modules_added(setup,
                            "harness.run_check('sanity-integrality', 11)")
    assert "modk2.places" in sanity
    assert not sanity & {"modk2.k2model", "modk2.gamma0pres",
                         "modk2.torus_k1", "fractions"}


# sha256 of presentation_text, which `modk2 present` prints: the cusp
# representatives, relation rows and homology bases of the level.  Levels
# 4, 11, 30 and 60 in every cusp mode were recorded before the level
# tables became orbit tables (arith.orbit_table).
PRESENTATION_SHA256 = {
    (12, "all"):
        "aff3bd111a55d631442561c89f25c3520b84884314003d33401f643b54c52f6e",
    (37, "C0"):
        "2129d7aae3a0bc41872e81f91cf94b68627210e0bb36b9130bd73bcf45f28756",
    (4, "all"):
        "8b8abec4c0753527c8cd4fa582371c8e2cf2b09b6ca366948dffabce87e3fd42",
    (4, "C0"):
        "79443462c38425701741cf95e8361cb779522cb520ae743c43d7618fbd780136",
    (4, "Cinf"):
        "0f647c0bcc076ef76e6a394d520d1c9ab51b9e13521d37b3186e1d2ef8f482c5",
    (4, "none"):
        "e5178f250ce6f397bd59e571826a4fdc1501782705419bbba451545086ef721a",
    (11, "all"):
        "3b3fcce91689c6030606113b1e6372068a8c1352c4a8bc190e6b3c49d664b4e4",
    (11, "C0"):
        "8ebb3783f2b55b1231a56bb227da76b739b37f7b27d9bcc90ccfffafeb1df6a8",
    (11, "Cinf"):
        "17b0073d972afdaec3a04ff8867c469765b5ad070182a33ac012d8c255a927d6",
    (11, "none"):
        "9a130e7c7d314f8e1ccfb86853d475c33ae42171ce917bc67b147de101ba362f",
    (30, "all"):
        "197ca62a47f2dcfcf6af61c8202c3f5b91dbd508a8c2d75510b9bb9bfde0351b",
    (30, "C0"):
        "c333bd1c13d6b3bf948c88887ef2f045794061d55cee6772ce4d415e6326c970",
    (30, "Cinf"):
        "e261d512e221b3a8b7553412245ee6bd6bd30eb76de417f7797c15cc80f87c73",
    (30, "none"):
        "d4b8fd9f253f1e56dd71c20d6a25c575bf69ab7df50bd34fbeb3e1802a2273c5",
    (60, "C0"):
        "5690d428e9d88afdce1b8928ce170cbaf5f9e2f6ecf8ae75b17c666e9931ebce",
    (60, "Cinf"):
        "81fd9543ccee95b5da516049750be33d863abd84fc779cff25ecda648948adfd",
    (60, "none"):
        "0adcf324fa5a49f69af5a22ad6638219fa74fd435b0391ba1cb9a62521bb2b76",
    (60, "all"):
        "80fb27a3067672c52fcae6f0093a43cdcf968fcce133fd9576c172bedb638f18",
}


def test_presentation_text_digests():
    for (M, mode), want in PRESENTATION_SHA256.items():
        text = harness.presentation_text(M, mode)
        assert hashlib.sha256(text.encode()).hexdigest() == want


# report_digest (perfbench/run.py) of reports off the bench grid, which no
# golden digest covers.  The first three were recorded before symbols
# became wedge-square rows: the both backend, and km_trivial discarding
# (2, 3) at atkin points.  The next two map residues between fields larger
# than F_ell (pushed from F_49 to F_7 and moved inside F_8; pushed from
# F_25 to F_5 and moved inside F_16), the last three pin the presented and
# tame backends alone.
OFF_GRID_REPORT_SHA256 = [
    ("welldefined", 30, dict(backend="both"),
     "cd3c00adfd64d515e615661053f3803799b9094c310ea1b898e6cd08051afe64"),
    ("atkin", 45, dict(ell=3, backend="both"),
     "0e1e75ea70dd93832751b4f069e89281c5b8ec96c6d668df3b6576b77f1cbbb6"),
    ("theorem1-coprime", 13, dict(p=3, cusps="all", backend="both"),
     "2b8e8c4e7c70fd035251b2423296266ec9228fe22378fc7461e3af78090ee375"),
    ("theorem1-divides", 14, dict(p=2, cusps="all", backend="both"),
     "00a960908ce121b3bcb2cd1db005f7aa02814daf1ecd8d1d4c4a71ca2ba654ee"),
    ("theorem1-coprime", 10, dict(p=3, cusps="all", backend="both"),
     "441079e4dc1731b99d749081f8912727da70babeb57607c767c30d62ff6bca46"),
    ("theorem1-divides", 14, dict(p=2, cusps="all", backend="presented"),
     "75674fba69bd3ff6523f415643598ed520205663be7e34aeb40227898ecf354e"),
    ("eisenstein", 37, dict(ell=2, backend="presented"),
     "6e81907e95ff130a5153bc37fdb0a088beedb0fb957b4cfb10c02d2342e1ed86"),
    ("welldefined", 30, dict(backend="tame"),
     "6f1249d5ac3951aed2494a7ebd66bce0f9958ef4a344586f16a10df13bf4f222"),
]


def test_off_grid_report_digests(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import run
    for kind, M, kwargs, want in OFF_GRID_REPORT_SHA256:
        report = harness.run_check(kind, M, **kwargs)
        assert report["ok"]
        assert run.report_digest(report) == want


def test_cache_loaders_reject_bad_files_under_optimize(tmp_path):
    # a cut, misplaced or foreign cache file is refused with an error naming
    # it, also when python -O drops assert statements
    def write(name, case, text):
        d = tmp_path / case
        d.mkdir()
        (d / name).write_text(text)
        return str(d)

    ph, pl = get_presentation(8), get_presentation(4)
    rows16 = tmp_path / "rows16.txt"
    harness.save_wedge_rows(PresentedK2(16), str(rows16))
    lines = rows16.read_text().split("\n")
    assert lines[3] == "rows 808"
    rows8 = tmp_path / "rows8.txt"
    harness.save_wedge_rows(PresentedK2(8), str(rows8))
    deg = tmp_path / "deg.txt"
    harness.save_degeneracy(str(deg), 8, 4, 2, *harness.degeneracy_pair(ph, pl, 2))
    deg_lines = deg.read_text().split("\n")
    k2rows, degname = "k2rows-M16.txt", "degeneracy-M8-p2.txt"
    dirs = [
        write(k2rows, "rows-cut", "\n".join(lines[:4 + 300])),
        write(k2rows, "level8", rows8.read_text()),
        write(k2rows, "narrow", "\n".join(lines[:5] + ["1 2"] + lines[6:])),
        write(k2rows, "header", "modk2 wedge-relations 2\n" + "\n".join(lines[1:])),
        write(degname, "deg-cut", "\n".join(deg_lines[:-3])),
        write(degname, "levels", deg.read_text().replace("low 4", "low 2", 1)),
    ]
    code = ("import os, sys\n"
            "from modk2 import harness\n"
            "from modk2.modsym import get_presentation\n"
            "for d in sys.argv[1:]:\n"
            "    try:\n"
            "        if os.path.exists(os.path.join(d, 'k2rows-M16.txt')):\n"
            "            harness.presented_model(16, d)\n"
            "        else:\n"
            "            harness.degeneracy_pair(get_presentation(8),\n"
            "                                    get_presentation(4), 2, d)\n"
            "        print('accepted', d)\n"
            "    except harness.CacheFileError as err:\n"
            "        print('rejected', err)\n")
    out = run_python(code, *dirs)
    got = out.splitlines()
    assert len(got) == len(dirs)
    for line, d in zip(got, dirs):
        assert line.startswith("rejected cache file " + d + os.sep), line


def test_negative_control_perturbed_high_symbol(monkeypatch):
    # the tame norm comparison must notice a symbol added at level 14
    report = harness.run_check("theorem1-coprime", 7, p=2, cusps="all")
    assert report["ok"] and report["counts"] == {"total": 18, "failed": 0}
    image = k2model.k2_image

    def perturbed(pres, vec):
        sym = image(pres, vec)
        if pres.M != 14:
            return sym
        return symbol_add(sym, pair_symbol(14, 1, 2))

    # harness looks k2_image up in k2model on every run
    monkeypatch.setattr(k2model, "k2_image", perturbed)
    report = harness.run_check("theorem1-coprime", 7, p=2, cusps="all")
    assert not report["ok"]
    assert report["counts"] == {"total": 18, "failed": 18}


def test_negative_control_dropped_diamond(monkeypatch):
    # T_l - l<l> - 1 with <l> replaced by zero is not Eisenstein
    report = harness.run_check("eisenstein", 11, ell=2)
    assert report["ok"] and report["counts"] == {"total": 6, "failed": 0}
    monkeypatch.setattr(ManinPresentation, "apply_diamond",
                        lambda self, t, vec: {})
    report = harness.run_check("eisenstein", 11, ell=2)
    assert not report["ok"]
    assert report["counts"] == {"total": 6, "failed": 5}


def test_negative_control_wrong_discrete_log():
    # one baby-step entry of F_13's order-3 table off by one gives wrong
    # discrete logs, and the tame comparisons of theorem1-coprime (13, 3)
    # still pass on them; checking each log against the generator must
    # refuse the run, also under python -O
    code = ("from modk2 import harness\n"
            "from modk2.places import CertificateError, get_field\n"
            "r, e, ge, baby, m, giant = get_field(13, 1)._ph_tables[1]\n"
            "print('table', r, e, sorted(baby.values()))\n"
            "baby[next(k for k, j in baby.items() if j == 1)] += 1\n"
            "try:\n"
            "    report = harness.run_check('theorem1-coprime', 13, p=3)\n"
            "    print('accepted', report['ok'])\n"
            "except CertificateError as err:\n"
            "    print('rejected:', err)\n")
    assert run_python(code).splitlines() == [
        "table 3 1 [0, 1]",
        "rejected: GF(13): the generator to the power 8 is not (3,)"]
