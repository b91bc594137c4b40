"""Acceptance suite: every criterion prints one pass/fail line.

Each test computes its criterion at exact equality in the stated group,
prints a single summary line, and then asserts.  The norm and operator
criteria also run the presented-model backend; those outcomes are
recorded report-only and never weaken or override the tame verdicts.
"""

from modk2 import harness
from modk2.modsym import (
    cusp_number,
    degeneracy_surjective_mod_p,
    genus,
    get_presentation,
)


def _line(tag, ok, detail):
    print("%s %s: %s" % (tag, "PASS" if ok else "FAIL", detail))


def _presented_summary(reports):
    entries = [c for r in reports for c in r["checks"]
               if "presented_high" in c or "presented" in c]
    if not entries:
        return "no presented annotations"
    reduced = 0
    for c in entries:
        ann = c.get("presented_high", c.get("presented"))
        if ann["reduced_to_zero"]:
            reduced += 1
    return "presented reduced %d/%d" % (reduced, len(entries))


def test_a1_interior_kernel_maps_to_zero():
    bad = []
    total = 0
    for M in range(4, 17):
        report = harness.run_check("welldefined", M)
        total += report["counts"]["total"]
        if not report["ok"]:
            bad.append(M)
    ok = not bad
    _line("A1", ok, "levels 4..16, %d kernel vectors, exact zero" % total)
    assert ok, bad


def test_a2_norm_relation_dividing_prime():
    reports = []
    bad = []
    for M, p in ((4, 2), (8, 2), (9, 3)):
        report = harness.run_check("theorem1-divides", M, p=p, cusps="all",
                                   backend="both")
        reports.append(report)
        if not report["ok"]:
            bad.append((M, p))
    ok = not bad
    _line("A2", ok, "pairs (4,2),(8,2),(9,3), all kernel orbits; "
          + _presented_summary(reports))
    assert ok, bad


def test_a3_norm_relation_coprime_prime():
    reports = []
    bad = []
    for M, p in ((4, 3), (5, 2), (7, 2)):
        report = harness.run_check("theorem1-coprime", M, p=p, cusps="all",
                                   backend="both")
        reports.append(report)
        if not report["ok"]:
            bad.append((M, p))
    ok = not bad
    _line("A3", ok, "pairs (4,3),(5,2),(7,2), all kernel orbits; "
          + _presented_summary(reports))
    assert ok, bad


def test_a4_level_dividing_operator_kills():
    reports = []
    bad = []
    pairs = []
    for M in (11, 14, 15):
        for ell in sorted({f for f in (2, 3, 5, 7, 11, 13) if M % f == 0}):
            pairs.append((M, ell))
            report = harness.run_check("atkin", M, ell=ell, backend="both")
            reports.append(report)
            if not report["ok"]:
                bad.append((M, ell))
    ok = not bad
    _line("A4", ok, "pairs %s, odd-away-from-3 triviality; %s"
          % (pairs, _presented_summary(reports)))
    assert ok, bad


def test_a5_eisenstein_operator_kills():
    reports = []
    bad = []
    count = 0
    for M in (11, 13):
        for ell in (2, 3, 5, 7):
            if M % ell == 0:
                continue
            count += 1
            report = harness.run_check("eisenstein", M, ell=ell,
                                       backend="both")
            reports.append(report)
            if not report["ok"]:
                bad.append((M, ell))
    ok = not bad
    _line("A5", ok, "%d (level, prime) pairs, odd-part triviality; %s"
          % (count, _presented_summary(reports)))
    assert ok, bad


def test_a6_transfer_fixed_point_and_cocycle():
    bad = []
    for M, p in ((4, 2), (4, 3), (6, 5)):
        report = harness.run_check("lemma41", M, p=p, trials=200, seed=0)
        if not report["ok"]:
            bad.append((M, p))
    ok = not bad
    _line("A6", ok,
          "base vector fixed, 200 transfer trials per pair, 100 cocycle pairs")
    assert ok, bad


def test_a7_group_ring_presentation_matches_homology():
    bad = []
    for M in range(5, 17):
        report = harness.run_check("prop31", M)
        if not report["ok"]:
            bad.append(M)
    ok = not bad
    _line("A7", ok, "levels 5..16, rank and interior surjectivity")
    assert ok, bad


def test_a8_degeneracy_surjective_mod_p():
    bad = []
    for p in (2, 3):
        high = get_presentation(11 * p)
        low = get_presentation(11)
        if not degeneracy_surjective_mod_p(high, low, p):
            bad.append((11, p))
    ok = not bad
    _line("A8", ok, "(11,2) and (11,3), closed-surface homology mod p")
    assert ok, bad


def test_a9_integrality_away_from_level():
    bad = []
    for M in (5, 7, 11):
        report = harness.run_check("sanity-integrality", M)
        for c in report["checks"]:
            if c["name"].startswith("integral-at-") and not c["ok"]:
                bad.append((M, c["name"]))
    ok = not bad
    _line("A9", ok, "levels 5,7,11 at three primes away from each level")
    assert ok, bad


def test_a10_rank_and_cusp_count_formulas():
    bad = []
    for M in range(4, 31):
        pres = get_presentation(M)
        if pres.absolute_rank() != 2 * genus(M):
            bad.append((M, "rank"))
        if pres.cusps.n != cusp_number(M):
            bad.append((M, "cusps"))
    ok = not bad
    _line("A10", ok, "levels 4..30 against genus and cusp-count formulas")
    assert ok, bad