import json

import pytest

from modk2 import cli, harness


def test_verify_exit_zero(capsys):
    code = cli.main(["verify", "prop31", "--M", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS prop31 level=5")


def test_verify_json_output(capsys):
    code = cli.main(["verify", "lemma41", "--M", "4", "--p", "2",
                     "--trials", "10", "--seed", "3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "lemma41"
    assert report["params"]["trials"] == 10
    assert report["ok"]


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    failed = {"kind": "prop31", "level": 5, "params": {"M": 5},
              "checks": [{"name": "module-rank", "ok": False}],
              "counts": {"total": 1, "failed": 1}, "ok": False,
              "elapsed_ms": 0, "generated": "x"}
    monkeypatch.setattr(harness, "run_check", lambda *a, **k: failed)
    code = cli.main(["verify", "prop31", "--M", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verify_cache_dir_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("MODK2_CACHE_DIR", str(tmp_path))
    seen = {}
    real = harness.run_check

    def spy(*args, **kw):
        seen.update(kw)
        return real(*args, **kw)

    monkeypatch.setattr(harness, "run_check", spy)
    code = cli.main(["verify", "prop31", "--M", "5"])
    capsys.readouterr()
    assert code == 0
    assert seen["cache_dir"] == str(tmp_path)


def test_verify_damaged_cache_file_exits_two(capsys, monkeypatch, tmp_path):
    # a damaged cache file is bad input, not a failed check: one line
    # naming the file and exit 2
    argv = ["verify", "theorem1-divides", "--M", "4", "--p", "2",
            "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    path = tmp_path / "degeneracy-M8-p2.txt"
    path.write_text("\n".join(path.read_text().split("\n")[:-3]))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("modk2 verify: error: cache file %s: " % path)
    # other exceptions from run_check still propagate

    def broken(*args, **kw):
        raise ValueError("not about a cache file")

    monkeypatch.setattr(harness, "run_check", broken)
    with pytest.raises(ValueError, match="not about a cache file"):
        cli.main(argv)


def test_verify_forged_cache_files_exit_two(capsys, tmp_path):
    # well-formed cache files holding other rows or maps than the run
    # builds are refused with one line naming the file and exit 2; at
    # level 16 an identity k2rows file would have made every symbol
    # reduce to zero
    argv = ["verify", "theorem1-divides", "--M", "8", "--p", "2",
            "--cusps", "all", "--backend", "presented", "--json",
            "--cache-dir", str(tmp_path)]

    def report():
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("elapsed_ms")
        out.pop("generated")
        return out

    cold = report()
    zero = [c["presented_high"]["reduced_to_zero"] for c in cold["checks"]
            if "presented_high" in c]
    assert (sum(zero), len(zero)) == (8, 34)
    assert report() == cold

    def refused(path):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("modk2 verify: error: cache file %s: " % path)

    rows = tmp_path / "k2rows-M16.txt"
    real_rows = rows.read_text()
    rows.write_text("\n".join(
        ["modk2 wedge-relations 1", "level 16", "dim 136", "rows 136"]
        + [" ".join("1" if j == i else "0" for j in range(136))
           for i in range(136)]) + "\n")
    refused(rows)
    rows.write_text(real_rows)
    deg = tmp_path / "degeneracy-M16-p2.txt"
    lines = deg.read_text().split("\n")
    assert lines[5].startswith("ncols ")
    deg.write_text("\n".join(lines[:6] + [" ".join("0" for _ in ln.split())
                                          for ln in lines[6:]]))
    refused(deg)


def test_verify_unusable_cache_exits_two(capsys, tmp_path):
    # a cache directory that cannot be made, or a cache path that cannot
    # be read, is bad input: one line naming it and exit 2, no traceback
    plain = tmp_path / "F"
    plain.write_text("")
    hole = tmp_path / "D"
    (hole / "k2rows-M8.txt").mkdir(parents=True)
    cases = [
        (["prop31", "--M", "5", "--cache-dir", str(plain)],
         "cache directory %s: " % plain),
        (["prop31", "--M", "5", "--cache-dir", str(plain / "sub")],
         "cache directory %s: " % (plain / "sub")),
        (["theorem1-divides", "--M", "4", "--p", "2", "--backend", "both",
          "--cache-dir", str(hole)],
         "cache file %s: " % (hole / "k2rows-M8.txt")),
    ]
    for argv, named in cases:
        assert cli.main(["verify"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("modk2 verify: error: " + named)


def test_present_output(capsys):
    code = cli.main(["present", "--M", "6", "--cusps", "none"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "modk2 presentation 1"
    assert "cusps none" in lines
    assert "boundary-set " in lines


def test_bad_arguments_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "nonsense", "--M", "5"])
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "prop31"])
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["present", "--M", "5",
                                       "--cusps", "weird"])
    for argv in (["verify", "prop31", "--M", "5", "--cusps", "bogus"],
                 ["present", "--M", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    for mode in harness.VERIFY_CUSP_MODES:
        harness.check_params("prop31", 5, None, None, "tame", cusps=mode)


def test_kind_parameter_validation(capsys):
    # usage errors exit 2 with a message, not a traceback; run_check raises
    # ValueError with the same message
    bad = [
        ["verify", "atkin", "--M", "14"],
        ["verify", "eisenstein", "--M", "11", "--l", "11"],
        ["verify", "theorem1-divides", "--M", "5", "--p", "3"],
        ["verify", "theorem1-coprime", "--M", "4", "--p", "2"],
        ["verify", "theorem1-coprime", "--M", "5"],
        ["verify", "lemma41", "--M", "4", "--p", "4"],
        ["verify", "theorem1-coprime", "--M", "29", "--p", "3"],
        ["verify", "sanity-integrality", "--M", "31", "--p", "2"],
        ["verify", "lemma41", "--M", "4", "--p", "2", "--trials", "0"],
        ["verify", "lemma41", "--M", "4", "--p", "2", "--trials", "1"],
        ["verify", "lemma41", "--M", "4", "--p", "2", "--trials", "-5"],
        ["verify", "welldefined", "--M", "61"],
        ["verify", "eisenstein", "--M", "61", "--l", "2"],
        ["verify", "lemma41", "--M", "61", "--p", "2"],
        # a 20-digit prime: the bound refuses it before trial division,
        # which would take minutes
        ["verify", "theorem1-coprime", "--M", "5", "--p",
         "18446744073709551557"],
    ]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ValueError) as verr:
            harness.check_params(args.kind, args.M, args.p, args.ell,
                                 args.backend, args.trials)
        assert err.rstrip().endswith("error: %s" % verr.value)

def test_verify_cusps_all_matches_run_check(capsys):
    code = cli.main(["verify", "theorem1-divides", "--M", "4", "--p", "2",
                     "--cusps", "all", "--json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads(harness.render_json(
        harness.run_check("theorem1-divides", 4, p=2, cusps="all")))
    for report in (got, want):
        report.pop("elapsed_ms")
        report.pop("generated")
    assert got == want
    assert got["params"]["cusps"] == "all"
