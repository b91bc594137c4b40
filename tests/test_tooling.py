import ast
import glob
import json
import os
import re
import subprocess
import sys

import pytest

from modk2.arith import factorize
from modk2.cyclo import CycElt
from modk2.gamma0pres import CocycleModule, mat22_inv
from modk2.harness import run_check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layertrace_finds_every_target():
    # the benchmark's tracer wraps functions by name; a name it cannot find
    # makes every traced run report correct: false
    code = ("import modk2\n"
            "from layertrace import Tracer\n"
            "print(modk2.__file__)\n"
            "print(Tracer().install().missing)\n")
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    where, missing = out.splitlines()
    assert where.startswith(path[0] + os.sep)
    assert missing == "[]"


def _trace_target_names():
    # read, not imported: the names layertrace.TARGETS wraps by attribute,
    # as module.function and module.Class.method
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            targets = ast.literal_eval(node.value)
    return {layer + "." + name
            for layer, names in targets.items() for name in names}


def _functions(node, owner):
    """Owner-qualified names of the functions and methods defined in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = owner + "." + child.name
            if not isinstance(child, ast.ClassDef):
                yield name
            yield from _functions(child, name)
        else:
            yield from _functions(child, owner)


def test_src_names_have_src_callers():
    # code that only tests call belongs in tests/: every function, method
    # and module-level constant defined in src/modk2 is named somewhere in
    # src/modk2 besides its own definition (dunders exempt, and trace
    # targets by owner: a target exempts no other owner's method of the
    # same name)
    defined = set()
    used = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "modk2", "*.py"))):
        module = os.path.basename(path)[:-len(".py")]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined.update(module + "." + t.id for t in node.targets
                               if isinstance(t, ast.Name))
        defined.update(_functions(tree, module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    names = {q: q.rsplit(".", 1)[1] for q in defined - _trace_target_names()}
    unused = sorted(q for q, n in names.items() if n not in used
                    and not (n.startswith("__") and n.endswith("__")))
    assert unused == []


def _optimize_sensitive(source):
    """What in source python -O strips or can be told apart by: assert
    statements, __debug__ (so every `if __debug__:` block) and sys.flags."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append("assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append("__debug__")
        elif ((isinstance(node, ast.Attribute) and node.attr == "flags"
               and getattr(node.value, "id", None) == "sys")
              or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                  and any(alias.name == "flags" for alias in node.names))):
            found.append("sys.flags")
    return found


def test_bare_asserts_do_not_grow():
    # with no assert, no __debug__ and no sys.flags in src/modk2, python -O
    # runs exactly the code python runs: every check these tests make
    # in-process, negative controls included, holds under -O as well
    found = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "modk2", "*.py"))):
        with open(path) as fh:
            hits = _optimize_sensitive(fh.read())
        if hits:
            found[os.path.basename(path)] = hits
    assert found == {}


def test_optimize_rule_can_fail():
    cases = {
        "assert x\n": ["assert"],
        "if __debug__:\n    x = 1\n": ["__debug__"],
        "import sys\nlevel = sys.flags.optimize\n": ["sys.flags"],
        "from sys import flags\n": ["sys.flags"],
        "import sys\nargs = sys.argv\nif x:\n    raise ValueError(x)\n": [],
    }
    assert {src: _optimize_sensitive(src) for src in cases} == cases


def test_named_errors_survive_optimize():
    # the argument checks that were bare asserts raise a ValueError naming
    # the input
    cm = CocycleModule(5)
    calls = [
        (lambda: factorize(0), "cannot factorize 0: need n >= 1"),
        (lambda: CycElt.one_minus_zeta(5, 10),
         "1 - zeta^10 is zero at level 5"),
        (lambda: CycElt.one(5) + CycElt.one(7), "levels 5 and 7 differ"),
        (lambda: CycElt.one(5) * CycElt.one(7), "levels 5 and 7 differ"),
        (lambda: CycElt.zeta(6).galois(3), "3 is no unit mod 6"),
        (lambda: CycElt.zeta(6).embed_into(9), "level 6 does not divide 9"),
        (lambda: mat22_inv(((2, 1), (3, 4))),
         "matrix ((2, 1), (3, 4)) has determinant 5, not 1"),
        (lambda: CocycleModule(3),
         "cocycle modules start at level 4, not 3"),
        (lambda: cm.stabilizer_matrix(2, 4),
         "cusp 2/4 is not in lowest terms"),
        (lambda: cm.element_row(((1, 0), (1, 1))),
         "matrix ((1, 0), (1, 1)) is not in Gamma0(5)")]
    for call, msg in calls:
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            call()


def test_dense_rows_stay_at_the_edges():
    # {index: value} rows are the one matrix format between modules: only
    # intlinalg and harness (cache files and present text) name dense_row,
    # and in intlinalg only the dense argument of smith_normal_form, the one
    # dense matrix made outside harness, since no elimination mod p is left
    named = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "modk2", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if any("dense_row" in {getattr(node, a, None)
                               for a in ("id", "name", "attr")}
               for node in ast.walk(tree)):
            named.append(os.path.basename(path))
    assert named == ["harness.py", "intlinalg.py"]


def test_bench_points_match_golden_digests(tmp_path, monkeypatch):
    # every benchmark grid point, run in this process at seed 0; the cache
    # points share one directory, as in a sweep, so the warm point reads
    # the files the cold points wrote
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    digests = {}
    for points in run.WORKLOADS.values():
        for point in points:
            kwargs = dict(point["kwargs"])
            if point["seeded"]:
                kwargs["seed"] = 0
            if point["cache"]:
                kwargs["cache_dir"] = str(tmp_path)
            report = run_check(point["kind"], point["M"], **kwargs)
            digests[point["id"]] = run.report_digest(report, point["seeded"])
    assert digests == golden

