import ast
import glob
import json
import os
import subprocess
import sys

from fresh_process import run_python
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
    # read, not imported: the names layertrace.TARGETS wraps by attribute
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            targets = ast.literal_eval(node.value)
    return {q.split(".")[-1] for names in targets.values() for q in names}


def test_src_names_have_src_callers():
    # code that only tests call belongs in tests/: every function, method
    # and module-level constant defined in src/modk2 is named somewhere in
    # src/modk2 besides its own definition (dunders and trace targets
    # exempt)
    defined = set()
    used = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "modk2", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = _trace_target_names()
    unused = sorted(n for n in defined - used - exempt
                    if not (n.startswith("__") and n.endswith("__")))
    assert unused == []


def test_bare_asserts_do_not_grow():
    # python -O drops assert statements, so an identity that decides a
    # verdict or an argument check raises a named error instead; none is
    # left, and none may come back
    count = 0
    for path in glob.glob(os.path.join(ROOT, "src", "modk2", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        count += sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
    assert count == 0


def test_named_errors_survive_optimize():
    # the argument checks that were bare asserts raise a ValueError naming
    # the input, also under python -O
    code = ("from modk2.arith import factorize\n"
            "from modk2.cyclo import CycElt\n"
            "from modk2.gamma0pres import CocycleModule, mat22_inv\n"
            "cm = CocycleModule(5)\n"
            "calls = [\n"
            "    ('factorize', lambda: factorize(0)),\n"
            "    ('one_minus_zeta', lambda: CycElt.one_minus_zeta(5, 10)),\n"
            "    ('add', lambda: CycElt.one(5) + CycElt.one(7)),\n"
            "    ('mul', lambda: CycElt.one(5) * CycElt.one(7)),\n"
            "    ('galois', lambda: CycElt.zeta(6).galois(3)),\n"
            "    ('embed', lambda: CycElt.zeta(6).embed_into(9)),\n"
            "    ('inv', lambda: mat22_inv(((2, 1), (3, 4)))),\n"
            "    ('level', lambda: CocycleModule(3)),\n"
            "    ('cusp', lambda: cm.stabilizer_matrix(2, 4)),\n"
            "    ('gamma0', lambda: cm.element_row(((1, 0), (1, 1))))]\n"
            "for name, call in calls:\n"
            "    try:\n"
            "        call()\n"
            "        print(name, 'accepted')\n"
            "    except ValueError as err:\n"
            "        print(name, 'rejected:', err)\n")
    assert run_python(code).splitlines() == [
        "factorize rejected: cannot factorize 0: need n >= 1",
        "one_minus_zeta rejected: 1 - zeta^10 is zero at level 5",
        "add rejected: levels 5 and 7 differ",
        "mul rejected: levels 5 and 7 differ",
        "galois rejected: 3 is no unit mod 6",
        "embed rejected: level 6 does not divide 9",
        "inv rejected: matrix ((2, 1), (3, 4)) has determinant 5, not 1",
        "level rejected: cocycle modules start at level 4, not 3",
        "cusp rejected: cusp 2/4 is not in lowest terms",
        "gamma0 rejected: matrix ((1, 0), (1, 1)) is not in Gamma0(5)"]


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

