import ast
import glob
import os
import subprocess
import sys

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
    # code that only tests call belongs in tests/: every function and
    # method defined in src/modk2 is named somewhere in src/modk2 besides
    # its own def (dunders and trace targets exempt)
    defined = set()
    used = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "modk2", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = _trace_target_names()
    unused = sorted(n for n in defined - used - exempt
                    if not (n.startswith("__") and n.endswith("__")))
    assert unused == []
