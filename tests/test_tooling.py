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
