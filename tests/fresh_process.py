"""Run a snippet in a fresh interpreter that imports modk2 from src/.

Checks that must hold under python -O run there, since the test process
itself keeps its assert statements; a fresh process also starts with
empty module-level caches and an empty sys.modules.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_python(code, *args, optimize=True, timeout=None):
    """stdout of `python [-O] -c code args...` with src/ on PYTHONPATH;
    a nonzero exit raises CalledProcessError."""
    flags = ["-O"] if optimize else []
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *flags, "-c", code, *args],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=timeout).stdout
