"""Run a snippet in a fresh interpreter that imports modk2 from src/.

A fresh process starts with empty module-level caches and an empty
sys.modules, and its resource limits bind only itself: the tests that
count what a run loads or builds, or that tamper with a cached object or
risk a runaway build, run there.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_python(code, timeout=None):
    """stdout of `python -c code` with src/ on PYTHONPATH; a nonzero exit
    raises CalledProcessError."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=timeout).stdout
