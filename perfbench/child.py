"""Run one benchmark grid point in this (fresh) process.

Usage: python3 perfbench/child.py '<point json>'

The point names a `modk2.harness.run_check` call.  The child imports
modk2 from the `src/` tree next to this directory, optionally installs
the tracer, calls `run_check` once and prints one JSON line to stdout:
the clock reading just before the call (`t_ready`, on the same monotonic
clock the parent reads), its own peak RSS, the report, and, when traced,
the per-layer metrics of the call.  A bad point or a crash exits non-zero.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    point = json.loads(argv[1])
    sys.path.insert(0, SRC)
    from modk2 import harness
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        sys.stderr.write("modk2 imported from %s, not from %s\n"
                         % (harness.__file__, SRC))
        return 2
    if point.get("warmup"):
        return 0
    tracer = None
    if point.get("trace"):
        from layertrace import Tracer
        tracer = Tracer().install()
    kwargs = dict(point["kwargs"])
    if point.get("cache_dir"):
        kwargs["cache_dir"] = point["cache_dir"]
    t_ready = time.perf_counter()
    report = harness.run_check(point["kind"], point["M"], **kwargs)
    out = {"t_ready": t_ready,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "report": report}
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["missing_targets"] = tracer.missing
        if point.get("spans_path"):
            tracer.write_spans(point["spans_path"], point["id"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
