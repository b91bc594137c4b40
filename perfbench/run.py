"""modk2 benchmark driver: fresh-process sweeps over fixed verify grids.

    python3 perfbench/run.py --workload presented --seed 1 --seconds 40 --trace 0

A workload is a fixed list of `modk2.harness.run_check` calls (grid
points).  A sweep runs every point, one at a time, each in a fresh child
process (`child.py`), because users pay the module-level caches of
`modsym`, `k2model` and `places` on every `modk2 verify`.  Untraced sweeps
repeat while the next one is expected to end within `--seconds` (at
least one sweep runs); with
`--trace 1` one traced sweep follows them and the per-layer metrics come
from it.  See README.md for the workloads and what each metric predicts.

Each point's report is checked: the child must exit 0, the report must
say ok, and its digest must equal the golden digest recorded at the seed
commit (golden.json).  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a fuller record, with run
metadata and per-point times, goes to perfbench/out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")

# a run must end well inside the 180 s a caller allows it
RUN_DEADLINE_S = 170.0

A2 = {"cusps": "all", "backend": "both"}


def _point(pid, kind, M, cache=False, seeded=False, **kwargs):
    return {"id": pid, "kind": kind, "M": M, "kwargs": kwargs,
            "cache": cache, "seeded": seeded}


# Workloads and why each was chosen: README.md.
WORKLOADS = {
    "presented": [
        _point("presented/A2-4-2", "theorem1-divides", 4, cache=True, p=2, **A2),
        _point("presented/A2-8-2", "theorem1-divides", 8, cache=True, p=2, **A2),
        _point("presented/A2-9-3", "theorem1-divides", 9, cache=True, p=3, **A2),
        # warm: reads k2rows-M16 and degeneracy-M16-p2 written by A2-8-2
        _point("presented/A2-8-2-warm", "theorem1-divides", 8, cache=True,
               p=2, **A2),
    ],
    "tame": [
        _point("tame/sanity-29", "sanity-integrality", 29),
        _point("tame/sanity-31", "sanity-integrality", 31),
        _point("tame/divides-9-3", "theorem1-divides", 9, p=3, cusps="all",
               backend="tame"),
    ],
    "solver": [
        _point("solver/coprime-13-3", "theorem1-coprime", 13, p=3),
        _point("solver/eisenstein-37-2", "eisenstein", 37, ell=2),
        _point("solver/prop31-30", "prop31", 30),
        _point("solver/lemma41-6-5", "lemma41", 6, seeded=True, p=5,
               trials=2000),
        # the one grid point that reaches intlinalg.rank_mod_p
        _point("solver/sanity-11-3", "sanity-integrality", 11, p=3),
    ],
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ----- correctness -----


def report_digest(report, seeded=False):
    """Canonical hash of the parts of a report that must not change.

    Covers kind, level, params, checks and counts; leaves out the timing
    fields and any other top-level key.  For a seeded point the seed
    parameter is blanked, so one golden digest serves every workload seed.
    """
    body = {k: report[k] for k in ("kind", "level", "params", "checks", "counts")}
    if seeded:
        body["params"] = dict(body["params"], seed=None)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(point, returncode, result, golden, seed):
    """Why a point failed, or None when it passed."""
    if returncode != 0:
        return "child exited with code %s" % returncode
    if result is None:
        return "child printed no result"
    report = result.get("report")
    if not isinstance(report, dict) or report.get("ok") is not True:
        return "report not ok"
    if point["seeded"] and report["params"].get("seed") != seed:
        return "report seed %r, expected %r" % (report["params"].get("seed"), seed)
    if golden is None:      # recording the golden digests
        return None
    want = golden.get(point["id"])
    if want is None:
        return "no golden digest"
    if report_digest(report, point["seeded"]) != want:
        return "report digest differs from golden"
    return None


# ----- running points -----


def run_child(payload, deadline):
    """Run child.py on one payload: (returncode, result, wall, cpu, setup)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(payload)],
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", None, time.perf_counter() - t0, 0.0, None
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = None
    lines = out.decode(errors="replace").strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    setup = result["t_ready"] - t0 if result and "t_ready" in result else None
    return proc.returncode, result, wall, cpu, setup


def run_sweep(points, seed, golden, deadline, trace=False, spans_path=None):
    """Run every point once, in order, each in a fresh child."""
    cache_dir = None
    if any(p["cache"] for p in points):
        cache_dir = os.path.join(OUT, "cache-%d-%d" % (os.getpid(), time.time_ns()))
        os.makedirs(cache_dir)
    rows = []
    try:
        for point in points:
            payload = {"id": point["id"], "kind": point["kind"], "M": point["M"],
                       "kwargs": dict(point["kwargs"]), "trace": trace,
                       "spans_path": spans_path}
            if point["seeded"]:
                payload["kwargs"]["seed"] = seed
            if point["cache"]:
                payload["cache_dir"] = cache_dir
            code, result, wall, cpu, setup = run_child(payload, deadline)
            reason = judge(point, code, result, golden, seed)
            result = result or {}
            rows.append({"id": point["id"], "wall_s": wall, "cpu_s": cpu,
                         "setup_s": setup, "maxrss_kb": result.get("maxrss_kb"),
                         "failed": reason,
                         "digest": None if reason else
                         report_digest(result["report"], point["seeded"]),
                         "layers": result.get("layers"),
                         "missing_targets": result.get("missing_targets")})
            if code == "timeout":
                break
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return rows


def sweep_totals(rows):
    return {
        "wall_s": sum(r["wall_s"] for r in rows),
        "cpu_s": sum(r["cpu_s"] for r in rows),
        "peak_rss_mb": max((r["maxrss_kb"] or 0) for r in rows) / 1024.0,
        "setup_s": sum(r["setup_s"] or 0.0 for r in rows),
    }


def spread(values):
    """(median, first quartile, third quartile) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


# ----- run metadata -----


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def src_lines():
    per = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            per[os.path.relpath(path, SRC)] = sum(1 for _ in fh)
    return sum(per.values()), per


def source_hash():
    """Hash of the program and the tracer, which together fix the counts."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    paths += [os.path.join(HERE, "layertrace.py"), os.path.join(HERE, "run.py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_counts_repeat(workload, counts):
    """Compare exact counts with the last traced run of the same code.

    Returns the names that differ (empty on the first run of this code).
    """
    path = os.path.join(OUT, "counts-%s-%s.json" % (workload, source_hash()))
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return sorted(k for k in counts if before.get(k) != counts[k])
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


# ----- entry points -----


def warm_up(deadline):
    """Import modk2 once in a child: checks the tree and compiles bytecode."""
    code, _, _, _, _ = run_child({"warmup": True}, deadline)
    return code == 0


def measure(workload, seed, seconds, trace):
    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "modk2")):
        sys.stderr.write("no modk2 source tree at %s\n" % SRC)
        return 2
    if not os.path.exists(GOLDEN):
        sys.stderr.write("missing %s\n" % GOLDEN)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    points = WORKLOADS[workload]
    missing = [p["id"] for p in points if p["id"] not in golden]
    if missing:
        sys.stderr.write("no golden digest for %s\n" % ", ".join(missing))
        return 2
    os.makedirs(OUT, exist_ok=True)
    load_start = os.getloadavg()
    if not warm_up(deadline):
        sys.stderr.write("modk2 does not import from %s\n" % SRC)
        return 2

    # start another sweep only while it is expected to end within --seconds
    sweeps = []
    measured = 0.0
    while True:
        rows = run_sweep(points, seed, golden, deadline)
        sweeps.append(rows)
        measured += sum(r["wall_s"] for r in rows)
        mean = measured / len(sweeps)
        if measured + mean > seconds or time.perf_counter() + 3 * mean > deadline:
            break
    traced = None
    spans_path = None
    if trace:
        spans_path = os.path.join(OUT, "spans-%s-seed%d-%d.jsonl"
                                  % (workload, seed, os.getpid()))
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = run_sweep(points, seed, golden, deadline, trace=True,
                           spans_path=spans_path)

    all_rows = [r for rows in sweeps for r in rows] + (traced or [])
    attempted = len(all_rows)
    failures = [(r["id"], r["failed"]) for r in all_rows if r["failed"]]
    complete = all(len(rows) == len(points) for rows in sweeps)
    if traced is not None:
        complete = complete and len(traced) == len(points)

    totals = [sweep_totals(rows) for rows in sweeps]
    e2e = {}
    for name in END_TO_END:
        e2e[name] = spread([t[name] for t in totals])

    per_layer = {}
    problems = []
    if traced is not None:
        layers = dict.fromkeys(layertrace.METRIC_NAMES, 0)
        for r in traced:
            if r["layers"]:
                layertrace.merge(layers, r["layers"])
        counts = {k: layers[k] for k in layertrace.EXACT_COUNTS}
        differ = check_counts_repeat(workload, counts)
        if differ:
            problems.append("exact counts changed between traced runs: "
                            + ", ".join(differ))
        traced_wall = sum(r["wall_s"] for r in traced)
        for key in sorted(layers):
            per_layer[key] = layers[key]
        per_layer["trace.traced_wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        missing_targets = sorted({m for r in traced for m in (r["missing_targets"] or [])})
        if missing_targets:
            problems.append("trace targets not found: " + ", ".join(missing_targets))

    total_lines, per_module = src_lines()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "src_lines": total_lines, "src_lines_per_module": per_module,
        "sweeps": len(sweeps),
        "end_to_end": {k: {"median": m, "q1": a, "q3": b, "unit": END_TO_END[k]}
                       for k, (m, a, b) in e2e.items()},
        "failed_ratio": len(failures) / attempted,
        "failures": failures, "problems": problems,
        "points": [{k: r[k] for k in ("id", "wall_s", "cpu_s", "setup_s",
                                      "maxrss_kb", "failed")}
                   for r in all_rows],
        "per_layer": per_layer, "spans_file": spans_path,
    }
    record_path = os.path.join(OUT, "run-%s-seed%d-trace%d-%d.json"
                               % (workload, seed, trace, os.getpid()))
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, (med, q1, q3) in e2e.items():
        print("%-12s %12.4f %-3s median of %d sweeps, quartiles %.4f..%.4f"
              % (name, med, END_TO_END[name], len(sweeps), q1, q3))
    print("failed_ratio %12.4f    %d of %d points" % (
        record["failed_ratio"], len(failures), attempted))
    for pid, why in failures:
        print("FAILED %s: %s" % (pid, why))
    for msg in problems:
        print("PROBLEM " + msg)
    print("record: " + os.path.relpath(record_path, ROOT))

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not failures and not problems and complete,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _unit(name):
    return "s" if name.endswith("_s") else "count"


def record_golden():
    """Write golden.json: one report digest per grid point, seed 0."""
    golden = {}
    os.makedirs(OUT, exist_ok=True)
    for points in WORKLOADS.values():
        for row in run_sweep(points, 0, None, time.perf_counter() + 3600):
            if row["failed"]:
                sys.stderr.write("%s: %s; no golden written\n" % (row["id"], row["failed"]))
                return 1
            golden[row["id"]] = row["digest"]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(golden), os.path.relpath(GOLDEN, ROOT)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record golden.json from the current tree")
    args = parser.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
