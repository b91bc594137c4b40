"""Checks of the benchmark itself: span arithmetic and failure detection.

Run: python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layertrace  # noqa: E402
import run  # noqa: E402

CHEAP = next(p for p in run.WORKLOADS["presented"] if p["id"] == "presented/A2-4-2")


def _golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


def _child(point, trace=False):
    payload = {"id": point["id"], "kind": point["kind"], "M": point["M"],
               "kwargs": dict(point["kwargs"]), "trace": trace}
    return run.run_child(payload, deadline=run.time.perf_counter() + 120)


class SelfTimeTest(unittest.TestCase):

    def test_nested_tree(self):
        spans = [
            ("k2model.root", 0.0, 10.0, -1),
            ("intlinalg.a", 1.0, 4.0, 0),
            ("intlinalg.b", 3.0, 6.0, 0),    # overlaps a: union is 1..6
            ("cyclo.c", 2.0, 3.0, 1),
            ("places.d", 9.0, 12.0, 0),      # runs past its parent: clipped
        ]
        self.assertEqual(layertrace.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_summary_counts_outermost_and_self(self):
        spans = [
            ("harness.run_check", 0.0, 10.0, -1),
            ("intlinalg.smith_normal_form", 1.0, 5.0, 0),
            ("intlinalg.smith_normal_form", 2.0, 3.0, 1),   # nested: not added
            ("modsym.ManinPresentation.__init__", 6.0, 8.0, 0),
            ("perfbench.count", 8.0, 9.0, 0),
        ]
        m = layertrace.summarize(spans, {})
        self.assertEqual(m["intlinalg.snf_s"], 4.0)
        self.assertEqual(m["intlinalg.snf_calls"], 2)
        self.assertEqual(m["modsym.build_s"], 2.0)
        self.assertEqual(m["modsym.self_s"], 2.0)
        # 10 s minus snf (4 s), build (2 s) and the tracer's own count (1 s)
        self.assertEqual(m["harness.self_s"], 3.0)
        self.assertEqual(m["harness.run_check_s"], 10.0)


class FailureDetectionTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.golden = _golden()
        code, result, _, _, _ = _child(CHEAP)
        assert code == 0, code
        cls.result = result

    def test_clean_report_passes(self):
        self.assertIsNone(run.judge(CHEAP, 0, self.result, self.golden, 0))

    def test_tampered_dlog_fails(self):
        bad = copy.deepcopy(self.result)
        entry = next(c["tame"]["places"][0] for c in bad["report"]["checks"]
                     if "tame" in c)
        entry["dlog"] += 1
        self.assertIn("digest", run.judge(CHEAP, 0, bad, self.golden, 0))

    def test_report_not_ok_fails(self):
        bad = copy.deepcopy(self.result)
        bad["report"]["ok"] = False
        self.assertEqual(run.judge(CHEAP, 0, bad, self.golden, 0), "report not ok")

    def test_added_key_and_timing_ignored(self):
        extra = copy.deepcopy(self.result)
        extra["report"]["stages"] = [{"name": "k2-quotient"}]
        extra["report"]["elapsed_ms"] += 1000
        self.assertIsNone(run.judge(CHEAP, 0, extra, self.golden, 0))

    def test_nonzero_exit_fails(self):
        bad_point = dict(CHEAP, kind="no-such-kind")
        rows = run.run_sweep([bad_point], 0, self.golden,
                             deadline=run.time.perf_counter() + 60)
        self.assertEqual(len(rows), 1)
        self.assertTrue(rows[0]["failed"].startswith("child exited with code"))

    def test_seeded_point_checks_seed(self):
        point = dict(CHEAP, seeded=True)
        golden = {CHEAP["id"]: run.report_digest(self.result["report"], True)}
        self.assertIsNone(run.judge(point, 0, self.result, golden, 0))
        self.assertIn("seed", run.judge(point, 0, self.result, golden, 7))


class TracedChildTest(unittest.TestCase):

    def test_changed_counts_are_reported(self):
        os.makedirs(run.OUT, exist_ok=True)
        saved = run.OUT
        with tempfile.TemporaryDirectory(dir=saved) as tmp:
            run.OUT = tmp
            try:
                self.assertEqual(run.check_counts_repeat("w", {"a": 1, "b": 2}), [])
                self.assertEqual(run.check_counts_repeat("w", {"a": 1, "b": 2}), [])
                self.assertEqual(run.check_counts_repeat("w", {"a": 1, "b": 3}), ["b"])
            finally:
                run.OUT = saved

    def test_counts_repeat_between_traced_runs(self):
        runs = []
        for _ in range(2):
            code, result, _, _, _ = _child(CHEAP, trace=True)
            self.assertEqual(code, 0)
            self.assertEqual(result["missing_targets"], [])
            runs.append({k: result["layers"][k] for k in layertrace.EXACT_COUNTS})
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0]["intlinalg.snf_calls"], 0)
        self.assertGreater(runs[0]["places.dlog_calls"], 0)
        self.assertGreater(runs[0]["k2model.presented_rows"], 0)


if __name__ == "__main__":
    unittest.main()
