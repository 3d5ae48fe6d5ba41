#!/usr/bin/env python3
"""Self-test for tools/check_bench.py against the checked-in BENCH_*.json.

Every baseline must pass, alone and against itself. Each must fail when any
one of its gates is pushed just past its bound, when a metric is not
finite, when `pass` disagrees with the gates, when a bound is loosened
against the original, and when a gate id of the original is missing.

    python3 tools/check_bench_test.py
"""

import contextlib
import copy
import glob
import io
import json
import os
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import check_bench  # noqa: E402

BASELINES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def just_past(op, bound):
    """A value that violates `op bound` by the smallest practical margin."""
    step = max(abs(bound) * 1e-9, 1e-9)
    return {">=": bound - step, ">": bound, "<=": bound + step, "<": bound,
            "==": bound + 1}[op]


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, doc, name="doc.json"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_checker(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = check_bench.main(list(argv))
        return code, out.getvalue() + err.getvalue()

    def assert_fails(self, doc, expect, against=None):
        argv = [self.write(doc)]
        if against is not None:
            argv += ["--against", self.write(against, "ref.json")]
        code, text = self.run_checker(*argv)
        self.assertNotEqual(code, 0, text)
        self.assertIn(expect, text)

    def test_baselines_are_named_after_their_bench(self):
        self.assertTrue(BASELINES)
        for path in BASELINES:
            self.assertEqual(os.path.basename(path),
                             f"BENCH_{json.load(open(path))['bench']}.json")

    def test_baselines_pass_alone_and_against_themselves(self):
        for path in BASELINES:
            with self.subTest(path=os.path.basename(path)):
                code, text = self.run_checker(path)
                self.assertEqual(code, 0, text)
                code, text = self.run_checker(path, "--against", path)
                self.assertEqual(code, 0, text)

    def test_each_gate_fails_just_past_its_bound(self):
        for path in BASELINES:
            doc = json.load(open(path))
            for gate in doc["gates"]:
                with self.subTest(path=os.path.basename(path),
                                  gate=gate["id"]):
                    bad = copy.deepcopy(doc)
                    bad["pass"] = False  # only the gate fails, not `pass`
                    bad["metrics"][gate["metric"]] = just_past(gate["op"],
                                                               gate["bound"])
                    self.assert_fails(bad, f"gate {gate['id']}:")

    def test_non_finite_metric_fails(self):
        for path in BASELINES:
            doc = json.load(open(path))
            metric = doc["gates"][0]["metric"]
            for value in (float("nan"), float("inf"), None):
                with self.subTest(path=os.path.basename(path), value=value):
                    bad = copy.deepcopy(doc)
                    bad["metrics"][metric] = value
                    self.assert_fails(bad, "not a finite number")

    def test_pass_disagreeing_with_gates_fails(self):
        for path in BASELINES:
            with self.subTest(path=os.path.basename(path)):
                bad = json.load(open(path))
                bad["pass"] = not bad["pass"]
                self.assert_fails(bad, "but the gates")
                # A violated gate under "pass": true is a lie too.
                gate = bad["gates"][0]
                bad["pass"] = True
                bad["metrics"][gate["metric"]] = just_past(gate["op"],
                                                           gate["bound"])
                self.assert_fails(bad, "but the gates do not all hold")

    def test_loosened_bound_fails_against_reference(self):
        loosen = {">=": -1, ">": -1, "<=": 1, "<": 1, "==": 1}
        for path in BASELINES:
            ref = json.load(open(path))
            for i, gate in enumerate(ref["gates"]):
                with self.subTest(path=os.path.basename(path),
                                  gate=gate["id"]):
                    doc = copy.deepcopy(ref)
                    doc["gates"][i]["bound"] += loosen[gate["op"]]
                    if gate["op"] == "==":  # keep the moved gate holding
                        doc["metrics"][gate["metric"]] = \
                            doc["gates"][i]["bound"]
                    self.assertEqual(check_bench.gate_errors(doc), [])
                    self.assert_fails(doc, "is looser than", against=ref)

    def test_changed_metric_or_op_fails_against_reference(self):
        ref = json.load(open(BASELINES[0]))
        for key, value in (("op", "!="), ("metric", "another.metric")):
            with self.subTest(key=key):
                doc = copy.deepcopy(ref)
                doc["gates"][0][key] = value
                errors = check_bench.ratchet_errors(doc, ref, "ref.json")
                self.assertIn("changed from", "\n".join(errors))

    def test_missing_gate_id_fails_against_reference(self):
        for path in BASELINES:
            ref = json.load(open(path))
            for smoke in (False, True):
                with self.subTest(path=os.path.basename(path), smoke=smoke):
                    doc = copy.deepcopy(ref)
                    doc["smoke"] = smoke
                    plain = [g for g in doc["gates"]
                             if not g["id"].startswith("full.")]
                    doc["gates"].remove(plain[0])
                    self.assert_fails(doc, f"gate {plain[0]['id']} of",
                                      against=ref)

    def test_smoke_may_lack_full_only_gates(self):
        for path in BASELINES:
            ref = json.load(open(path))
            full = [g for g in ref["gates"] if g["id"].startswith("full.")]
            if ref["smoke"] or not full:
                continue
            with self.subTest(path=os.path.basename(path)):
                doc = copy.deepcopy(ref)
                doc["gates"] = [g for g in doc["gates"] if g not in full]
                doc["smoke"] = True
                code, text = self.run_checker(
                    self.write(doc), "--against", self.write(ref, "ref.json"))
                self.assertEqual(code, 0, text)
                # ...but a full run may not.
                doc["smoke"] = False
                self.assert_fails(doc, f"gate {full[0]['id']} of", against=ref)

    def test_reference_without_gates_is_reported_and_skipped(self):
        doc = json.load(open(BASELINES[0]))
        legacy = {"schema": "pico.bench.legacy.v1", "gates": {"floor": 1}}
        code, text = self.run_checker(
            self.write(doc), "--against", self.write(legacy, "ref.json"))
        self.assertEqual(code, 0, text)
        self.assertIn("no reference gates", text)

    def test_malformed_documents_fail(self):
        doc = json.load(open(BASELINES[0]))
        self.assert_fails(dict(doc, schema="pico.bench.other.v1"), "schema")
        self.assert_fails(dict(doc, gates=doc["gates"] + doc["gates"][:1]),
                          "duplicate gate id")
        path = os.path.join(self.tmp.name, "truncated.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"bench": ')
        code, text = self.run_checker(path)
        self.assertNotEqual(code, 0)
        self.assertIn("invalid or truncated JSON", text)


if __name__ == "__main__":
    unittest.main()
