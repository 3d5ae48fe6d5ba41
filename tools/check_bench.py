#!/usr/bin/env python3
"""Generic checker for the gated bench reports (``BENCH_*.json``).

Every gated bench writes one envelope (``bench/bench_report.hpp``): ``bench``,
``schema`` (pico.bench.report.v1), ``smoke``, ``pass``, ``metrics`` (flat
name -> finite number), ``gates`` (``[{id, metric, op, bound}]``) and
``detail`` (the bench's own payload). For each FILE this checks the shape,
that every gated metric is present and finite, each gate recomputed as
``op(metric, bound)``, and that ``pass`` equals "all gates hold".

With ``--against REF`` it also ratchets: a gate whose bound is looser than
the same id in REF, or whose metric or op changed, fails, and so does a REF
gate id that is missing. A smoke FILE checked against a full REF may lack
REF's full-only gates, whose ids start with ``full.``. A REF without a
``gates`` array predates the envelope and is reported as "no reference
gates". Exit status is non-zero if any FILE fails:

    python3 tools/check_bench.py BENCH_*.json
    python3 tools/check_bench.py bench-overhead-smoke.json \\
        --against BENCH_overhead.json
"""

import argparse
import json
import math
import operator
import sys

SCHEMA = "pico.bench.report.v1"
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt, "==": operator.eq}
FULL_ONLY = "full."


def is_finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def load(path):
    """Parse a report, or raise ValueError with a one-line reason."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ValueError(f"unreadable: {e}")
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid or truncated JSON ({e}) - regenerate it "
                         f"with the matching bench under build/bench/")
    if not isinstance(doc, dict):
        raise ValueError(f"top-level JSON is {type(doc).__name__}, "
                         f"expected an object")
    return doc


def shape_errors(doc):
    errors = []
    for key, kind in (("bench", str), ("smoke", bool), ("pass", bool),
                      ("metrics", dict), ("gates", list), ("detail", dict)):
        if not isinstance(doc.get(key), kind):
            errors.append(f"{key!r} missing or not a {kind.__name__}")
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema {doc.get('schema')!r} != {SCHEMA!r}")
    if errors:
        return errors
    for name, value in doc["metrics"].items():
        if not is_finite_number(value):
            errors.append(f"metric {name} = {value!r} is not a finite number")
    seen = set()
    for i, g in enumerate(doc["gates"]):
        if not isinstance(g, dict) or not isinstance(g.get("id"), str) \
                or not isinstance(g.get("metric"), str) \
                or g.get("op") not in OPS \
                or not is_finite_number(g.get("bound")):
            errors.append(f"gate {i} is malformed: {g!r}")
        elif g["id"] in seen:
            errors.append(f"duplicate gate id {g['id']}")
        else:
            seen.add(g["id"])
    return errors


def gate_errors(doc):
    """Re-evaluate every gate of a well-shaped document (finite metrics)."""
    errors = []
    for g in doc["gates"]:
        value = doc["metrics"].get(g["metric"])
        if value is None:
            errors.append(f"gate {g['id']}: metric {g['metric']} missing")
        elif not OPS[g["op"]](value, g["bound"]):
            errors.append(f"gate {g['id']}: {g['metric']} = {value!r}, "
                          f"want {g['op']} {g['bound']!r}")
    all_hold = not errors
    if doc["pass"] != all_hold:
        errors.append(f"pass is {doc['pass']} but the gates "
                      f"{'all hold' if all_hold else 'do not all hold'}")
    return errors


def loosened(gate, ref):
    """Why `gate` is weaker than the same id in REF, or None."""
    if gate["metric"] != ref["metric"] or gate["op"] != ref["op"]:
        return (f"changed from {ref['metric']} {ref['op']} to "
                f"{gate['metric']} {gate['op']}")
    bound, ref_bound = gate["bound"], ref["bound"]
    if (gate["op"] in (">=", ">") and bound < ref_bound) or \
            (gate["op"] in ("<=", "<") and bound > ref_bound) or \
            (gate["op"] == "==" and bound != ref_bound):
        return f"bound {bound!r} is looser than {ref_bound!r}"
    return None


def ratchet_errors(doc, ref, ref_path):
    if not isinstance(ref.get("gates"), list):
        print(f"{ref_path}: no reference gates, ratchet skipped")
        return []
    if shape_errors(ref):
        return [f"reference {ref_path} is malformed"]
    if ref["bench"] != doc["bench"]:
        return [f"reference {ref_path} is bench {ref['bench']!r}, "
                f"not {doc['bench']!r}"]
    mine = {g["id"]: g for g in doc["gates"]}
    errors = []
    for r in ref["gates"]:
        g = mine.get(r["id"])
        if g is None:
            if not (doc["smoke"] and not ref["smoke"]
                    and r["id"].startswith(FULL_ONLY)):
                errors.append(f"gate {r['id']} of {ref_path} is missing")
        elif why := loosened(g, r):
            errors.append(f"gate {r['id']}: {why} in {ref_path}")
    return errors


def check(path, ref, ref_path):
    try:
        doc = load(path)
    except ValueError as e:
        errors = [str(e)]
    else:
        errors = shape_errors(doc)
        if not errors:
            errors = gate_errors(doc)
            if ref is not None:
                errors += ratchet_errors(doc, ref, ref_path)
    for e in errors:
        print(f"{path}: FAIL: {e}", file=sys.stderr)
    if not errors:
        ratchet = ref is not None and isinstance(ref.get("gates"), list)
        print(f"{path}: ok ({doc['bench']}, {len(doc['gates'])} gates hold"
              f"{', ratchet vs ' + ref_path if ratchet else ''})")
    return not errors


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--against", metavar="REF",
                        help="fail on gates loosened or dropped vs REF")
    args = parser.parse_args(argv)
    ref = None
    if args.against:
        try:
            ref = load(args.against)
        except ValueError as e:
            print(f"{args.against}: FAIL: {e}", file=sys.stderr)
            return 1
    results = [check(path, ref, args.against) for path in args.files]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
