#!/usr/bin/env python3
"""Schema checker for the facility's telemetry export formats.

Validates, with no third-party dependencies:

* Prometheus text exposition files (``--prom``): every sample belongs to a
  family announced by ``# HELP`` / ``# TYPE`` lines, histogram series carry
  monotone cumulative buckets ending in ``le="+Inf"`` whose count equals the
  ``_count`` sample, and (optionally) at least ``--min-families`` distinct
  families are present.

* Chrome trace_event JSON files (``--trace``): the document is an object with
  a ``traceEvents`` array, complete ("X") events carry numeric ``ts``/``dur``
  and span identity in ``args``, every non-zero ``parent_id`` resolves to a
  recorded span, the parent interval encloses the child (within 1 us of
  rounding slack), and (optionally) the span tree reaches ``--require-depth``
  levels — e.g. 4 proves campaign -> run -> step -> provider-attempt nesting.

Exit status is non-zero on the first file that fails, so CI can gate on it:

    python3 tools/check_telemetry.py --prom BENCH_dataplane.prom
    python3 tools/check_telemetry.py --trace chaos-output/trace.json \
        --require-depth 4 --prom chaos-output/metrics.prom --min-families 12

Bench baselines (``BENCH_*.json``) are checked by tools/check_bench.py.
"""

import argparse
import json
import math
import re
import sys

# Label values are quoted strings with backslash escapes, so `,` / `}` / `"`
# may appear *inside* a value: the sample body and the per-label scanner both
# have to consume quoted runs atomically rather than split on delimiters.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?\s+(?P<value>\S+)$'
)
LABEL_ITEM_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
    r"\s*(?:,|$)"
)
LABEL_ESCAPE_RE = re.compile(r'\\(.)')


def unescape_label(value):
    """Decode the exposition-format escapes (\\\\, \\", \\n). Any other
    escaped character is invalid; the caller pre-validates with
    LABEL_ITEM_RE so only well-formed pairs reach here."""
    return LABEL_ESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def parse_labels(labels_text):
    """Split a label body into a dict, or return None if malformed."""
    labels = {}
    pos = 0
    while pos < len(labels_text):
        m = LABEL_ITEM_RE.match(labels_text, pos)
        if not m:
            return None
        for esc in re.finditer(r'\\(.)', m.group("value")):
            if esc.group(1) not in ('\\', '"', 'n'):
                return None
        labels[m.group("key")] = unescape_label(m.group("value"))
        pos = m.end()
    return labels


def fail(path, message):
    print(f"{path}: FAIL: {message}", file=sys.stderr)
    return False


def load_bench_doc(path):
    """Load a JSON baseline and require a top-level object.

    A missing file, truncated/invalid JSON, or a document whose top level is
    not an object (e.g. a partial write that parses as ``null``) each used to
    escape the checkers as a raw traceback; all three are now a one-line
    actionable failure. Returns the parsed dict, or None after reporting.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(path, f"unreadable: {e} — regenerate the baseline with the "
                   f"matching bench binary under build/bench/")
        return None
    except json.JSONDecodeError as e:
        fail(path, f"invalid or truncated JSON ({e}) — regenerate the "
                   f"baseline with the matching bench binary")
        return None
    if not isinstance(doc, dict):
        fail(path, f"top-level JSON is {type(doc).__name__}, expected an "
                   f"object — the baseline is corrupt; regenerate it")
        return None
    return doc


def base_family(name, families):
    """Resolve a sample name to its announced family (histograms emit
    ``<family>_bucket``/``_sum``/``_count`` samples)."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return None


def check_prom(path, min_families):
    families = {}  # name -> type
    # (family, frozen labels minus 'le') -> list of (le, cumulative count)
    buckets = {}
    counts = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        return fail(path, f"unreadable: {e}")

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                return fail(path, f"line {lineno}: malformed TYPE: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            return fail(path, f"line {lineno}: unknown comment: {line!r}")

        m = SAMPLE_RE.match(line)
        if not m:
            return fail(path, f"line {lineno}: malformed sample: {line!r}")
        name, labels_text, value = m.group("name", "labels", "value")
        family = base_family(name, families)
        if family is None:
            return fail(path, f"line {lineno}: sample {name!r} has no TYPE")
        labels = parse_labels(labels_text) if labels_text else {}
        if labels is None:
            return fail(path, f"line {lineno}: bad labels {labels_text!r}")
        try:
            numeric = float(value)
        except ValueError:
            if value not in ("+Inf", "-Inf", "NaN"):
                return fail(path, f"line {lineno}: bad value {value!r}")
            numeric = float(value.replace("Inf", "inf"))
        if families[family] in ("counter", "histogram") and numeric < 0:
            return fail(path, f"line {lineno}: negative {families[family]}")

        if families[family] == "histogram":
            series = frozenset(
                (k, v) for k, v in labels.items() if k != "le")
            if name.endswith("_bucket"):
                if "le" not in labels:
                    return fail(path, f"line {lineno}: bucket without le")
                le = float(labels["le"].replace("+Inf", "inf"))
                buckets.setdefault((family, series), []).append((le, numeric))
            elif name.endswith("_count"):
                counts[(family, series)] = numeric

    for (family, series), bs in buckets.items():
        for (le_a, n_a), (le_b, n_b) in zip(bs, bs[1:]):
            if le_b <= le_a:
                return fail(path, f"{family}: buckets not sorted by le")
            if n_b < n_a:
                return fail(path, f"{family}: cumulative counts decrease")
        if not math.isinf(bs[-1][0]):
            return fail(path, f"{family}: missing le=\"+Inf\" bucket")
        if (family, series) in counts and bs[-1][1] != counts[(family,
                                                               series)]:
            return fail(path, f"{family}: +Inf bucket != _count")

    if len(families) < min_families:
        return fail(path,
                    f"{len(families)} families < required {min_families}")
    print(f"{path}: ok ({len(families)} families, "
          f"{len(buckets)} histogram series)")
    return True


def check_trace(path, require_depth):
    doc = load_bench_doc(path)
    if doc is None:
        return False
    if not isinstance(doc.get("traceEvents"), list):
        return fail(path, "missing traceEvents array")

    spans = {}  # span_id -> (ts, dur, parent_id, name)
    instants = 0
    for i, ev in enumerate(doc["traceEvents"]):
        ph = ev.get("ph")
        if ph not in ("M", "X", "i"):
            return fail(path, f"event {i}: unknown phase {ph!r}")
        if ph == "M":
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in ev:
                return fail(path, f"event {i}: missing {key!r}")
        if not isinstance(ev["ts"], (int, float)):
            return fail(path, f"event {i}: non-numeric ts")
        if ph == "i":
            instants += 1
            continue
        if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
            return fail(path, f"event {i}: X event needs dur >= 0")
        args = ev.get("args")
        if not isinstance(args, dict):
            return fail(path, f"event {i}: X event needs args")
        for key in ("trace_id", "span_id", "parent_id"):
            if not isinstance(args.get(key), int):
                return fail(path, f"event {i}: args.{key} must be an int")
        if args["span_id"] != 0:
            spans[args["span_id"]] = (ev["ts"], ev["dur"], args["parent_id"],
                                      ev["name"])

    depth = 0
    for sid, (ts, dur, parent, name) in spans.items():
        level, cursor = 1, parent
        while cursor:
            if cursor not in spans:
                return fail(path,
                            f"span {sid} ({name}): dangling parent {cursor}")
            pts, pdur, cursor, _ = spans[cursor]
            level += 1
            if level > len(spans):
                return fail(path, f"span {sid}: parent cycle")
        pts, pdur, _, pname = spans[parent] if parent else (None, None, None,
                                                            None)
        if parent and (ts < pts - 1 or ts + dur > pts + pdur + 1):
            return fail(path, f"span {sid} ({name}) escapes parent {pname}")
        depth = max(depth, level)

    if depth < require_depth:
        return fail(path, f"span tree depth {depth} < required "
                          f"{require_depth}")
    print(f"{path}: ok ({len(spans)} spans, depth {depth}, "
          f"{instants} instant events)")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prom", action="append", default=[],
                        help="Prometheus text file to validate (repeatable)")
    parser.add_argument("--min-families", type=int, default=1,
                        help="minimum distinct metric families per prom file")
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace_event JSON to validate "
                             "(repeatable)")
    parser.add_argument("--require-depth", type=int, default=1,
                        help="minimum span-tree depth per trace file")
    args = parser.parse_args()
    if not args.prom and not args.trace:
        parser.error("nothing to check: pass --prom and/or --trace")

    ok = True
    for path in args.prom:
        ok = check_prom(path, args.min_families) and ok
    for path in args.trace:
        ok = check_trace(path, args.require_depth) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
