#!/usr/bin/env python3
"""Build and run the Real-Facility benchmark.

    python3 perfbench/run.py --workload hyper_real --seed 7 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (which builds the PicoFlow
libraries from src/) into .bench_build/perfbench, then runs one workload. The
last line of stdout is the JSON result; its metric names are checked against
BENCHMARK.json. Exits non-zero, without a result, when the sources are
missing or the build fails, and non-zero when an output check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PicoFlow sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    build()
    try:
        proc = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = list(result["metrics"].keys())
    if sorted(want) != sorted(got):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))), 4)


if __name__ == "__main__":
    main(sys.argv[1:])
