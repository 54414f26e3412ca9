#!/usr/bin/env python3
"""Benchmark of the STRUDEL site-management pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the probe
(perfbench/probe.ml) and the libraries it links with dune, then runs it
once: the probe keeps the workload's site up to date under seeded source
edits, timing the delta publish of `strudel watch` against the full
re-query path (see the comment at the top of probe.ml), checks every
publish against the other and against a cold build, and reports.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json; with --trace 1 they are its
per_layer metrics, taken from the reports each layer returns.

Exits 1 without a result when the checkout holds no STRUDEL sources,
the build fails, or the probe fails or overruns its time limit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_TARGET = "./perfbench/probe.exe"
PROBE_EXE = os.path.join("_build", "default", "perfbench", "probe.exe")
BUILD_TIMEOUT_S = 700
PROBE_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("no STRUDEL source tree here (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             PROBE_TARGET],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build failed")


def probe(args):
    try:
        done = subprocess.run(
            [
                PROBE_EXE,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("probe overran %d s" % PROBE_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("probe exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("probe printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("probe printed no JSON result")


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys")
    if set(result["metrics"]) != set(expected):
        fail("metrics %s, expected %s"
             % (sorted(result["metrics"]), sorted(expected)))
    for name, m in result["metrics"].items():
        if m.get("unit") != expected[name]:
            fail("metric %s has unit %r" % (name, m.get("unit")))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)
    if result["attempted"] < 1:
        fail("nothing attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        fail("cannot read BENCHMARK.json")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    layer = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}
    build()
    result = probe(args)
    check(result, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
