#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is what run.py's SPEC generates and is well
formed, then runs every workload at tiny size, untraced and traced, and
checks that each run passes its correctness gate and reports exactly the
metrics BENCHMARK.json names, each with its unit and a finite value, and
that the traced run writes a Chrome trace-event file.  Exits 1 on the first
failed check.
"""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def load_spec_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_spec(spec):
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not NAME.fullmatch(name):
                fail("bad %s name %r" % (section, name))
            if name in names:
                fail("name %r used twice" % name)
            names.add(name)
            if section == "workloads":
                if len(entry["why"]) > 200 or "\n" in entry["why"]:
                    fail("workload %s: why must be one line <= 200" % name)
                continue
            if not UNIT.fullmatch(entry["unit"]):
                fail("metric %s: bad unit %r" % (name, entry["unit"]))
            if entry["better"] not in ("lower", "higher"):
                fail("metric %s: better must be lower or higher" % name)
            if section == "end_to_end" and not 0 < entry["bound"] <= 0.25:
                fail("metric %s: bound must be in (0, 0.25]" % name)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end needs setup_s in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s trace=%d exited %d" % (workload, trace, done.returncode))
    return json.loads(lines[-1])


def check_result(workload, trace, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: correctness gate failed" % (workload, trace))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted must be a whole number >= 1" % workload)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s trace=%d: metrics differ from BENCHMARK.json: missing %s, "
             "extra %s" % (workload, trace,
                           sorted(set(expected) - set(metrics)),
                           sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            fail("%s: %s has unit %r, expected %r" %
                 (workload, name, metrics[name]["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number" % (workload, name))
        if trace == 0 and value == 0:
            fail("%s: end-to-end metric %s is 0" % (workload, name))


def check_trace_file(workload):
    path = ROOT / ".bench_build" / "traces" / ("%s-seed1.json" % workload)
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("%s: trace file has no spans" % workload)
    for e in spans:
        if not {"name", "cat", "ts", "dur", "args"} <= set(e):
            fail("%s: malformed trace event %s" % (workload, e))
    layers = {e["cat"] for e in spans}
    if not {"net", "mcast", "harness"} <= layers:
        fail("%s: trace lacks layers, has %s" % (workload, sorted(layers)))


def main():
    module = load_spec_module()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if spec != module.SPEC:
        fail("BENCHMARK.json differs from run.py SPEC; "
             "run python3 perfbench/run.py --write-spec")
    check_spec(spec)
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in (w["name"] for w in spec["workloads"]):
            check_result(workload, trace, run(workload, trace), expected)
            if trace:
                check_trace_file(workload)
            print("selftest: ok %s trace=%d" % (workload, trace))
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
