#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Builds the benchmark binary like run.py, then checks that
  - BENCHMARK.json and the binary's metric catalogue name the same metrics
    with the same units, and every name matches [A-Za-z0-9_.-]+;
  - each workload, untraced and traced, exits 0 with a correct result that
    emits every metric of its kind exactly once, with its unit;
  - each result line passes the repository's strict JSON validator
    (obs::json_lint, through `perfbench --lint`);
  - a deliberately corrupted reference is reported as a wrong output and
    makes the binary exit non-zero.
Exits 0 when every check holds.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling runner: build() and the paths)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)
    return ok


def unique_pairs(pairs):
    keys = [key for key, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in " + repr(keys))
    return dict(pairs)


def drive(exe, workload, trace, corrupt=False):
    command = [exe, "--workload", workload, "--seed", "1", "--seconds",
               "0.3", "--trace", str(trace), "--tiny", "1"]
    if corrupt:
        command += ["--corrupt-reference", "1"]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170,
                          cwd=run.ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    exe = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}

    catalogue = {"end_to_end": {}, "per_layer": {}}
    listing = subprocess.run([exe, "--list-metrics"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    for line in listing.splitlines():
        name, unit, kind = line.split()
        catalogue[kind][name] = unit
    for kind in ("end_to_end", "per_layer"):
        check(declared[kind] == catalogue[kind],
              "BENCHMARK.json %s matches the binary's catalogue" % kind)
        for name in declared[kind]:
            check(bool(NAME.match(name)), "metric name %r is well formed"
                  % name)

    listed = [w["name"] for w in bench["workloads"]]
    check(sorted(listed) == sorted(run.WORKLOADS),
          "BENCHMARK.json lists exactly the workloads run.py accepts")
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            code, line = drive(exe, workload, trace)
            check(code == 0, label + ": exit status 0")
            lint = subprocess.run([exe, "--lint"], input=line, text=True)
            check(lint.returncode == 0, label + ": strict JSON")
            try:
                result = json.loads(line, object_pairs_hook=unique_pairs)
            except ValueError as error:
                check(False, label + ": parses (%s)" % error)
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, label + ": result keys")
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  label + ": correct, nothing failed")
            metrics = result.get("metrics", {})
            check(set(metrics) == set(declared[kind]),
                  label + ": emits every %s metric once" % kind)
            check(all(metrics[n].get("unit") == declared[kind][n]
                      and isinstance(metrics[n].get("value"), (int, float))
                      and math.isfinite(metrics[n]["value"])
                      for n in metrics if n in declared[kind]),
                  label + ": units match, values are finite numbers")

        code, line = drive(exe, workload, 0, corrupt=True)
        try:
            result = json.loads(line)
        except ValueError:
            result = {}
        check(code != 0 and result.get("correct") is False
              and result.get("failed", 0) > 0,
              workload + ": a corrupted reference is reported as a failure")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
