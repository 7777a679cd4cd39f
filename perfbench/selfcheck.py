#!/usr/bin/env python3
"""Smoke-size self-check of the campaign benchmark.

Runs every workload named in BENCHMARK.json at a tiny grid (run.py
--smoke), once untraced and once traced, and asserts that each result
line parses, has exactly the contract's keys, is correct, and emits every
end-to-end (untraced) or per-layer (traced) metric with its declared unit.

    python3 perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    errors = []
    if p.returncode != 0:
        errors.append("exit status %d: %s" % (p.returncode, p.stderr[-400:]))
    try:
        res = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        return errors + ["last stdout line is not JSON: %s" % e]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(res))
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append("not correct: %s" % {k: res.get(k) for k in
                                           ("correct", "failed")})
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append("attempted %r" % res.get("attempted"))
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        errors.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        errors.append("undeclared metric %s" % name)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if m.get("unit") != want[name]:
            errors.append("%s unit %r != %r" % (name, m.get("unit"),
                                                want[name]))
        if not isinstance(m.get("value"), (int, float)):
            errors.append("%s value %r" % (name, m.get("value")))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors = check(bench, w["name"], trace)
            status = "ok" if not errors else "FAIL"
            print("%-14s trace=%d %s" % (w["name"], trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
