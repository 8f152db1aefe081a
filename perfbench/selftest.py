#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test scale (--small, one domain) through
run.py: once untraced and twice traced.  That is the workloads of
BENCHMARK.json and fuzz-verify, which BENCHMARK.json leaves out while
the fuzz harness finds defects in the program (see README.md).  Checks that each run ends in a
well-formed result line, that every end-to-end metric of BENCHMARK.json
is printed with its unit untraced and every per-layer metric traced, and
that the deterministic figures (modeled plan quality and the counts at a
fixed pool size) repeat exactly across the two traced invocations.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DETERMINISTIC = [
    "plan_tflops_geo", "deep_pred_s", "codegen.lower_calls", "tune.configs_measured",
    "tune.prerank_pruned", "tune.lint_pruned", "tune.static_pruned", "exec.analytic_measures",
    "lint.findings", "exec.interior_points", "exec.halo_points", "exec.wavefront_points",
    "exec.guarded_points", "exec.eliminated_points", "exec.launches", "verify.plans_checked",
    "par.jobs",
]


def run(workload, trace):
    cmd = ["python3", os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small", "--jobs", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (workload, trace, out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("FAIL %s trace=%d: result keys %s" % (workload, trace, sorted(result)))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        sys.exit("FAIL %s trace=%d: attempted/failed %r" % (workload, trace, result))
    return result


def check_metrics(workload, trace, result, specs):
    metrics = result["metrics"]
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        sys.exit("FAIL %s trace=%d: metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (workload, trace, sorted(set(names) - set(metrics)),
                    sorted(set(metrics) - set(names))))
    for s in specs:
        m = metrics[s["name"]]
        if m.get("unit") != s["unit"] or not isinstance(m.get("value"), (int, float)):
            sys.exit("FAIL %s trace=%d: %s printed as %r, expected unit %s"
                     % (workload, trace, s["name"], m, s["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [w["name"] for w in bench["workloads"]] + ["fuzz-verify"]:
        untraced = run(w, 0)
        check_metrics(w, 0, untraced, bench["end_to_end"])
        # The benchmark's own expected values must hold at self-test
        # scale; fuzz findings are the program's, reported not asserted.
        if w != "fuzz-verify" and not untraced["correct"]:
            sys.exit("FAIL %s: outputs differ from perfbench/expected.txt" % w)
        first, second = run(w, 1), run(w, 1)
        check_metrics(w, 1, first, bench["per_layer"])
        for name in DETERMINISTIC:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                sys.exit("FAIL %s: %s is %r then %r" % (w, name, a, b))
        print("ok %s" % w, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
