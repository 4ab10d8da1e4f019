#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 campaignbench/selftest.py

Runs every workload at a few devices, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit, that the
output check passes, and that the traced table adds up. Runs the sampled
workloads on a second population seed, and runs the benchmark in a copy
holding only BENCHMARK.json and this directory, where it must fail.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECOND_POPULATION_SEED = str(0x706F70756C617422)
DEVICES = "3"


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run(workload, trace, extra=(), seed="1"):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", seed,
           "--seconds", "1", "--trace", str(trace), "--devices", DEVICES]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} {list(extra)} exited "
             f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check(result, declared, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: output check did not pass: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{label}: metrics {sorted(metrics)} != {sorted(declared)}")
    for name, unit in declared.items():
        if metrics[name].get("unit") != unit:
            fail(f"{label}: {name} unit {metrics[name].get('unit')!r} "
                 f"!= {unit!r}")
        if not isinstance(metrics[name].get("value"), (int, float)):
            fail(f"{label}: {name} has no numeric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    sampled = ("probes", "population_telemetry")

    for w in (x["name"] for x in bench["workloads"]):
        check(run(w, 0), end_to_end, f"{w} untraced")
        traced = run(w, 1)
        check(traced, per_layer, f"{w} traced")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        stages = sum(m[s + ".share"] for s in
                     ("stack.client", "stack.server", "gateway.lan",
                      "cgn.access", "residual"))
        if abs(stages - 1.0) > 1e-9:
            fail(f"{w}: stage shares sum to {stages}, not 1")
        if w in sampled:
            # References for the second population exist for order 0.
            check(run(w, 0, ["--pop-seed", SECOND_POPULATION_SEED], "0"),
                  end_to_end, f"{w} second population seed")
        print(f"selftest: {w} ok", flush=True)

    # Without the sources beside it the benchmark must fail, not print.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "bulk", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("a copy without the sources did not fail cleanly")
    print("selftest: bare copy fails as it should")
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
