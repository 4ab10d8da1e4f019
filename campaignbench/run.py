#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 campaignbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds gatekit and the workload runner from this checkout's sources into
.bench_build/campaignbench, maps --seed onto the workload's inputs, runs
one workload in its own process and passes its output through. The last
line of standard output is the result JSON. Any failure (build, missing
reference, crash) exits non-zero without printing a result.

    python3 campaignbench/run.py --write-refs

rewrites every stored reference digest; only do this when campaign bytes
are meant to change, and say why in the change.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")
BINARY = os.path.join(BUILD, "campaign_bench")
REFS = os.path.join(HERE, "refs")

WORKLOADS = ("bulk", "nat444_bulk", "probes", "population_telemetry")
SAMPLED = ("probes", "population_telemetry")
# --seed selects one of this many roster orders, each with stored
# reference digests, so every run's output is checked.
VARIANTS = 4
# A second population (devices::kPopulationSeed + 1) with stored
# references, for checking that the sampled workloads take another seed.
SECOND_POPULATION_SEED = 0x706F70756C617422


def build():
    steps = [["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "campaign_bench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("campaignbench: build step failed: " + " ".join(step))


def run_workload(workload, seed, seconds, trace, extra=()):
    scratch = os.path.join(BUILD, "scratch", workload)
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--refs", REFS, "--scratch", scratch,
           "--order-seed", str(seed % VARIANTS)]
    return subprocess.run(cmd + list(extra), stdout=subprocess.PIPE, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--devices", type=int,
                    help="run only the first N roster devices")
    ap.add_argument("--pop-seed", type=int,
                    help="population seed of the sampled workloads")
    ap.add_argument("--write-refs", action="store_true",
                    help="rewrite every stored reference digest")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.write_refs and args.workload is None:
        ap.error("--workload is required")

    build()

    if args.write_refs:
        runs = [(w, v, []) for w in WORKLOADS for v in range(VARIANTS)]
        runs += [(w, 0, ["--pop-seed", str(SECOND_POPULATION_SEED)])
                 for w in SAMPLED]
        for workload, variant, extra in runs:
            done = run_workload(workload, variant, 1, 0,
                                extra + ["--write-refs"])
            if done.returncode != 0:
                sys.exit(f"campaignbench: --write-refs failed on {workload}")
        return 0

    extra = ["--devices", str(args.devices)] if args.devices else []
    if args.pop_seed is not None:
        if args.workload not in SAMPLED:
            ap.error("--pop-seed applies to " + " and ".join(SAMPLED))
        extra += ["--pop-seed", str(args.pop_seed)]
    done = run_workload(args.workload, args.seed, args.seconds, args.trace, extra)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"campaignbench: {args.workload} failed "
                 f"(exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        sys.exit("campaignbench: the runner printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
