#!/usr/bin/env python3
"""Build and run the hpcs end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gateway-chaos --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench/` (which builds the hpcs
libraries from `src/`) into the directory named by CARGO_TARGET_DIR, or
`.bench_build`.  The last line of stdout is the benchmark's JSON result;
its metric names and units are checked against BENCHMARK.json.

    python3 perfbench/run.py --selftest    # the benchmark's own unit tests
    python3 perfbench/run.py --workload W --pin   # re-pin W's reference outputs
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures once, then (incrementally) builds `target`; returns the
    build directory.  Build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("the hpcs sources (CMakeLists.txt, src/) are not next to "
             f"{os.path.relpath(BENCH_DIR, ROOT)}/; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, unit mismatch {units}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this seed's outputs as the workload's "
                             "pinned reference")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("perfbench_tests")
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                              cwd=ROOT, check=False).returncode
    if not args.workload:
        fail("--workload is required")

    build_dir = build("perfbench")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pins",
           os.path.join(BENCH_DIR, "pins"), "--out",
           os.path.join(ROOT, ".bench_out")]
    if args.pin:
        cmd.append("--pin")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or args.pin:
        print(done.stdout, end="")
        return done.returncode
    print("\n".join(lines[:-1]))
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
