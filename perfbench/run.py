#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_wisdm --seed 1 --seconds 20 --trace 0

The binary (perfbench/iam_perf) is compiled into .bench_build/perfbench with
CMake, together with the repository's libraries under src/. One run starts
the binary PROCESSES times on the same inputs, one after another, each for
an equal share of --seconds. Each process sets up (data, ground truth,
training, server) and measures once. The printed value of every metric is
the median over the processes. On the 4-core VM the bounds were set on, a
whole process sometimes ran up to 1.8x slower than the next one on the
same inputs. The median of three keeps one such process from moving the
result. Each process's own report is passed through. The last line is the
combined JSON result.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROCESSES = 3
PROCESS_TIMEOUT_S = 55


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "iam_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_once(args):
    """Runs the binary once; returns its parsed result, or exits."""
    try:
        done = subprocess.run([os.path.join(BUILD, "iam_perf")] + args,
                              stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: a process exceeded {PROCESS_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.exit(f"perfbench: no result (exit code {done.returncode})")
    return result


def main():
    argv = sys.argv[1:]
    if "--seconds" not in argv or argv.index("--seconds") + 1 >= len(argv):
        sys.exit("usage: run.py --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>")
    at = argv.index("--seconds") + 1
    try:
        seconds = float(argv[at])
    except ValueError:
        sys.exit("perfbench: --seconds takes a number")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    share = argv[:at] + [repr(seconds / PROCESSES)] + argv[at + 1:]
    results = [run_once(share) for _ in range(PROCESSES)]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
