#!/usr/bin/env python3
"""Build vcaperf from source and run one benchmark workload.

Usage, from the repository root:

    python3 vcaperf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 vcaperf/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of conf_city, paper_sweep, analyzer_churn, capture_replay;
`all` runs each in turn, each in its own process. The benchmark and the
simulator libraries are built with CMake into .bench_build/ under the
repository root (incrementally after the first run); build output goes
to stderr. The last line of stdout is the workload's JSON result, and the
exit code is nonzero if the build failed or any output check failed.
Extra flags (--quick, --out DIR) are passed to the vcaperf binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["conf_city", "paper_sweep", "analyzer_churn", "capture_replay"]


def build(build_dir):
    """Configure (once) and build the vcaperf target; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vcaperf",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "vcaperf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = ap.parse_known_args()

    bench_root = os.path.join(ROOT, ".bench_build")
    try:
        binary = build(os.path.join(bench_root, "vcaperf"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"vcaperf: build failed: {e}", file=sys.stderr)
        return 1

    if "--out" not in extra:
        extra += ["--out", os.path.join(bench_root, "results")]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for w in workloads:
        sys.stdout.flush()
        r = subprocess.run([binary, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)] + extra)
        if r.returncode != 0:
            code = r.returncode if r.returncode > 0 else 1
    return code


if __name__ == "__main__":
    sys.exit(main())
