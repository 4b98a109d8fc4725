#!/usr/bin/env python3
"""Build and run the scbnn benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_batch --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the perfbench program
into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only rebuild
what changed. Build output goes to stderr; the program's stdout is passed
through, so its last line is the result JSON. Exit codes: 0 ok, 1 error,
2 bad usage or nothing to build, 3 invalid run (no result printed).
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("offline_batch", "sensor_stream", "fleet_sessions")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no scbnn sources under {root}; nothing to build", 2)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "perfbench", "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]", 2)

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    workdir = build_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", str(workdir)]
    sys.stdout.flush()
    # Own process group: on a timeout the fleet's forked shards go down
    # with the program instead of outliving it.
    process = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        returncode = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(returncode)


if __name__ == "__main__":
    main()
