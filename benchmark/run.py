#!/usr/bin/env python3
"""Build qrdtm_bench from source, then run it with the given arguments.

    python3 benchmark/run.py --workload rqv-read --seed 42 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root; build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  The process then becomes
the benchmark (exec), so no child outlives it and its exit status is the
benchmark's.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "qrdtm_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "qrdtm_bench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
