#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The benchmark package (perfbench/) builds
the library from src/ into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed. Build output goes to stderr, so the benchmark's last stdout
line is its JSON result. Without the library sources next to perfbench/ the
script exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(directory):
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", directory, "--target", "perfbench", "-j4"],
                   stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    directory = build_dir()
    try:
        build(directory)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([os.path.join(directory, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
