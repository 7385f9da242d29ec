#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seir-batch --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which builds the epismc library from ../src) with CMake
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the perfbench binary with the given flags. The binary checks the flags. The
workload names are listed in BENCHMARK.json. Build output goes to stderr;
the binary's last stdout line is the JSON result. Checkpoints and traces
are written under the same build directory.

Exit codes: 2 for --help (usage on stderr, before any build) or bad flags
(from the binary), 1 when the build fails, else the binary's own code.
"""

import os
import shutil
import subprocess
import sys

USAGE = ("usage: python3 perfbench/run.py --workload <name> --seed <n> "
         "--seconds <n> --trace <0|1>\n"
         "       (workload names: see BENCHMARK.json)")


def build(build_dir, env):
    """Configure and build; returns the binary path or None.

    The configure step runs every time: it is a no-op on an unchanged
    checkout and it refreshes the git SHA in the build stamp.
    """
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(bench_dir, "..", "CMakeLists.txt")):
        print("perfbench: no epismc sources next to perfbench/", file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build directory configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(bench_dir):
            shutil.rmtree(build_dir)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    args = sys.argv[1:]
    if "--help" in args or "-h" in args:
        print(USAGE, file=sys.stderr)
        return 2
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    # Keep compiler and run temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    binary = build(build_dir, env)
    if binary is None:
        return 1
    sys.stdout.flush()
    cmd = [binary] + args + [
        "--work-dir", os.path.join(build_dir, "work"),
        "--out-dir", os.path.join(build_dir, "out")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
