#!/usr/bin/env python3
"""Builds the benchmark from source when needed and runs one workload.

    python3 perfbench/run.py --workload <train_cell|serve_hot|serve_live> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), the run's
scratch files to .bench_work/, both under the checkout. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no repo sources at %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "--target", "cpdg_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    out = build_dir()
    if not build(out):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    # The program reads CPDG_* knobs from the environment; the benchmark
    # fixes every setting itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPDG_")}
    cmd = [os.path.join(out, "cpdg_perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
