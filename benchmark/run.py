#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both builds (plain, and with the `trace`
feature) are made on every call, so the first call in a checkout pays
for both and later calls are no-op rebuilds. They go under
`$CARGO_TARGET_DIR/dv-benchmark/` (default `target/dv-benchmark/`).
`--trace 0` runs the plain build, which prints the end-to-end metrics;
`--trace 1` runs the traced build, which prints the per-layer metrics.
The benchmark's own last stdout line is the result; cargo's output goes
to stderr. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = (("plain", []), ("traced", ["--features", "trace"]))


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return "0"


def main():
    argv = sys.argv[1:]
    target = os.path.join(os.environ.get("CARGO_TARGET_DIR") or "target", "dv-benchmark")
    for variant, features in VARIANTS:
        build = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", os.path.join(target, variant),
        ] + features
        code = subprocess.run(build, stdout=sys.stderr).returncode
        if code != 0:
            print(f"run.py: the {variant} build failed ({code})", file=sys.stderr)
            return code
    variant = "traced" if trace_flag(argv) == "1" else "plain"
    exe = os.path.join(target, variant, "release", "dv-benchmark")
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main())
