#!/usr/bin/env python3
"""Build vbench from this checkout and run one workload.

    python3 bench/vbench/run.py --workload W --seed N --seconds S --trace 0|1

The vnames libraries and the vbench binary are built from source into
$CARGO_TARGET_DIR/vbench (default .bench_build/vbench, relative to the
checkout root); an up-to-date build costs about a second.  The binary's
report goes to stdout, followed by one JSON line: the end-to-end metrics
BENCHMARK.json names (--trace 0) or its per-layer metrics (--trace 1,
which adds traced repeats and writes their Chrome trace next to the build).
The exit code is the binary's: non-zero on any correctness failure.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "vbench"


def build(out):
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("vbench: no vnames source tree at %s" % ROOT)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "vbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("vbench: build step failed: %s" % " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    cmd = [str(out / "vbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(out / ("trace-%s.json" % args.workload))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("vbench: %s did not finish in %d s" %
                 (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        sys.exit("vbench: exited %d without a result line" % proc.returncode)
    missing = [name for name in wanted if name not in report["metrics"]]
    if missing:
        sys.exit("vbench: binary did not report %s" % ", ".join(missing))

    print("\n".join(lines[:-1]))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in wanted},
    }))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
