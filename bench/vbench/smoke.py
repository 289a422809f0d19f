#!/usr/bin/env python3
"""vbench_smoke: the benchmark's own CI gate.

    python3 smoke.py <vbench binary> <BENCHMARK.json>

For each workload it runs `vbench --smoke --trace` twice with one seed and
requires that
  * both runs exit 0 with "correct": true (the binary checks that no reply
    was wrong, no process failed, every client finished, day-churn made
    exactly three handoffs and three handbacks, tracing changed no
    simulated number, and the paper calibration holds);
  * every simulated metric is byte-identical across the two runs;
  * the metric names and units the binary prints are exactly the ones
    BENCHMARK.json lists, and BENCHMARK.json obeys its own schema.
Exit status 0 on success, 1 with a message per failure otherwise.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

SEED = 7
# Metrics measured in host time; everything else the binary prints is a
# pure function of (workload, seed, size) and must repeat exactly.
HOST_METRICS = {
    "ops_per_ref_s", "setup_s", "peak_rss_mb", "ops_per_host_s",
    "host.probe_ops_per_s", "sim.events_per_host_s",
    "sim.floor_events_per_host_s", "sim.floor_share", "sim.teardown_s",
    "servers.install_s", "wload.forest_s", "wload.spawn_s",
    "obs.trace_overhead",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def schema_errors(spec):
    """Check BENCHMARK.json against the benchmark file format."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return ["BENCHMARK.json keys %s, want %s" % (sorted(spec), sorted(keys))]
    command, paths = spec["command"], spec["paths"]
    if not (1 <= len(command) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in command)):
        errors.append("command must be 1-32 strings of <=200 characters")
    if not 1 <= len(paths) <= 16 or not all(
            PATH.match(p) and ".." not in p.split("/") and
            not p.startswith("/") for p in paths):
        errors.append("paths must be 1-16 relative paths")
    if not (isinstance(spec["run_seconds"], int) and
            1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    fields = {"workloads": {"name", "why"},
              "end_to_end": {"name", "unit", "better", "bound"},
              "per_layer": {"name", "unit", "better"}}
    names = set()
    for section, (lo, hi) in limits.items():
        entries = spec[section]
        if not lo <= len(entries) <= hi:
            errors.append("%s needs %d-%d entries" % (section, lo, hi))
        for e in entries:
            if set(e) != fields[section]:
                errors.append("%s entry %s has keys %s" %
                              (section, e.get("name"), sorted(e)))
                continue
            if not NAME.match(e["name"]) or e["name"] in names:
                errors.append("bad or repeated name %r" % e["name"])
            names.add(e["name"])
            if section == "workloads":
                if "\n" in e["why"] or len(e["why"]) > 200:
                    errors.append("why of %s must be one line" % e["name"])
                continue
            if not UNIT.match(e["unit"]) or e["better"] not in ("lower",
                                                                "higher"):
                errors.append("bad unit or better on %s" % e["name"])
            if section == "end_to_end" and not 0 < e["bound"] <= 0.25:
                errors.append("bound of %s must be in (0, 0.25]" % e["name"])
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end must have setup_s in s, lower is better")
    return errors


def run(binary, workload, trace_path):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(SEED), "--smoke",
         "--seconds", "0", "--trace", str(trace_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    return proc, report


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    failures = schema_errors(spec)
    wanted = {m["name"]: m["unit"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    trace_path = Path.cwd() / "vbench-smoke-trace.json"
    for workload in [w["name"] for w in spec.get("workloads", [])]:
        sims = []
        for attempt in (1, 2):
            proc, report = run(binary, workload, trace_path)
            if proc.returncode != 0 or not report or not report["correct"]:
                failures.append("%s run %d: exit %d, correct=%s\n%s" % (
                    workload, attempt, proc.returncode,
                    report and report["correct"], proc.stderr.strip()))
                break
            printed = {k: v["unit"] for k, v in report["metrics"].items()}
            if printed != wanted:
                failures.append("%s: binary prints %s; BENCHMARK.json lists %s"
                                % (workload,
                                   sorted(set(printed.items()) -
                                          set(wanted.items())),
                                   sorted(set(wanted.items()) -
                                          set(printed.items()))))
            sims.append({k: repr(v["value"])
                         for k, v in report["metrics"].items()
                         if k not in HOST_METRICS})
        if len(sims) == 2 and sims[0] != sims[1]:
            diff = sorted(k for k in sims[0] if sims[0][k] != sims[1].get(k))
            failures.append("%s: simulated metrics differ between two runs "
                            "of seed %d: %s" % (workload, SEED, diff))
        if not failures:
            print("vbench_smoke: %s ok" % workload)
    trace_path.unlink(missing_ok=True)
    for f in failures:
        print("vbench_smoke FAILURE: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
