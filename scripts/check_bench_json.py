#!/usr/bin/env python3
"""Validate the schema of bench --json reports (bench_util.hpp JsonReport).

Usage: check_bench_json.py [--baseline BASELINE.json]
                           [--max-regression FRACTION] [--workload NAME]
                           [--overhead BASE:NEW]
                           report.json [more.json ...]

Expected shape:
  {
    "run": {                       # optional
      "seed": "0x...", "schedule": "fifo"|"fuzz", "calibration": str,
      "host_repeats": int > 0,     # optional, paired with host_median_ms
      "host_median_ms": number,
      "namecache": {"hits": int, "misses": int,
                    "stale": int, "fallbacks": int},  # optional
      "obs": {"sample_rate": number in [0,1],         # optional
              "flight_capacity": int}
    },
    "engine": [                    # optional (bench_engine throughput)
      {"workload": str, "events": int, "txns": int,
       "wall_ms": number, "sim_ms": number,
       "events_per_wall_second": number, "txns_per_wall_second": number}
    ],
    "scale": [                     # optional (bench_scale production day)
      {"cell": str, "shards": int > 0, "hosts": int > 0,
       "opens": int, "errors": int, "wrong": int,   # wrong must be 0
       "throughput_per_s": number, "p50_ms": number, "p99_ms": number,
       "flash_p99_ms": number, "map_fetches": int, "stale_retries": int,
       "noreply_retries": int, "handoffs": int, "handbacks": int}
      # stale_retries must be <= hosts * (handoffs + handbacks)
    ],
    "sections": [
      {"id": str, "title": str,
       "rows": [{"label": str, "measured_ms": number,
                 "paper_ms": number}],   # paper_ms optional
       "notes": [str]}
    ]
  }

With --baseline, every workload in the baseline's "engine" array must also
appear in each report with events_per_wall_second no more than 25% below
the baseline value (the CI perf gate: host timing is noisy, a quarter is
not noise).  --max-regression tightens or loosens that fraction, and
--workload restricts the comparison to one named workload.

--overhead BASE:NEW compares two workloads WITHIN each report instead:
NEW's events_per_wall_second must be within --max-regression of BASE's.
The obs stage uses this for the flight-recorder gate
(--max-regression 0.05 --overhead timer-churn:timer-churn-flight):
bench_engine --flight runs the two as interleaved pairs in one process
and reports them so that their events/s ratio is the median per-pair
ratio, which isolates the recorder's cost from machine noise.
"""
import json
import sys

# CI perf gate: fail when throughput drops more than this fraction below
# the checked-in baseline.
MAX_REGRESSION = 0.25


def fail(path, msg):
    print(f"FAIL {path}: {msg}", file=sys.stderr)
    return 1


def check(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            return fail(path, f"not valid JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")

    run = doc.get("run")
    if run is not None:
        if not isinstance(run, dict):
            return fail(path, '"run" must be an object')
        for key, typ in (("seed", str), ("schedule", str),
                         ("calibration", str)):
            if not isinstance(run.get(key), typ):
                return fail(path, f'"run.{key}" must be {typ.__name__}')
        if run["schedule"] not in ("fifo", "fuzz"):
            return fail(path, '"run.schedule" must be "fifo" or "fuzz"')
        if ("host_repeats" in run) != ("host_median_ms" in run):
            return fail(path, "host_repeats and host_median_ms come in pairs")
        if "host_repeats" in run:
            if not isinstance(run["host_repeats"], int) or \
                    run["host_repeats"] < 1:
                return fail(path, '"run.host_repeats" must be a positive int')
            if not isinstance(run["host_median_ms"], (int, float)):
                return fail(path, '"run.host_median_ms" must be a number')
        cache = run.get("namecache")
        if cache is not None:
            if not isinstance(cache, dict):
                return fail(path, '"run.namecache" must be an object')
            for key in ("hits", "misses", "stale", "fallbacks"):
                if not isinstance(cache.get(key), int) or cache[key] < 0:
                    return fail(
                        path, f'"run.namecache.{key}" must be a non-negative '
                        "int")
        obs = run.get("obs")
        if obs is not None:
            if not isinstance(obs, dict):
                return fail(path, '"run.obs" must be an object')
            rate = obs.get("sample_rate")
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                return fail(
                    path, '"run.obs.sample_rate" must be a number in [0, 1]')
            cap = obs.get("flight_capacity")
            if not isinstance(cap, int) or cap < 0:
                return fail(
                    path,
                    '"run.obs.flight_capacity" must be a non-negative int')

    engine = doc.get("engine")
    if engine is not None:
        if not isinstance(engine, list) or not engine:
            return fail(path, '"engine" must be a non-empty list')
        for i, wl in enumerate(engine):
            where = f"engine[{i}]"
            if not isinstance(wl, dict):
                return fail(path, f"{where} must be an object")
            if not isinstance(wl.get("workload"), str):
                return fail(path, f'{where}.workload must be a string')
            for key in ("events", "txns"):
                if not isinstance(wl.get(key), int) or wl[key] < 0:
                    return fail(
                        path, f"{where}.{key} must be a non-negative int")
            for key in ("wall_ms", "sim_ms", "events_per_wall_second",
                        "txns_per_wall_second"):
                if not isinstance(wl.get(key), (int, float)) or wl[key] < 0:
                    return fail(
                        path, f"{where}.{key} must be a non-negative number")
            extra = set(wl) - {"workload", "events", "txns", "wall_ms",
                               "sim_ms", "events_per_wall_second",
                               "txns_per_wall_second"}
            if extra:
                return fail(path, f"{where} has unknown keys {sorted(extra)}")

    scale = doc.get("scale")
    if scale is not None:
        if not isinstance(scale, list) or not scale:
            return fail(path, '"scale" must be a non-empty list')
        for i, cell in enumerate(scale):
            where = f"scale[{i}]"
            if not isinstance(cell, dict):
                return fail(path, f"{where} must be an object")
            if not isinstance(cell.get("cell"), str):
                return fail(path, f'{where}.cell must be a string')
            for key in ("shards", "hosts"):
                if not isinstance(cell.get(key), int) or cell[key] < 1:
                    return fail(path, f"{where}.{key} must be a positive int")
            for key in ("opens", "errors", "wrong", "map_fetches",
                        "stale_retries", "noreply_retries", "handoffs",
                        "handbacks"):
                if not isinstance(cell.get(key), int) or cell[key] < 0:
                    return fail(
                        path, f"{where}.{key} must be a non-negative int")
            for key in ("throughput_per_s", "p50_ms", "p99_ms",
                        "flash_p99_ms"):
                if not isinstance(cell.get(key), (int, float)) or \
                        cell[key] < 0:
                    return fail(
                        path, f"{where}.{key} must be a non-negative number")
            # The E14 safety gate is schema-level: a report recording a
            # wrong reply is invalid, not merely a failed acceptance line.
            if cell["wrong"] != 0:
                return fail(path, f'{where}.wrong must be 0, '
                            f'got {cell["wrong"]}')
            # Only a change of shard owner may stale a client's map, so a
            # day pays at most one stale refusal per host per membership
            # change.  More means table edits are staling maps again.
            changes = cell["handoffs"] + cell["handbacks"]
            if cell["stale_retries"] > cell["hosts"] * changes:
                return fail(path, f'{where}.stale_retries '
                            f'{cell["stale_retries"]} exceeds hosts x '
                            f'(handoffs + handbacks) = '
                            f'{cell["hosts"] * changes}')
            extra = set(cell) - {"cell", "shards", "hosts", "opens",
                                 "errors", "wrong", "throughput_per_s",
                                 "p50_ms", "p99_ms", "flash_p99_ms",
                                 "map_fetches", "stale_retries",
                                 "noreply_retries", "handoffs", "handbacks"}
            if extra:
                return fail(path, f"{where} has unknown keys {sorted(extra)}")

    sections = doc.get("sections")
    if not isinstance(sections, list) or not sections:
        return fail(path, '"sections" must be a non-empty list')
    for i, sec in enumerate(sections):
        where = f"sections[{i}]"
        if not isinstance(sec, dict):
            return fail(path, f"{where} must be an object")
        for key in ("id", "title"):
            if not isinstance(sec.get(key), str):
                return fail(path, f'{where}.{key} must be a string')
        rows = sec.get("rows")
        if not isinstance(rows, list):
            return fail(path, f"{where}.rows must be a list")
        for j, row in enumerate(rows):
            rwhere = f"{where}.rows[{j}]"
            if not isinstance(row, dict):
                return fail(path, f"{rwhere} must be an object")
            if not isinstance(row.get("label"), str):
                return fail(path, f'{rwhere}.label must be a string')
            if not isinstance(row.get("measured_ms"), (int, float)):
                return fail(path, f'{rwhere}.measured_ms must be a number')
            if "paper_ms" in row and \
                    not isinstance(row["paper_ms"], (int, float)):
                return fail(path, f'{rwhere}.paper_ms must be a number')
            extra = set(row) - {"label", "measured_ms", "paper_ms"}
            if extra:
                return fail(path, f"{rwhere} has unknown keys {sorted(extra)}")
        notes = sec.get("notes")
        if not isinstance(notes, list) or \
                any(not isinstance(n, str) for n in notes):
            return fail(path, f"{where}.notes must be a list of strings")
    print(f"OK   {path}: {len(sections)} section(s), "
          f"{sum(len(s['rows']) for s in sections)} row(s)")
    return 0


def check_baseline(baseline_path, report_path, max_regression, workload):
    """Perf gate: report throughput must stay within max_regression of the
    checked-in baseline, for every engine workload (or just `workload`)."""
    with open(baseline_path) as f:
        base = {wl["workload"]: wl
                for wl in json.load(f).get("engine", [])}
    with open(report_path) as f:
        new = {wl["workload"]: wl
               for wl in json.load(f).get("engine", [])}
    if not base:
        return fail(baseline_path, 'baseline has no "engine" workloads')
    if workload is not None:
        if workload not in base:
            return fail(baseline_path,
                        f'workload "{workload}" not in baseline')
        base = {workload: base[workload]}
    rc = 0
    for name, bwl in sorted(base.items()):
        if name not in new:
            rc = fail(report_path, f'workload "{name}" missing from report')
            continue
        base_eps = bwl["events_per_wall_second"]
        new_eps = new[name]["events_per_wall_second"]
        floor = base_eps * (1.0 - max_regression)
        verdict = "OK  " if new_eps >= floor else "FAIL"
        print(f"{verdict} perf {name}: {new_eps:,.0f} events/s "
              f"(baseline {base_eps:,.0f}, floor {floor:,.0f})")
        if new_eps < floor:
            rc = fail(
                report_path,
                f'"{name}" regressed >{max_regression:.0%}: '
                f"{new_eps:,.0f} < {floor:,.0f} events/s")
    return rc


def check_overhead(report_path, base_name, new_name, max_regression):
    """Within-report gate: workload `new_name` must be within
    max_regression of workload `base_name` (events_per_wall_second)."""
    with open(report_path) as f:
        engine = {wl["workload"]: wl
                  for wl in json.load(f).get("engine", [])}
    for name in (base_name, new_name):
        if name not in engine:
            return fail(report_path, f'workload "{name}" not in report')
    base_eps = engine[base_name]["events_per_wall_second"]
    new_eps = engine[new_name]["events_per_wall_second"]
    if base_eps <= 0:
        return fail(report_path, f'"{base_name}" has zero throughput')
    floor = base_eps * (1.0 - max_regression)
    overhead = 1.0 - new_eps / base_eps
    verdict = "OK  " if new_eps >= floor else "FAIL"
    print(f"{verdict} overhead {new_name} vs {base_name}: "
          f"{new_eps:,.0f} vs {base_eps:,.0f} events/s "
          f"({overhead:+.1%}, budget {max_regression:.0%})")
    if new_eps < floor:
        return fail(
            report_path,
            f'"{new_name}" costs >{max_regression:.0%} over "{base_name}": '
            f"{new_eps:,.0f} < {floor:,.0f} events/s")
    return 0


def main(argv):
    baseline = None
    max_regression = MAX_REGRESSION
    workload = None
    overhead = None
    args = argv[1:]
    while args and args[0].startswith("--"):
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        flag, value = args[0], args[1]
        if flag == "--baseline":
            baseline = value
        elif flag == "--max-regression":
            try:
                max_regression = float(value)
            except ValueError:
                print(__doc__, file=sys.stderr)
                return 2
            if not 0.0 < max_regression < 1.0:
                print("--max-regression must be in (0, 1)", file=sys.stderr)
                return 2
        elif flag == "--workload":
            workload = value
        elif flag == "--overhead":
            if ":" not in value:
                print("--overhead expects BASE:NEW workload names",
                      file=sys.stderr)
                return 2
            overhead = tuple(value.split(":", 1))
        else:
            print(__doc__, file=sys.stderr)
            return 2
        args = args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    rc = max(check(p) for p in args)
    if baseline is not None:
        rc = max([rc] + [check_baseline(baseline, p, max_regression, workload)
                         for p in args])
    if overhead is not None:
        rc = max([rc] + [check_overhead(p, overhead[0], overhead[1],
                                        max_regression)
                         for p in args])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
