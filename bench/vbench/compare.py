#!/usr/bin/env python3
"""Compare a parent and a change on the vbench end-to-end metrics.

Make the two result sets (run from the repository root of either side):

    python3 bench/vbench/compare.py run --parent P --change C \
        --workload day-steady --pairs 10 --out parent.jsonl change.jsonl

P and C are checkouts of the two commits.  Pair k runs both sides with seed
k+1, the parent first on even k and the change first on odd k, each through
that side's own bench/vbench/run.py with BENCHMARK.json's run_seconds.
Records append to the two files, so several workloads can share them.

Judge them:

    python3 bench/vbench/compare.py judge parent.jsonl change.jsonl \
        [--benchmark BENCHMARK.json]

Per workload x end-to-end metric it prints each side's median and quartiles,
the change's pair wins, and one verdict:
  improved    the change wins >= 90% of the pairs (ties win nothing), the
              medians differ by more than the parent's interquartile range,
              and the change fails no more operations than the parent;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  not regressed, but either side's spread (IQR / median)
              exceeds the bound, and not every change run beats every
              parent run;
  no-worse    anything else.
It refuses fewer than 10 pairs, or pairs whose running order did not
alternate.  Exit status 1 when any row regressed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/vbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("compare: %s failed in %s (exit %d)" %
                 (" ".join(cmd), checkout, proc.returncode))
    return json.loads(lines[-1])


def cmd_run(args):
    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    sides = {"parent": (args.parent, args.out[0]),
             "change": (args.change, args.out[1])}
    for pair in range(args.pairs):
        seed = pair + 1
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for position, side in enumerate(order):
            checkout, out = sides[side]
            result = run_side(checkout, args.workload, seed,
                              spec["run_seconds"])
            record = {"workload": args.workload, "pair": pair, "seed": seed,
                      "ran_first": position == 0, "result": result}
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print("pair %d %s %s" % (pair, side, args.workload), flush=True)
    return 0


def load(path):
    """{workload: {pair: record}} from one result set."""
    sets = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            sets[rec["workload"]][rec["pair"]] = rec
    return sets


def spread(values):
    """(first quartile, median, third quartile)."""
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change, parent_failed, change_failed):
    """One row's verdict; `parent` and `change` are paired value lists."""
    sign = -1 if metric["better"] == "lower" else 1  # + means change better
    p1, pm, p3 = spread(parent)
    c1, cm, c3 = spread(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    bound = metric["bound"] * abs(pm)
    if sign * (cm - pm) < -bound:
        return "regressed", wins
    if (wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1 and
            change_failed <= parent_failed):
        return "improved", wins
    noisy = pm != 0 and cm != 0 and max((p3 - p1) / abs(pm),
                                        (c3 - c1) / abs(cm)) > metric["bound"]
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if noisy and not all_better:
        return "unresolved", wins
    return "no-worse", wins


def cmd_judge(args):
    spec = json.loads(Path(args.benchmark).read_text())
    parent_sets, change_sets = load(args.parent), load(args.change)
    rows, regressed = [], False
    for workload in sorted(parent_sets):
        pairs = sorted(set(parent_sets[workload]) &
                       set(change_sets.get(workload, {})))
        if len(pairs) < MIN_PAIRS:
            sys.exit("compare: %s has %d pairs, need %d" %
                     (workload, len(pairs), MIN_PAIRS))
        parent_first = sum(parent_sets[workload][k]["ran_first"] for k in pairs)
        if abs(2 * parent_first - len(pairs)) > 1:
            sys.exit("compare: %s ran the parent first in %d of %d pairs; the "
                     "order must alternate" % (workload, parent_first,
                                               len(pairs)))
        p_res = [parent_sets[workload][k]["result"] for k in pairs]
        c_res = [change_sets[workload][k]["result"] for k in pairs]
        p_failed = sum(r["failed"] for r in p_res)
        c_failed = sum(r["failed"] for r in c_res)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in p_res]
            change = [r["metrics"][name]["value"] for r in c_res]
            result, wins = verdict(metric, parent, change, p_failed, c_failed)
            regressed |= result == "regressed"
            rows.append((workload, name, spread(parent), spread(change),
                         "%d/%d" % (wins, len(pairs)), result))
    fmt = "%-14s %-15s %-32s %-32s %-6s %s"
    print(fmt % ("workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "wins", "verdict"))
    for workload, name, p, c, wins, result in rows:
        print(fmt % (workload, name,
                     "%.6g [%.6g, %.6g]" % (p[1], p[0], p[2]),
                     "%.6g [%.6g, %.6g]" % (c[1], c[0], c[2]), wins, result))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--out", nargs=2, required=True,
                     metavar=("PARENT_JSONL", "CHANGE_JSONL"))
    judge = sub.add_parser("judge", help="judge two result sets")
    judge.add_argument("parent")
    judge.add_argument("change")
    judge.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
