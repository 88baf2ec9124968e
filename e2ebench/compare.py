#!/usr/bin/env python3
"""Compares two sets of e2ebench runs: a parent commit and a change.

    python3 e2ebench/compare.py parent.log change.log

Each log is the captured standard output of untraced runs
(`--trace 0`), in the order they ran; run the two sides alternately
so that pair i is parent run i and change run i. For every workload
and every end-to-end metric of BENCHMARK.json it prints both sides'
median and quartiles and a verdict:

* `regression` - the change's median is worse than the parent's by
  more than the metric's bound;
* `unresolved` - the parent's own spread (quartile distance over
  median) is wider than the bound, and not every change run beats
  every parent run;
* `gain` - the change wins at least nine pairs in ten and the medians
  differ by more than the parent's quartile distance;
* `same` - otherwise.

Runs measured on different hosts (nproc, CPU model or rustc differ)
are refused with exit status 2. Exit status 1 means a regression or a
run with wrong output.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "rustc")


def load(path):
    """Record lines of untraced runs, grouped by workload."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"record"'):
            continue
        rec = json.loads(line)["record"]
        if rec["trace"]:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    hosts = {
        tuple(r["provenance"][k] for k in HOST_KEYS)
        for side in (parent, change)
        for recs in side.values()
        for r in recs
    }
    if len(hosts) > 1:
        print("refusing to compare runs from different hosts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)), file=sys.stderr)
        return 2
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, []), change.get(workload, [])
        if not p or not c:
            print(f"{workload}: runs on one side only, skipped")
            continue
        wrong = sum(r["error_rate"] > 0 for r in p + c)
        print(f"{workload}: {len(p)} parent runs, {len(c)} change runs, {wrong} with errors")
        if wrong:
            status = 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in p]
            cv = [r["metrics"][name]["value"] for r in c]
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq, cq = quartiles(pv), quartiles(cv)
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            spread = (pq[1] - pq[0]) / pm
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            pairs = list(zip(pv, cv))
            wins = sum(better(cc, pp) for pp, cc in pairs)
            all_better = all(better(cc, pp) for pp in pv for cc in cv)
            if worse > bound:
                verdict = "regression"
                status = 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(cm - pm) > pq[1] - pq[0]:
                verdict = "gain"
            else:
                verdict = "same"
            unit = metric["unit"]
            print(
                f"  {name:16s} parent {pm:.4g} [{pq[0]:.4g}, {pq[1]:.4g}] {unit}"
                f"  change {cm:.4g} [{cq[0]:.4g}, {cq[1]:.4g}] {unit}"
                f"  worse by {worse:+.1%} (bound {bound:.0%})  wins {wins}/{len(pairs)}  {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
