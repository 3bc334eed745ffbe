#!/usr/bin/env python3
"""Compare bench_gcx runs of two commits, or check two runs of one commit.

    compare.py BASE.json... -- CHANGE.json...   compare a parent and a change
    compare.py RUN.json...                      spread of one commit's runs
    compare.py --same A.json B.json             two runs of the same code

Each file is a BENCH_gcx.json written by bench_gcx, or a baseline file under
bench_gcx/baselines/ holding several of them under "runs". Runs are paired
in the order given (BASE[i] with CHANGE[i]); alternate which side runs first
when producing them.

For every (workload, metric) the comparison prints each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither),
and, for end-to-end metrics, the bound from BENCHMARK.json and a verdict:
  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and the change neither wins nor loses
              every pair outright;
  gain        at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's quartile
              distance;
  same        otherwise.
The exit status is 1 when any end-to-end metric regressed.

--same exits 1 unless every end-to-end metric of A and B agrees within its
bound and every count metric (deterministic for a seed) is equal.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"better": m["better"], "bound": None}
    return metrics


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs


def metric(run, workload, name):
    return run["workloads"][workload]["metrics"][name]


def values(runs, workload, name):
    return [metric(run, workload, name)["value"] for run in runs]


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, change, better):
    """Relative amount by which `change` is worse than `base` (< 0: better)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def shared_keys(runs, spec):
    workloads = set.intersection(*(set(r["workloads"]) for r in runs))
    for w in sorted(workloads):
        for name in spec:
            if all(name in r["workloads"][w]["metrics"] for r in runs):
                yield w, name


def verdict(b, c, better, bound):
    pairs = list(zip(b, c))
    wins = sum(better_than(y, x, better) for x, y in pairs) / len(pairs)
    if bound is None:
        return wins, ""
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    outright = (all(better_than(y, x, better) for x in b for y in c) or
                all(better_than(x, y, better) for x in b for y in c))
    if worse_by(bmed, cmed, better) > bound:
        return wins, "regression"
    if spread(b) > bound and not outright:
        return wins, "unresolved"
    if (len(pairs) >= 10 and wins >= 0.9 and abs(cmed - bmed) > bq3 - bq1
            and better_than(cmed, bmed, better)):
        return wins, "gain"
    return wins, "same"


def compare(base, change, spec):
    regressed = False
    print(f"{'workload':13} {'metric':30} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'bound':>6}  verdict")
    for w, name in shared_keys(base + change, spec):
        b, c = values(base, w, name), values(change, w, name)
        bound = spec[name]["bound"]
        wins, v = verdict(b, c, spec[name]["better"], bound)
        regressed |= v == "regression"
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        print(f"{w:13} {name:30} {bmed:12.6g} [{bq1:9.6g}, {bq3:9.6g}] "
              f"{cmed:12.6g} [{cq1:9.6g}, {cq3:9.6g}] {wins:6.2f} "
              f"{'' if bound is None else bound:>6}  {v}")
    return 1 if regressed else 0


def describe(runs, spec):
    print(f"{'workload':13} {'metric':30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w, name in shared_keys(runs, spec):
        v = values(runs, w, name)
        q1, med, q3 = quartiles(v)
        bound = spec[name]["bound"]
        wide = bound is not None and spread(v) > bound
        print(f"{w:13} {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread(v):7.3f} {'' if bound is None else bound:>6}"
              f"{' wider than bound' if wide else ''}")
    return 0


def same(a, b, spec):
    problems = 0
    for w, name in shared_keys([a, b], spec):
        ma, mb = metric(a, w, name), metric(b, w, name)
        bound = spec[name]["bound"]
        if ma.get("kind") == "count":
            if ma["value"] != mb["value"]:
                print(f"{w} {name}: count differs "
                      f"({ma['value']} vs {mb['value']})")
                problems += 1
        elif bound is not None:
            base = ma["value"]
            diff = (abs(mb["value"] - base) / abs(base) if base
                    else float(mb["value"] != base))
            if diff > bound:
                print(f"{w} {name}: {base:.6g} vs {mb['value']:.6g} differ "
                      f"by {diff:.1%} > bound {bound:.0%}")
                problems += 1
    if problems == 0:
        print("same: every end-to-end metric within its bound, "
              "every count equal")
    return 1 if problems else 0


def main(argv):
    spec = load_spec()
    if argv[:1] == ["--same"]:
        if len(argv) != 3:
            sys.exit(__doc__)
        a, b = load_runs(argv[1:2]), load_runs(argv[2:3])
        if len(a) != 1 or len(b) != 1:
            sys.exit("--same takes two single-run files")
        return same(a[0], b[0], spec)
    if not argv or (argv[0].startswith("-") and argv[0] != "--"):
        sys.exit(__doc__)
    if "--" not in argv:
        return describe(load_runs(argv), spec)
    split = argv.index("--")
    base, change = load_runs(argv[:split]), load_runs(argv[split + 1:])
    if not base or not change:
        sys.exit(__doc__)
    return compare(base, change, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
