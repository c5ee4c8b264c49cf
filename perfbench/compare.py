#!/usr/bin/env python3
"""Compare two sets of benchmark results against the benchmark's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --spread RESULTS.jsonl

A result set is the JSON lines that `run.py ... --out FILE` appends, one
per run: untraced runs (--trace 0) carry the end-to-end metrics, traced
runs (--trace 1) the per-layer ones. Each set should hold several runs of
every workload with different seeds; the same seeds in both sets.

For every workload x end-to-end metric the comparison prints both medians,
the change, and a verdict against the metric's bound in BENCHMARK.json:
  worse       the new median is worse by more than the bound
  unresolved  a set's quartile spread exceeds the bound, and not every
              new run beats every base run
  better      every new run beats every base run, or the new run beats
              the base run of the same seed in at least nine tenths of
              the seeds and the medians differ by more than the base
              set's quartile spread
  same        otherwise
Beside them it prints the traced per-layer medians and their deltas.
It refuses (exit 2) sets whose host records or seeds differ. Exit 1 when
any metric is worse, else 0. --spread prints one set's quartile spreads
as a share of the median, next to a third of each bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(v):
    return "%.6g" % v


def check_records(base, new):
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        return "host/build records differ:\n  " + "\n  ".join(sorted(hosts))
    for trace in (0, 1):
        b, n = by_workload(base, trace), by_workload(new, trace)
        for w in sorted(set(b) | set(n)):
            sb = sorted(r["seed"] for r in b.get(w, []))
            sn = sorted(r["seed"] for r in n.get(w, []))
            if sb != sn:
                return "%s (trace %d) seeds differ: %s vs %s" % (w, trace,
                                                                  sb, sn)
    return None


def verdict(metric, base_vals, new_vals):
    """base_vals[i] and new_vals[i] are runs with the same seed."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mb, mn = statistics.median(base_vals), statistics.median(new_vals)
    worse = ((mn - mb) if lower else (mb - mn)) / abs(mb) if mb else 0.0
    all_better = (max(new_vals) < min(base_vals) if lower
                  else min(new_vals) > max(base_vals))
    wins = sum((n < b) if lower else (n > b)
               for b, n in zip(base_vals, new_vals))
    if max(spread(base_vals), spread(new_vals)) > bound:
        return ("better" if all_better else "unresolved"), worse
    if worse > bound:
        return "worse", worse
    if all_better or (wins >= 0.9 * len(base_vals)
                      and -worse > spread(base_vals) > 0):
        return "better", worse
    return "same", worse


def compare(spec, base, new):
    problem = check_records(base, new)
    if problem:
        print("compare.py: refusing: " + problem)
        return 2
    any_worse = False
    b0, n0 = by_workload(base, 0), by_workload(new, 0)
    b1, n1 = by_workload(base, 1), by_workload(new, 1)
    for w in sorted(set(b0) | set(n0) | set(b1) | set(n1)):
        print("== %s (%d vs %d runs)" % (w, len(b0.get(w, [])),
                                          len(n0.get(w, []))))
        for m in spec["end_to_end"] if b0.get(w) or n0.get(w) else []:
            bv = [r["metrics"][m["name"]]
                  for r in sorted(b0.get(w, []), key=lambda r: r["seed"])]
            nv = [r["metrics"][m["name"]]
                  for r in sorted(n0.get(w, []), key=lambda r: r["seed"])]
            if not bv or not nv:
                print("  %-14s missing" % m["name"])
                continue
            v, worse = verdict(m, bv, nv)
            any_worse = any_worse or v == "worse"
            print("  %-14s %12s -> %-12s %+7.2f%% worse  bound %.0f%%  %s"
                  % (m["name"], fmt(statistics.median(bv)),
                     fmt(statistics.median(nv)), 100 * worse,
                     100 * m["bound"], v))
        if b1.get(w) and n1.get(w):
            print("  per-layer (traced medians):")
            for m in spec["per_layer"]:
                # A layer a workload never calls has no entry: it reads 0.
                bm = statistics.median(r["metrics"].get(m["name"], 0.0)
                                       for r in b1[w])
                nm = statistics.median(r["metrics"].get(m["name"], 0.0)
                                       for r in n1[w])
                if bm == 0 and nm == 0:
                    continue
                delta = "%+.2f%%" % (100 * (nm - bm) / abs(bm)) if bm else "new"
                print("    %-30s %12s -> %-12s %s" % (m["name"], fmt(bm),
                                                     fmt(nm), delta))
    return 1 if any_worse else 0


def show_spread(spec, records):
    for w, runs in sorted(by_workload(records, 0).items()):
        print("== %s (%d runs)" % (w, len(runs)))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs]
            s = spread(vals)
            flag = "" if s <= m["bound"] / 3 else "  ABOVE a third of the bound"
            print("  %-14s median %-12s spread %6.2f%%  (bound/3 %5.2f%%)%s"
                  % (m["name"], fmt(statistics.median(vals)), 100 * s,
                     100 * m["bound"] / 3, flag))
    return 0


def main(argv):
    with open(SPEC) as f:
        spec = json.load(f)
    if len(argv) == 3 and argv[1] == "--spread":
        return show_spread(spec, load(argv[2]))
    if len(argv) == 3:
        return compare(spec, load(argv[1]), load(argv[2]))
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
