#!/usr/bin/env python3
"""Compare two sets of benchmark results, or show the spread of one.

A result file holds one JSON record per line, as `kv-benchmark --out FILE`
(and so `run.sh`) appends them. A set may be several files.

    compare.py BASE.json NEW.json          # one row per (workload, metric)
    compare.py BASE1.json,BASE2.json NEW.json
    compare.py --spread RUNS.json          # quartile spread of one set

Comparison, per workload and end-to-end metric: both medians, the relative
change of NEW against BASE (positive is worse), the wider of the two sets'
own spreads and the metric's bound from BENCHMARK.json. A row is
`unresolved` when that spread exceeds the bound, `WORSE` when NEW is worse
by more than the bound. Counts that must repeat exactly (the traced pass,
`cost_actual_entries`) are compared for equal seeds. Exit status 1 if any
row is WORSE, a `failed_share` rose, or an exact count differs.

Spread is the distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, over the median.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_contract():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return {m["name"]: m for m in contract["end_to_end"]}


def load_set(spec):
    records = []
    for path in spec.split(","):
        with open(path) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return records


def by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(metric, base, new):
    """Relative change of `new` against `base`; positive means worse."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if metric["better"] == "higher" else change


def print_spread(records, contract):
    print(f"{'workload':<14} {'metric':<10} {'runs':>4} {'median':>14} {'spread':>8} {'bound':>6}  note")
    wide = False
    for workload, runs in by_workload(records).items():
        for name, metric in contract.items():
            values = [r["end_to_end"][name] for r in runs if name in r["end_to_end"]]
            if not values:
                continue
            s = spread(values)
            note = ""
            if name != "setup_s" and s > metric["bound"]:
                note, wide = "EXCEEDS BOUND", True
            elif s > metric["bound"] / 3:
                note = "above a third of the bound"
            print(f"{workload:<14} {name:<10} {len(values):>4} {statistics.median(values):>14.6g} "
                  f"{s:>8.4f} {metric['bound']:>6.2f}  {note}")
    return 1 if wide else 0


def exact_counts(record):
    counts = record.get("counts", {})
    return {k: v for k, v in counts.items() if k.startswith("traced.") or k == "cost_actual_entries"}


def compare(base, new, contract):
    status = 0
    print(f"{'workload':<14} {'metric':<10} {'base':>14} {'new':>14} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    base_by, new_by = by_workload(base), by_workload(new)
    for workload in base_by:
        if workload not in new_by:
            print(f"{workload:<14} missing from the new set")
            status = 1
            continue
        for name, metric in contract.items():
            a = [r["end_to_end"][name] for r in base_by[workload] if not r["trace"]]
            b = [r["end_to_end"][name] for r in new_by[workload] if not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = worse_by(metric, ma, mb)
            wider = max(spread(a), spread(b))
            if wider > metric["bound"]:
                verdict = "unresolved (spread exceeds bound)"
            elif delta > metric["bound"]:
                verdict, status = "WORSE", 1
            else:
                verdict = "ok"
            print(f"{workload:<14} {name:<10} {ma:>14.6g} {mb:>14.6g} {delta:>+9.4f} {wider:>7.4f} "
                  f"{metric['bound']:>6.2f}  {verdict}")
        share_a = max(r["failed_share"] for r in base_by[workload])
        share_b = max(r["failed_share"] for r in new_by[workload])
        if share_b > share_a:
            print(f"{workload:<14} failed_share rose from {share_a} to {share_b}")
            status = 1
        for ra in base_by[workload]:
            for rb in new_by[workload]:
                if (ra["seed"], ra["trace"]) != (rb["seed"], rb["trace"]):
                    continue
                ca, cb = exact_counts(ra), exact_counts(rb)
                differing = sorted(k for k in ca.keys() & cb.keys() if ca[k] != cb[k])
                if differing:
                    print(f"{workload:<14} seed {ra['seed']}: counts differ: "
                          + ", ".join(f"{k} {ca[k]} != {cb[k]}" for k in differing))
                    status = 1
    return status


def main(argv):
    contract = load_contract()
    if len(argv) == 3 and argv[1] == "--spread":
        return print_spread([r for r in load_set(argv[2]) if not r["trace"]], contract)
    if len(argv) == 3:
        return compare(load_set(argv[1]), load_set(argv[2]), contract)
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
