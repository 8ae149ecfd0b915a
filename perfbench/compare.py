#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are JSON-lines files written by `perfbench/run.py --out`, or
directories of them. For each workload and end-to-end metric it prints
each side's median and quartiles, the pairs NEW won (the i-th run of each
side form a pair; ties count for neither), and a verdict:

  improved    NEW won at least 9 of 10 pairs and the medians differ in
              NEW's favour by more than BASE's interquartile range
  worse       the same rule the other way round, or NEW's median is worse
              than BASE's by more than the metric's bound
  unresolved  BASE's own spread (IQR / median) is wider than the bound and
              NEW is not better in every run
  unchanged   otherwise

Bounds and directions come from BENCHMARK.json at the repository root.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, n) for n in os.listdir(path)
                       if n.endswith(".jsonl"))
    records = []
    for name in files:
        with open(name) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def series(records):
    """{(workload, metric): [values in run order]} from untraced runs."""
    out = {}
    for r in records:
        if r.get("trace"):
            continue
        for name, m in r["e2e"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, higher_is_better, bound):
    """Returns (verdict, pairs_won, pairs) for two runs-in-order lists."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(base, new))
    won = sum(1 for a, b in pairs if sign * (b - a) > 0)
    lost = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1_a, med_a, q3_a = quartiles(base)
    _, med_b, _ = quartiles(new)
    iqr_a = q3_a - q1_a
    gain = sign * (med_b - med_a)
    n = len(pairs)
    if n and won >= WIN_SHARE * n and gain > iqr_a:
        return "improved", won, n
    if n and lost >= WIN_SHARE * n and -gain > iqr_a:
        return "worse", won, n
    if med_a and -gain / abs(med_a) > bound:
        return "worse", won, n
    spread = iqr_a / abs(med_a) if med_a else float("inf")
    all_better = base and new and (
        min(sign * b for b in new) > max(sign * a for a in base))
    if spread > bound and not all_better:
        return "unresolved", won, n
    return "unchanged", won, n


def compare(base_records, new_records, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = series(base_records), series(new_records)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in metrics:
            continue
        m = metrics[name]
        v, won, n = verdict(base[key], new[key], m["better"] == "higher",
                            m["bound"])
        rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                     "base": quartiles(base[key]), "new": quartiles(new[key]),
                     "won": won, "pairs": n, "verdict": v})
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(load_records(argv[0]), load_records(argv[1]), spec)
    header = "%-18s %-22s %-34s %-34s %-6s %s" % (
        "workload", "metric", "base q1 / median / q3",
        "new q1 / median / q3", "won", "verdict")
    print(header)
    for r in rows:
        print("%-18s %-22s %-34s %-34s %-6s %s" % (
            r["workload"], r["metric"] + " (" + r["unit"] + ")",
            " / ".join("%.4g" % v for v in r["base"]),
            " / ".join("%.4g" % v for v in r["new"]),
            "%d/%d" % (r["won"], r["pairs"]), r["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
