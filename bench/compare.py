"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines ``run.py --out`` appends.  For every
workload and metric it prints both sides' medians and quartiles, the new
median as a ratio of the base median (with the base), how many same-seed
pairs the new side won, and a verdict:

* ``better``: the new side won at least 9 in 10 pairs and the medians
  differ by more than the base's interquartile distance;
* ``worse``: the new median is worse than the base by more than the
  metric's bound in ``BENCHMARK.json``, or, for a metric without a bound,
  the base won 9 in 10 pairs by more than the base's spread;
* ``same``: neither, and the base's spread is within the bound;
* ``unresolved``: neither, and the spread is wider than the bound (or the
  metric has no bound), so no change can be told from noise.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """{(workload, metric): {seed: value}} and the units."""
    runs: dict = collections.defaultdict(dict)
    units: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            r = json.loads(line)
            for name, m in r["metrics"].items():
                runs[(r["workload"], name)][r["seed"]] = m["value"]
                units[name] = m["unit"]
    return runs, units


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, new: dict, lower_is_better: bool, bound: float | None):
    """(verdict, pairs won by new, pairs) for two {seed: value} maps."""
    sign = -1 if lower_is_better else 1
    q1, med_a, q3 = quartiles(list(base.values()))
    _, med_b, _ = quartiles(list(new.values()))
    seeds = sorted(set(base) & set(new))
    won = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    lost = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    iqr = q3 - q1
    gain = sign * (med_b - med_a)
    if seeds and won >= 0.9 * len(seeds) and gain > iqr:
        return "better", won, len(seeds)
    if bound is None:
        if seeds and lost >= 0.9 * len(seeds) and -gain > iqr:
            return "worse", won, len(seeds)
        return "unresolved", won, len(seeds)
    scale = abs(med_a) or 1.0
    if -gain > bound * scale:
        return "worse", won, len(seeds)
    if iqr > bound * scale:
        return "unresolved", won, len(seeds)
    return "same", won, len(seeds)


def main() -> int:
    ap = argparse.ArgumentParser(description="compare two benchmark result sets")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, units = load_runs(args.base)
    new, _ = load_runs(args.new)
    print(f"{'workload':9s} {'metric':34s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'new/base':>8s} {'won':>6s}  verdict")
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = metrics.get(name, {"better": "lower"})
        v, won, pairs = verdict(base[key], new[key], spec["better"] == "lower",
                                spec.get("bound"))
        worse |= v == "worse"
        a, b = quartiles(list(base[key].values())), quartiles(list(new[key].values()))
        ratio = f"{b[1] / a[1]:.3f}" if a[1] else "n/a"
        unit = units.get(name, "")
        print(f"{workload:9s} {name:34s} "
              f"{a[1]:12.5g} [{a[0]:.5g}, {a[2]:.5g}] "
              f"{b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}] {ratio:>8s} "
              f"{won:>3d}/{pairs:<2d}  {v}  (base {a[1]:.5g} {unit}, "
              f"{len(base[key])} vs {len(new[key])} runs)")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
