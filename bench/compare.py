#!/usr/bin/env python3
"""Compare two result sets of the deltaring benchmark.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by bench/run.py (.bench_out/runs.jsonl),
for example the runs of the parent commit and of a change.  Runs are paired
in file order per workload, so make them alternately.  For every workload
and end-to-end metric in BENCHMARK.json it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither),
and a verdict:

- unresolved: a side's quartile spread exceeds the metric's bound, and the
  change's runs do not all read better (or all worse) than the base's;
- gain: the change wins at least 9/10 of the pairs and the medians differ
  by more than the base's own quartile spread;
- regression: the change's median is worse than the base's by more than
  the bound;
- within bound: none of the above.

Per-layer metrics of traced runs are listed with their medians only; they
carry no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            key = (rec["context"]["workload"], rec["context"]["trace"])
            runs.setdefault(key, []).append(rec["result"]["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    worse_share = -sign * (bm - am) / abs(am) if am else 0.0
    if spread > bound and not (all_better or all_worse):
        return "unresolved", win_share
    if win_share >= 0.9 and abs(bm - am) > (a3 - a1):
        return "gain", win_share
    if worse_share > bound:
        return "regression", win_share
    return "within bound", win_share


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(sys.argv[1]), load(sys.argv[2])
    report = []
    for (workload, trace) in sorted(set(base) & set(change)):
        a_runs, b_runs = base[(workload, trace)], change[(workload, trace)]
        metrics = spec["end_to_end"] if trace == 0 else [
            {"name": n, "unit": u, "better": None, "bound": None}
            for n, u in sorted({(k, v["unit"]) for r in a_runs for k, v in r.items()})]
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
              f"{len(a_runs)} base runs, {len(b_runs)} change runs")
        for m in metrics:
            a = [r[m["name"]]["value"] for r in a_runs if m["name"] in r]
            b = [r[m["name"]]["value"] for r in b_runs if m["name"] in r]
            if not a or not b:
                continue
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            row = {"workload": workload, "trace": trace, "metric": m["name"], "unit": m["unit"],
                   "base": [a1, am, a3], "change": [b1, bm, b3]}
            line = (f"  {m['name']:42s} base {am:.4g} [{a1:.4g}, {a3:.4g}]"
                    f"  change {bm:.4g} [{b1:.4g}, {b3:.4g}] {m['unit']}")
            if m["bound"] is not None:
                row["verdict"], row["win_share"] = verdict(a, b, m["better"], m["bound"])
                line += f"  wins {row['win_share']:.0%}  {row['verdict']}"
            print(line)
            report.append(row)
    print(json.dumps({"comparisons": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
