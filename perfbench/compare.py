"""Summarise and compare sets of benchmark records written by run.py.

    python3 perfbench/compare.py DIR               # spread of each metric
    python3 perfbench/compare.py BASE_DIR NEW_DIR  # and NEW against BASE

For every workload and end-to-end metric it prints the median of the runs
and their spread, (Q3 - Q1) / median with statistics.quantiles(n=4). With
two sets it prints how much worse NEW's median is than BASE's and checks
that against the metric's bound in BENCHMARK.json. It refuses to mix
records taken on different kernel backends or WAVEMOD_NO_EXT settings, and
exits 1 when a metric is worse than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"no untraced records (*-trace0.json) in {directory}")
    return records


def backends(records):
    return {(r["env"]["backend"], r["env"]["WAVEMOD_NO_EXT"]) for r in records}


def summarise(records, metric):
    """workload -> (median, spread, run count)"""
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r["metrics"][metric]["value"])
    out = {}
    for workload, values in sorted(by_workload.items()):
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        out[workload] = (med, spread, len(values))
    return out


def main(argv):
    if len(argv) not in (1, 2):
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    kinds = set().union(*(backends(s) for s in sets))
    if len(kinds) > 1:
        print(f"refusing to compare records from different backends: {sorted(kinds)}",
              file=sys.stderr)
        return 2
    for records, name in zip(sets, argv):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{name}: {len(records)} runs, {failed}/{attempted} operations failed")

    worse_than_bound = False
    print(f"{'metric':<18}{'workload':<15}{'median':>14}{'spread':>8}{'bound':>7}", end="")
    print(f"{'new median':>14}{'worse by':>10}" if len(sets) == 2 else "")
    for m in spec["end_to_end"]:
        base = summarise(sets[0], m["name"])
        new = summarise(sets[1], m["name"]) if len(sets) == 2 else {}
        for workload, (med, spread, _) in base.items():
            line = f"{m['name']:<18}{workload:<15}{med:>14.6g}{spread:>8.3f}{m['bound']:>7}"
            if workload in new:
                new_med = new[workload][0]
                worse = (new_med - med) / med if m["better"] == "lower" else (med - new_med) / med
                flag = " OVER BOUND" if worse > m["bound"] else ""
                worse_than_bound |= bool(flag)
                line += f"{new_med:>14.6g}{worse:>10.3f}{flag}"
            print(line)
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
