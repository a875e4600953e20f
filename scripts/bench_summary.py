#!/usr/bin/env python3
"""Summarize paired benchmark runs of two checkouts into one JSON record.

    python scripts/bench_summary.py PARENT_DIR CHANGE_DIR \\
        --parent-sha SHA --change-sha SHA [--out BENCH_<pr>.json]

Each directory is a checkout in which ``bench/run.py`` has written its
reports under ``.bench_out/``: ``<workload>-seed<N>-trace0.json`` for the
timed runs and ``<workload>-seed<N>-trace1.json`` for traced ones.  Every
workload and seed with a timed report on both sides makes one pair.  For
each end-to-end metric of ``BENCHMARK.json`` the record holds both sides'
per-seed values, medians and quartiles, and how many pairs the change
won, lost or tied in the metric's better direction.  The side that ran
first in a pair is the one whose report was written first.  Traced pairs
add both sides' per-layer metrics.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def reports(directory: Path) -> dict:
    """(workload, seed, trace) -> report path, for the reports under .bench_out/."""
    found = {}
    for path in (directory / ".bench_out").glob("*-seed*-trace*.json"):
        workload, _, rest = path.stem.partition("-seed")
        seed, _, trace = rest.partition("-trace")
        found[(workload, int(seed), int(trace))] = path
    return found


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change-sha", required=True)
    ap.add_argument("--out", type=Path, help="write here instead of standard output")
    args = ap.parse_args()

    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    parent, change = reports(args.parent), reports(args.change)
    paired = sorted(key for key in parent if key in change)
    if not paired:
        print("no workload and seed has a report on both sides", file=sys.stderr)
        return 1
    load = {key: (json.loads(parent[key].read_text()), json.loads(change[key].read_text()))
            for key in paired}
    env = load[paired[0]][0]["environment"]
    summary = {
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "host": {k: env[k] for k in ("cpu", "nproc", "python", "numpy")},
        "workloads": {},
        "traced": [],
    }
    for workload in sorted({w for w, _, trace in paired if trace == 0}):
        keys = [key for key in paired if key[0] == workload and key[2] == 0]
        runs = [load[key] for key in keys]
        entry = {
            "seeds": [seed for _, seed, _ in keys],
            "seconds": runs[0][0]["environment"]["seconds"],
            "first": ["parent" if parent[k].stat().st_mtime < change[k].stat().st_mtime
                      else "change" for k in keys],
            "attempted": {"parent": sum(p["attempted"] for p, _ in runs),
                          "change": sum(c["attempted"] for _, c in runs)},
            "failed": {"parent": sum(p["failed"] for p, _ in runs),
                       "change": sum(c["failed"] for _, c in runs)},
            "end_to_end": {},
        }
        for name, direction in better.items():
            p = [r["metrics"][name]["value"] for r, _ in runs]
            c = [r["metrics"][name]["value"] for _, r in runs]
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
            losses = sum(sign * (cv - pv) < 0 for pv, cv in zip(p, c))
            entry["end_to_end"][name] = {
                "unit": runs[0][0]["metrics"][name]["unit"],
                "better": direction,
                "parent": {**spread(p), "runs": p},
                "change": {**spread(c), "runs": c},
                "change_wins": wins,
                "change_losses": losses,
                "ties": len(p) - wins - losses,
            }
        summary["workloads"][workload] = entry
    for workload, seed, trace in paired:
        if trace == 1:
            p, c = load[(workload, seed, trace)]
            summary["traced"].append({
                "workload": workload,
                "seed": seed,
                "parent": {k: v["value"] for k, v in p["metrics"].items()},
                "change": {k: v["value"] for k, v in c["metrics"].items()},
            })
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
