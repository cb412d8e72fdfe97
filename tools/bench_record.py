"""Collect benchmark results from two checkouts into one speed record.

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT > BENCH_<n>.json

Reads every ``.perfbench_out/result-<workload>-seed<N>-trace<T>.json`` that
``perfbench/run.py`` left in each checkout (one file per workload, seed and
trace flag, so run each pair of sides on its own seed).  For each workload
and end-to-end metric it writes each side's per-seed values, median and
quartiles and, over the seeds both sides ran, how many pairs the change won
(ties count for neither side).  Traced runs are listed per seed.  Each side
is identified by its git SHA, source digest, software versions and CPU
count as ``run.py`` recorded them.  Standard library only; it reads results
and changes no metric, bound or workload.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")
SIDES = ("parent", "change")


def load_results(checkout: Path) -> list[dict]:
    """Every result file of one checkout, with its workload, seed and trace."""
    out = []
    for path in sorted((checkout / ".perfbench_out").glob("result-*.json")):
        match = RESULT.fullmatch(path.name)
        if match is None:
            continue
        data = json.loads(path.read_text())
        out.append({
            "workload": match["workload"],
            "seed": int(match["seed"]),
            "trace": int(match["trace"]),
            "env": data["env"],
            "metrics": {k: m["value"] for k, m in data["metrics"].items()},
        })
    return out


def summary(values: dict[int, float]) -> dict:
    """Per-seed values with their median and quartiles (inclusive method)."""
    ordered = sorted(values.values())
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {
        "values": {str(seed): values[seed] for seed in sorted(values)},
        "median": median,
        "q1": q1,
        "q3": q3,
    }


def record(parent: Path, change: Path) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    results = {"parent": load_results(parent), "change": load_results(change)}

    sides = {}
    for side in SIDES:
        envs = {json.dumps(r["env"], sort_keys=True) for r in results[side]}
        sides[side] = [json.loads(e) for e in sorted(envs)]

    workloads: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    for side in SIDES:
        for r in results[side]:
            if r["trace"]:
                traced.setdefault(r["workload"], {}).setdefault(str(r["seed"]), {})[
                    side
                ] = r["metrics"]
                continue
            per_metric = workloads.setdefault(r["workload"], {})
            for name, value in r["metrics"].items():
                per_metric.setdefault(name, {s: {} for s in SIDES})[side][r["seed"]] = value

    out_workloads = {}
    for workload, per_metric in sorted(workloads.items()):
        metrics = {}
        for name, by_side in per_metric.items():
            meta = declared.get(name, {})
            entry = {"unit": meta.get("unit"), "better": meta.get("better"),
                     "bound": meta.get("bound")}
            for side in SIDES:
                if by_side[side]:
                    entry[side] = summary(by_side[side])
            paired = sorted(set(by_side["parent"]) & set(by_side["change"]))
            wins = 0
            for seed in paired:
                p, c = by_side["parent"][seed], by_side["change"][seed]
                if (c < p) if meta.get("better") == "lower" else (c > p):
                    wins += 1
            entry["paired_seeds"] = len(paired)
            entry["change_wins"] = wins
            metrics[name] = entry
        out_workloads[workload] = metrics
    return {"sides": sides, "workloads": out_workloads, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    json.dump(record(args.parent, args.change), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
