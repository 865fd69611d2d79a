#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, alternating.

For each workload, run i of set A (seed 1+i) and run i of set B (seed
101+i) follow each other, A first on even i and B first on odd i.  For
each end-to-end metric the command prints both medians, their quartiles
and spreads (quartile distance over median), and whether they agree
within the metric's bound from BENCHMARK.json: every spread within the
bound, the two medians apart by no more than the bound in either
direction, and the same share of failed ops in both sets.  Every run
lasts ``run_seconds`` from BENCHMARK.json, the length the bounds were set
for.

    python3 bench/steady.py --runs 10                # every workload
    python3 bench/steady.py --runs 5 --workloads orbits

Results also go to bench/out/steady-<workloads>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = {"A": 1, "B": 101}


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload (at least 2)")
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()

    report = {}
    all_agree = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                result = run_once(spec, workload, SEED_BASE[side] + i)
                if not result["correct"]:
                    sys.exit(f"{workload} seed {SEED_BASE[side] + i}: an output check failed")
                sets[side].append(result)
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for s, rs in sets.items()}
        rows = {}
        print(f"{workload}: failed share A {shares['A']:.6g}, B {shares['B']:.6g}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            change = (b["median"] - a["median"]) / a["median"]
            steady = a["spread"] <= bound and b["spread"] <= bound
            agree = steady and abs(change) <= bound and shares["A"] == shares["B"]
            all_agree &= agree
            rows[name] = {"A": a, "B": b, "change": change, "bound": bound, "agree": agree}
            print(f"  {name:12s} A {a['median']:10.4g} [{a['q1']:.4g}, {a['q3']:.4g}] spread {a['spread']:6.1%}"
                  f" | B {b['median']:10.4g} [{b['q1']:.4g}, {b['q3']:.4g}] spread {b['spread']:6.1%}"
                  f" | change {change:+6.1%} bound {bound:.0%} {'agree' if agree else 'DISAGREE'}")
        report[workload] = {"failed_share": shares, "metrics": rows}
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workloads.replace(',', '-')}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
