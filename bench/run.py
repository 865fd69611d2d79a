#!/usr/bin/env python3
"""Benchmark of ``tlaction``: stage growth, BS(1,2) numbering, orbit
membership and the subshift overlay, end to end and per layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload grow --seed 1 --seconds 30 --trace 0

With ``--trace 0`` a run starts ``WORKERS`` fresh processes in turn; each
repeats whole rounds of the workload's fixed op list within its share of
``--seconds`` and checks every round's outputs outside the timed region.
The run pools their rounds and prints the end-to-end metrics as a JSON
object on its last line.  With ``--trace 1`` one process runs untraced
rounds, then traced rounds, reports the per-layer metrics and the tracing
overhead, and writes the spans and the per-layer table under
``bench/out/``.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

OUT = BENCH / "out"
WORKERS = 3
STARTS = 3  # worker processes started per measuring worker, for set-up time
TAIL_CANDIDATES = (99.9, 99.5, 99, 98, 97.5, 95, 90, 85, 80, 75)


class Timer:
    """Times each op; the latencies of the current round, in op order."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.round: list[float] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # an op that raises is counted, not fatal
            self.failed += 1
            print(f"op {self.attempted - 1} failed: {exc!r}", file=sys.stderr)
            return None
        finally:
            self.round.append(perf_counter() - start)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of n samples beyond it."""
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} ops per round leave no percentile with ten samples beyond it")


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def run_rounds(workload, timer: Timer, seconds: float, tracer=None):
    """Whole rounds within ``seconds`` (at least one): another round starts
    only if one more as long as the last would end in time.

    Returns the rounds' latencies, the fuel and numbering words they
    counted, and whether every output passed its check; a round that
    fails a check, or whose outputs cannot be checked, ends the run.
    """
    rounds: list[list[float]] = []
    fuel = words = 0
    begin = last = perf_counter()
    while True:
        timer.round = []
        try:
            f, w = workload.run_round(timer)
        except Exception as exc:
            print(f"output check failed: {exc!r}", file=sys.stderr)
            rounds.append(timer.round)
            return rounds, fuel, words, False
        fuel += f
        words += w
        rounds.append(timer.round)
        if tracer is not None:
            tracer.end_round()
        now = perf_counter()
        if (now - begin) + (now - last) > seconds:
            return rounds, fuel, words, True
        last = now


def measure(args) -> tuple[dict, int, int, bool]:
    """Run ``WORKERS`` fresh worker processes in turn, each measuring for a
    share of ``args.seconds``, and pool their rounds.  A process's memory
    layout moves its speed, so pooling several processes steadies a run.
    Set-up time is the time from starting a worker to its "ready" line:
    interpreter start, import and the workload's set-up.  It is short and
    moves with the host from one second to the next, so after each
    measuring worker ``STARTS - 1`` more are started and stopped once
    ready, and the run reports the median of all the starts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS), "--worker"]
    setups, rss, rounds = [], [], []
    attempted = failed = 0
    correct = True
    for k in range(WORKERS * STARTS):
        measuring = k % STARTS == 0
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            setups.append(perf_counter() - start)
            if not measuring:
                proc.kill()
            out = proc.stdout.read()
        if ready != "ready\n" or (measuring and proc.returncode != 0):
            raise RuntimeError(f"worker exited {proc.returncode}")
        if not measuring:
            continue
        result = json.loads(out.splitlines()[-1])
        rounds += result["rounds"]
        rss.append(result["peak_rss_mb"])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    return end_to_end(rounds, attempted - failed, statistics.median(setups), statistics.median(rss)), attempted, failed, correct


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[list[float]], done: int, setup_s: float, rss_mb: float) -> dict:
    per_op = [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]
    p = tail_percentile(len(per_op))
    print(f"{len(rounds)} rounds of {len(per_op)} ops; latency is each op's median over rounds; "
          f"tail is p{p:g}", file=sys.stderr)
    return {
        "ops_per_s": metric(done / sum(map(sum, rounds)), "1/s"),
        "op_ms_p50": metric(statistics.median(per_op) * 1e3, "ms"),
        "op_ms_tail": metric(percentile(per_op, p) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer, rounds, fuel: int, words: int) -> dict:
    ops = sum(len(r) for r in rounds)
    calls, self_s = tracer.calls, tracer.self_s
    table = tracer.layer_table()
    out = {}
    for layer, row in table.items():
        out[f"{layer}.self_ms"] = metric(row["self_s"] * 1e3 / ops, "ms/op")

    def count(name, value, unit="calls/op"):
        out[name] = metric(value / ops, unit)

    neighbors = calls["graph.CayleyGraph.neighbors"]
    count("groups.to_index.calls", calls["groups.Numbering.to_index"])
    count("groups.words_enumerated", words, "words/op")
    count("graph.neighbors.calls", neighbors)
    out["graph.neighbors.hit_ratio"] = metric(1 - tracer.neighbor_distinct / neighbors if neighbors else 0.0, "ratio")
    count("paths.karaganis_path.calls", calls["paths.karaganis_path"])
    count("paths.karaganis_path.vertices", tracer.karaganis_vertices, "vertices/op")
    count("decidability.queries", calls["decidability.EndsDecider.find_finite_component"])
    count("decidability.witness_pair.calls", calls["decidability.witness_pair"])
    count("extenders.extend_to_visit.calls", calls["extenders.extend_to_visit"])
    count("action.same_orbit.calls", calls["action.ActionEngine.same_orbit"])
    count("stallings.membership.calls", calls["stallings.z_subgroup_membership"])
    count("stallings.normal_form.calls", calls["stallings.hnn_normal_form"] + calls["stallings.amalgam_normal_form"])
    out["subshift.orbit_positions.self_ms"] = metric(self_s["subshift.orbit_positions"] * 1e3 / ops, "ms/op")
    count("fuel.steps", fuel, "steps/op")
    return out


def traced_run(workload, args) -> dict:
    """Untraced rounds for a quarter of ``args.seconds``, then traced rounds
    for the rest; writes the spans and the per-layer table and returns the
    result object.  The overhead compares the median round of each part."""
    import tracer as tracing

    plain, _, _, correct = run_rounds(workload, Timer(), args.seconds / 4)
    tracer = tracing.Tracer()
    tracer.install()
    timer = Timer(tracer)
    try:
        rounds, fuel, words, ok = run_rounds(workload, timer, args.seconds * 3 / 4, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, rounds, fuel, words)
    untraced_round = statistics.median(map(sum, plain))
    traced_round = statistics.median(map(sum, rounds))
    overhead = traced_round / untraced_round - 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_spans(OUT / f"spans-{stem}.csv")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": len(rounds),
        "ops": timer.attempted,
        "untraced_rounds": len(plain),
        "untraced_round_s": untraced_round,
        "traced_round_s": traced_round,
        "tracing_overhead": overhead,
        "spans_written": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "layers": tracer.layer_table(),
        "functions": {n: {"calls": c, "self_s": tracer.self_s[n]} for n, c in sorted(tracer.calls.items()) if c},
        "metrics": metrics,
    }
    (OUT / f"layers-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"tracing overhead: {overhead:+.1%} per round ({len(rounds)} traced rounds)")
    for layer, row in report["layers"].items():
        print(f"  {layer:13s} self {row['self_s'] * 1e3 / timer.attempted:10.4f} ms/op  calls {row['calls']}")
    return {"correct": correct and ok, "attempted": timer.attempted, "failed": timer.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("grow", "bs12", "orbits", "overlay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "tlaction" / "__init__.py").is_file():
        print(f"no tlaction package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.trace and not args.worker:
        metrics, attempted, failed, correct = measure(args)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0

    sys.path.insert(0, str(SRC))
    import tlaction
    import workloads

    workload = workloads.WORKLOADS[args.workload](tlaction, args.seed)
    if args.worker:
        print("ready", flush=True)
        timer = Timer()
        rounds, _, _, correct = run_rounds(workload, timer, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"correct": correct, "attempted": timer.attempted, "failed": timer.failed,
                          "rounds": rounds, "peak_rss_mb": rss_mb}))
        return 0

    print(json.dumps(traced_run(workload, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
