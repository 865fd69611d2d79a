#!/usr/bin/env python3
"""Decide whether deleting vertices leaves a finite component, on the line
and on the grid.

Example:
    python3 scripts/ends_demo.py --deleted " -1 0 1" --deleted "0 2"
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# the package is imported from the checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tlaction import CayleyGraph, EndsDecider, Fuel, builtin_group


def line_index(graph, n: int) -> int:
    return graph.numbering.to_index((1,) * max(n, 0) + (-1,) * max(-n, 0))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--deleted",
        action="append",
        default=None,
        help="space-separated integers to delete from the line (repeatable)",
    )
    ap.add_argument("--fuel", type=int, default=5_000_000)
    args = ap.parse_args()
    raw_sets = args.deleted or ["-1 0 1", "0 2", "-3 -2 -1 0 1 2 3"]
    sets = [[int(x) for x in chunk.split()] for chunk in raw_sets]

    graph = CayleyGraph(builtin_group("Z"))
    dec = EndsDecider(graph, mode="two", separator=frozenset({0}), fuel=Fuel(args.fuel))
    print("line (two ends, separator {0}); every query is augmented with the separator:")
    for pts in sets:
        deleted = [line_index(graph, p) for p in pts]
        verdict = dec.no_finite_component(deleted)
        if verdict:
            print(f"  delete {sorted(set(pts) | {0})}: every remaining component is infinite")
        else:
            comp = dec.find_finite_component(deleted)
            labels = sorted(
                int_of(graph, v) for v in comp
            )
            print(f"  delete {sorted(set(pts) | {0})}: finite component {labels}")

    grid = CayleyGraph(builtin_group("Z2"))
    one = EndsDecider(grid, mode="one", fuel=Fuel(args.fuel))
    from tlaction import ball

    inner = sorted(ball(grid, 0, 1))
    print("\ngrid (one end):")
    print(f"  delete the radius-1 ball: no finite component -> {one.no_finite_component(inner)}")


def int_of(graph, v: int) -> int:
    word = graph.numbering.to_word(v)
    return sum(1 if l > 0 else -1 for l in word)


if __name__ == "__main__":
    main()
