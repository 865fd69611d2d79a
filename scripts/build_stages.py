#!/usr/bin/env python3
"""Build the realized translation stage by stage and print what it visits.

Example:
    python3 scripts/build_stages.py --group Z2 --stages 12

With ``--digest`` it prints instead the SHA-256 of every stage's
``(lo, vertices)`` in order, the digest the stage goldens pin, the fuel
consumed and the number of words the numbering holds.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

# the package is imported from the checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tlaction import Fuel, engine_for, word_to_str


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="Z2", help="built-in group name")
    ap.add_argument("--stages", type=int, default=12, help="last stage to build")
    ap.add_argument("--window", type=int, default=6, help="translation half-width to print")
    ap.add_argument("--fuel", type=int, default=50_000_000)
    ap.add_argument("--digest", action="store_true", help="print the digest, fuel and numbering size only")
    args = ap.parse_args()

    engine = engine_for(args.group, Fuel(args.fuel))
    if engine.mode != "transitive":
        ap.error(
            f"group {args.group} acts through a cyclic subgroup; stages exist "
            "only for one- or two-ended groups (try Z, Z2, Zd, BS12)"
        )
    if args.digest:
        stages = [(f.lo, f.vertices) for f in map(engine.build_stage, range(args.stages + 1))]
        digest = hashlib.sha256(repr(stages).encode()).hexdigest()
        print(f"{args.group} stages 0..{args.stages}: sha256 {digest}")
        print(f"fuel consumed: {engine.fuel.consumed}")
        print(f"numbering words: {engine.numbering.known_count()}")
        return
    names = engine.oracle.generator_names

    def label(v: int) -> str:
        return word_to_str(engine.numbering.to_word(v), names)

    print(f"group {args.group}: stages 0..{args.stages}")
    for i in range(args.stages + 1):
        f = engine.build_stage(i)
        print(
            f"  stage {i:3d}: domain [{f.lo}, {f.hi}]"
            f"  visits v0..v{i}  newest -> {label(i)}"
        )

    print(f"\nrealized translation around v0 (position of e is {engine.ensure_visited(0)}):")
    for n in range(-args.window, args.window + 1):
        v = engine.act(0, n)
        marker = " <- e" if n == 0 else ""
        print(f"  e * {n:3d} = {label(v)}{marker}")
    print(f"\nfuel consumed: {engine.fuel.consumed}")


if __name__ == "__main__":
    main()
