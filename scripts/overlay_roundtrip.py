#!/usr/bin/env python3
"""Encode a period-3 letter sequence onto the grid action and read it back.

Runs the two patch transformers against each other: the sequence is
overlaid onto a ball via the action (psi), then recovered by walking the
arrows from the identity (phi).

Example:
    python3 scripts/overlay_roundtrip.py --radius 4 --shift 1

With ``--digest`` it prints instead the SHA-256 of the round trip (the
patch, the segment read back, and the ``xj_forbidden`` and
``yxj_forbidden`` verdicts), the digest the overlay goldens pin, and the
fuel consumed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

# the package is imported from the checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tlaction import (
    Fuel,
    arrow_projection,
    ball,
    engine_for,
    pattern_patch_to_json,
    period3_enumerator,
    period3_segment,
    phi_map,
    psi_map,
    xj_forbidden,
    yxj_forbidden,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="Z2")
    ap.add_argument("--radius", type=int, default=3, help="ball radius to encode")
    ap.add_argument("--shift", type=int, default=0, help="phase of the period-3 point")
    ap.add_argument("--range", type=int, default=5000, help="sequence covers [-range, range]")
    ap.add_argument("--json", action="store_true", help="also print the patch JSON")
    ap.add_argument("--fuel", type=int, default=200_000_000)
    ap.add_argument("--digest", action="store_true", help="print the round-trip digest and fuel only")
    args = ap.parse_args()

    engine = engine_for(args.group, Fuel(args.fuel))
    graph = engine.graph
    z = period3_segment(-args.range, args.range, shift=args.shift)
    region = ball(graph, 0, args.radius)
    patch = psi_map(engine, z, region)
    if args.digest:
        back = phi_map(graph, patch)
        xj = xj_forbidden(graph, 3, arrow_projection(patch))
        yxj = yxj_forbidden(graph, 3, period3_enumerator(), patch, 6)
        rows = [(g, patch.values[g]) for g in patch.domain]
        digest = hashlib.sha256(repr((rows, (back.start, back.letters), xj, yxj)).encode()).hexdigest()
        print(f"{args.group} radius {args.radius} shift {args.shift}: sha256 {digest}")
        print(f"fuel consumed: {engine.fuel.consumed}")
        return
    print(f"encoded {len(patch.domain)} vertices (ball radius {args.radius}) from the sequence")

    back = phi_map(graph, patch)
    print(f"recovered positions {back.lo}..{back.hi} by walking arrows from the identity:")
    row = "  ".join(f"{n}:{back.at(n)}" for n in back.domain)
    print(f"  {row}")
    mismatches = [n for n in back.domain if back.at(n) != z.at(n)]
    print(f"mismatches against the input sequence: {len(mismatches)}")

    if args.json:
        print(pattern_patch_to_json(graph, patch))


if __name__ == "__main__":
    main()
