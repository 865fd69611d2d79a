"""Output checks, computed apart from ``tlaction`` and run outside the timed region.

Each check raises :class:`CheckFailed` naming the first violation.  The
inputs are plain data (vertex tuples, answers, letters), so the tests can
feed them corrupted copies of real outputs.  ``None`` stands for the
output of an op that raised: it is counted as failed where it ran, and
the checks pass over it.
"""

from __future__ import annotations

import functools
from typing import Callable, Hashable, Sequence

import arith


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# stage growth (grow, bs12)
# ---------------------------------------------------------------------------


def vertex_elements(group: str, count: int) -> list[Hashable]:
    """Elements named by vertex indices 0..count-1, from the benchmark's own
    shortlex numbering: exponent-sum vectors for Z^d, integer pairs for BS12."""
    if group == "BS12":
        return [arith.bs_element(w) for w in arith.shortlex_words(arith.bs_element, 2, count)]
    d = 1 if group == "Z" else int(group[1:])
    elem = lambda w: arith.zd_element(w, d)  # noqa: E731
    return [elem(w) for w in arith.shortlex_words(elem, d, count)]


@functools.cache
def _bs_ball3() -> frozenset:
    return frozenset(arith.bs_ball(3))


def jump_ok(group: str, g: Hashable, h: Hashable) -> bool:
    """Whether g⁻¹h is a nontrivial element of word length <= 3."""
    if g == h:
        return False
    if group == "BS12":
        return arith.bs_mul(arith.bs_inv(g), h) in _bs_ball3()
    return arith.zd_length(g, h) <= 3


def check_stages(group: str, stages: Sequence[tuple[int, tuple[int, ...]] | None]) -> None:
    """``stages[i]`` is stage i as (lowest position, vertices in position order).

    Stage i visits vertices 0..i and no vertex twice, stage i extends stage
    i-1 exactly with the domain grown on both sides, and every jump is a
    nontrivial group element of length <= 3.  Where a stage is missing
    (None), the next one is compared with the last stage present.
    """
    prev_lo = prev_hi = None
    prev_vs: tuple[int, ...] = ()
    prev_i = -1
    for i, stage in enumerate(stages):
        if stage is None:
            continue
        lo, vs = stage
        hi = lo + len(vs) - 1
        seen = set(vs)
        if len(seen) != len(vs):
            _fail(f"stage {i} visits a vertex twice")
        if not seen.issuperset(range(i + 1)):
            _fail(f"stage {i} misses a vertex of 0..{i}")
        if prev_lo is not None:
            if not (lo < prev_lo and hi > prev_hi):
                _fail(f"stage {i} does not grow on both sides of stage {prev_i}")
            if vs[prev_lo - lo : prev_lo - lo + len(prev_vs)] != prev_vs:
                _fail(f"stage {i} does not extend stage {prev_i} exactly")
        prev_lo, prev_hi, prev_vs, prev_i = lo, hi, vs, i
    if not prev_vs:
        return
    elements = vertex_elements(group, max(prev_vs) + 1)
    for a, b in zip(prev_vs, prev_vs[1:]):
        if not jump_ok(group, elements[a], elements[b]):
            _fail(f"jump {a} -> {b} is longer than 3 in {group}")


# ---------------------------------------------------------------------------
# orbit membership (orbits)
# ---------------------------------------------------------------------------


def orbit_truth(group: str, u: arith.Word, v: arith.Word) -> bool:
    """Whether u and v share a <c>-coset, by the benchmark's own reducer."""
    return arith.MANY_ENDED[group].in_subgroup(arith.inverse(u) + v)


def check_answers(answers: Sequence[bool | None], truth: Sequence[bool]) -> None:
    if len(answers) != len(truth):
        _fail(f"{len(answers)} answers for {len(truth)} queries")
    for k, (got, want) in enumerate(zip(answers, truth)):
        if got is not None and got is not want:
            _fail(f"query {k}: same_orbit gave {got!r}, truth is {want!r}")


# ---------------------------------------------------------------------------
# overlay round trip (overlay)
# ---------------------------------------------------------------------------


def check_overlay(
    z: Callable[[int], object],
    recovered: Sequence[tuple[int, object]],
    orbit_length: int,
    arrows: Sequence[tuple[Hashable, Hashable]],
    xj: object,
    yxj: object,
) -> None:
    """One overlay round trip.

    ``recovered`` holds the (position, letter) pairs phi_map read back; they
    must match the input sequence ``z`` over a domain exactly
    ``orbit_length`` long.  ``arrows`` pairs, for every vertex g of the
    patch, the element its arrow letter r spells with the element
    g⁻¹·(g∗1), both from the benchmark's own arithmetic.  The arrow rule
    must not forbid the patch and the overlay rule must answer
    "false-so-far".
    """
    if len(recovered) != orbit_length:
        _fail(f"recovered {len(recovered)} positions, the identity's orbit has {orbit_length} in the ball")
    for n, letter in recovered:
        if letter != z(n):
            _fail(f"position {n}: read back {letter!r}, wrote {z(n)!r}")
    for got, want in arrows:
        if got != want:
            _fail(f"an arrow letter spells {got!r}, not g^-1 (g*1) = {want!r}")
    if xj is not False:
        _fail(f"xj_forbidden gave {xj!r} on an action patch")
    if yxj != "false-so-far":
        _fail(f"yxj_forbidden gave {yxj!r} on a period-3 overlay")
