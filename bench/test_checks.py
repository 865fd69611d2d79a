"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tlaction  # noqa: E402
import arith  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def real_stages(group: str, last: int) -> list[tuple[int, tuple[int, ...]]]:
    engine = tlaction.engine_for(group, tlaction.Fuel(workloads.FUEL))
    return [(f.lo, f.vertices) for f in (engine.build_stage(i) for i in range(last + 1))]


@pytest.fixture(scope="module", params=[("Z2", 40), ("Z", 30), ("BS12", 20)], ids=lambda p: p[0])
def stages(request):
    group, last = request.param
    return group, real_stages(group, last)


def test_real_stages_pass(stages):
    checks.check_stages(*stages)


def test_rejects_repeated_vertex(stages):
    group, st = stages
    lo, vs = st[-1]
    st = st[:-1] + [(lo, vs[:-1] + (vs[0],))]
    with pytest.raises(CheckFailed, match="twice"):
        checks.check_stages(group, st)


def test_rejects_missing_vertex(stages):
    group, st = stages
    lo, vs = st[-1]
    fresh = max(vs) + 1
    st = st[:-1] + [(lo, tuple(fresh if v == len(st) - 1 else v for v in vs))]
    with pytest.raises(CheckFailed, match="misses"):
        checks.check_stages(group, st)


def test_rejects_inexact_extension(stages):
    group, st = stages
    lo, vs = st[-1]
    mid = len(vs) // 2
    st = st[:-1] + [(lo, vs[:mid] + (vs[mid + 1], vs[mid]) + vs[mid + 2:])]
    with pytest.raises(CheckFailed, match="extend"):
        checks.check_stages(group, st)


def test_rejects_one_sided_growth(stages):
    group, st = stages
    st = st[:-1] + [(st[-2][0], st[-1][1])]  # the last stage keeps the old left end
    with pytest.raises(CheckFailed, match="both sides"):
        checks.check_stages(group, st)


RADIUS3_BALL = {"Z": 7, "Z2": 25, "BS12": len(arith.bs_ball(3))}


def test_rejects_long_jump(stages):
    # vertex n names the first element beyond the radius-3 ball
    group, _ = stages
    n = RADIUS3_BALL[group]
    checks.check_stages(group, [(0, (0, n - 1))])
    with pytest.raises(CheckFailed, match="jump"):
        checks.check_stages(group, [(0, (0, n))])


def test_own_numbering_matches_known_words():
    words = arith.shortlex_words(lambda w: arith.zd_element(w, 2), 2, 9)
    assert words == [(), (1,), (-1,), (2,), (-2,), (1, 1), (1, 2), (1, -2), (-1, -1)]
    assert arith.bs_element((2, 1, -2)) == arith.bs_element((1, 1))  # t a t^-1 = a^2


class SmallOrbits(workloads.Orbits):
    MAX_PREFIX = {"FreeF2": 2, "Z2HNN": 2, "Z2starZ3": 3}
    PER_CELL = 2


def test_orbit_answers_pass_and_flip_fails():
    wl = SmallOrbits(tlaction, 7)
    answers = [wl.engines[g].same_orbit(u, v) for g, u, v in wl.queries]
    checks.check_answers(answers, wl.truth)
    assert sum(wl.truth) * 2 == len(wl.truth)  # half members
    flipped = list(answers)
    flipped[3] = not flipped[3]
    with pytest.raises(CheckFailed, match="query 3"):
        checks.check_answers(flipped, wl.truth)


class SmallOverlay(workloads.Overlay):
    PLAN = {"FreeF2": (2,), "Z2starZ3": (3,), "Z2": (3,)}
    REPEATS = 1


@pytest.fixture(scope="module")
def overlay():
    wl = SmallOverlay(tlaction, 3)
    outputs = {}

    def keep(fn, *args):
        out = fn(*args)
        outputs[len(outputs)] = out
        return out

    wl.run_round(keep)
    return wl, [(op, outputs[k]) for k, op in enumerate(wl.ops)]


def with_arrow_r(patch, g, r):
    """The patch with the outgoing offset at vertex g replaced by r."""
    letter, arrow = patch.values[g]
    values = dict(patch.values)
    values[g] = (letter, dataclasses.replace(arrow, r=r))
    return tlaction.PatternPatch(patch.domain, values)


def test_overlay_outputs_pass(overlay):
    wl, results = overlay
    for (group, r, shift), out in results:
        wl._check(group, r, shift, *out)


def test_overlay_rejects_wrong_letter(overlay):
    wl, results = overlay
    for (group, r, shift), (patch, back, xj, yxj) in results:
        bad = tlaction.Segment(back.start, ("x",) + back.letters[1:])
        with pytest.raises(CheckFailed, match="read back"):
            wl._check(group, r, shift, patch, bad, xj, yxj)


def test_overlay_rejects_short_domain(overlay):
    wl, results = overlay
    for (group, r, shift), (patch, back, xj, yxj) in results:
        short = tlaction.Segment(back.start, back.letters[:-1])
        with pytest.raises(CheckFailed, match="orbit"):
            wl._check(group, r, shift, patch, short, xj, yxj)


def test_overlay_rejects_wrong_arrow(overlay):
    wl, results = overlay
    for (group, r, shift), (patch, back, xj, yxj) in results:
        g = patch.domain[-1]
        bad = with_arrow_r(patch, g, patch.values[g][1].l)
        with pytest.raises(CheckFailed, match="arrow"):
            wl._check(group, r, shift, bad, back, xj, yxj)


def test_overlay_rejects_forbidden_verdicts(overlay):
    wl, results = overlay
    (group, r, shift), (patch, back, xj, yxj) = results[0]
    with pytest.raises(CheckFailed, match="xj_forbidden"):
        wl._check(group, r, shift, patch, back, True, yxj)
    for verdict in (True, False):
        with pytest.raises(CheckFailed, match="yxj_forbidden"):
            wl._check(group, r, shift, patch, back, xj, verdict)


class FailingTimer(run.Timer):
    """A timer whose ops at the given indices raise instead of running."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = set(fail_at)

    def __call__(self, fn, *args):
        if self.attempted in self.fail_at:
            def fn(*_):
                raise RuntimeError("injected fault")
        return super().__call__(fn, *args)


class SmallGrow(workloads.Grow):
    PLAN = (("Z2", 12), ("Z", 10))


@pytest.mark.parametrize("make", [
    lambda: SmallGrow(tlaction, 1),
    lambda: SmallOrbits(tlaction, 7),
    lambda: SmallOverlay(tlaction, 3),
], ids=["grow", "orbits", "overlay"])
def test_failed_ops_are_counted_and_the_rest_checked(make):
    wl = make()
    timer = FailingTimer({0, 2})
    rounds, _, _, correct = run.run_rounds(wl, timer, 0)
    assert correct
    assert timer.failed == 2
    assert timer.attempted == len(rounds[0]) >= 3


def test_checks_pass_over_failed_ops_but_not_wrong_outputs(stages):
    group, st = stages
    gapped = st[:5] + [None] + st[6:]
    checks.check_stages(group, gapped)
    lo, vs = st[6]
    with pytest.raises(CheckFailed, match="stage 6 does not extend stage 4"):
        checks.check_stages(group, gapped[:6] + [(lo, vs[1:] + vs[:1])] + gapped[7:])
    checks.check_answers([None, True, False], [True, True, False])
    with pytest.raises(CheckFailed, match="query 1"):
        checks.check_answers([None, False, False], [True, True, False])
