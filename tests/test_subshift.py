"""Arrow-layer patterns, the two patch transformers, and the period-3 overlay."""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from tlaction import (
    FALSE_SO_FAR,
    PERIOD3_ALPHABET,
    ArrowLetter,
    ConfigError,
    Fuel,
    FuelExhausted,
    InvariantError,
    PatternCoding,
    PatternPatch,
    Segment,
    action_patch,
    arrow_projection,
    ball,
    builtin_group,
    coding_to_pattern,
    engine_for,
    orbit_positions,
    pattern_patch_from_json,
    pattern_patch_to_json,
    period3_enumerator,
    period3_forbidden_words,
    period3_letter,
    period3_segment,
    phi_map,
    psi_map,
    recenter,
    star_walk,
    word_to_str,
    xj_forbidden,
    yxj_forbidden,
)
from tlaction import stallings

from oracles import round_trip_arrows, round_trip_star_walk

BUDGET = 10_000


@pytest.fixture(scope="module")
def z2():
    eng = engine_for("Z2", Fuel(100_000_000))
    eng.build_stage(40)
    return eng


def const_arrow_patch(domain, l=(-1,), r=(1,)):
    arrow = ArrowLetter(l=l, r=r)
    return PatternPatch(tuple(domain), {v: arrow for v in domain})


# -- codings -------------------------------------------------------------------


def test_coding_consistent_merges_spellings():
    oracle = builtin_group("Z2")
    coding = PatternCoding((((1, -1), "x"), ((), "x"), ((1,), "y")))
    patch = coding_to_pattern(oracle, coding)
    assert patch.domain == (0, 1)
    assert patch.values[0] == "x" and patch.values[1] == "y"


def test_coding_inconsistent_rejected():
    oracle = builtin_group("Z2")
    coding = PatternCoding((((1, -1), "x"), ((), "y")))
    with pytest.raises(ConfigError):
        coding_to_pattern(oracle, coding)


def test_coding_without_normal_key_uses_word_problem():
    oracle = dataclasses.replace(
        builtin_group("Z2"), normal_key=None, fast_index=None, fast_word=None, key_step=None
    )
    assert coding_to_pattern(oracle, PatternCoding((((1, -1), "x"), ((), "x")))).domain == (0,)
    with pytest.raises(ConfigError, match="inconsistent coding"):
        coding_to_pattern(oracle, PatternCoding((((2, -2), "x"), ((), "y"))))


def test_constant_coding():
    oracle = builtin_group("Z2")
    pairs = tuple((w, "c") for w in [(), (1,), (-1,), (2,), (-2,)])
    patch = coding_to_pattern(oracle, PatternCoding(pairs))
    assert set(patch.values.values()) == {"c"}
    assert patch.domain == (0, 1, 2, 3, 4)


# -- star walks -----------------------------------------------------------------


def test_star_walk_zero_steps(z2):
    patch = const_arrow_patch(ball(z2.graph, 0, 1))
    assert star_walk(z2.graph, patch, 0, 0) == 0


def test_star_walk_single_steps(z2):
    graph = z2.graph
    patch = const_arrow_patch(ball(graph, 0, 1))
    a = graph.numbering.to_index((1,))
    a_inv = graph.numbering.to_index((-1,))
    assert star_walk(graph, patch, 0, 1) == a
    assert star_walk(graph, patch, 0, -1) == a_inv


def test_star_walk_exits_domain(z2):
    graph = z2.graph
    patch = const_arrow_patch(ball(graph, 0, 1))
    # the final vertex may land outside; reading an arrow there may not
    two = star_walk(graph, patch, 0, 2)
    assert two == graph.numbering.to_index((1, 1))
    assert star_walk(graph, patch, 0, 3) is None
    assert star_walk(graph, patch, two, 1) is None


# -- forbidden ball patterns -----------------------------------------------------


def test_fixed_point_arrow_is_forbidden(z2):
    graph = z2.graph
    patch = const_arrow_patch(ball(graph, 0, 1), l=(), r=())
    assert xj_forbidden(graph, 3, patch)


def test_incoherent_adjacent_arrows_forbidden(z2):
    graph = z2.graph
    dom = sorted(ball(graph, 0, 1))
    a = graph.numbering.to_index((1,))
    values = {v: ArrowLetter(l=(-1,), r=(1,)) for v in dom}
    values[a] = ArrowLetter(l=(1,), r=(1,))  # (1*1)*-1 lands at a^2, not e
    assert xj_forbidden(graph, 3, PatternPatch(tuple(dom), values))


def test_translation_restriction_not_forbidden(z2):
    graph = z2.graph
    patch = action_patch(z2, ball(graph, 0, 2))
    assert not xj_forbidden(graph, 3, patch)


def test_recentered_restrictions_not_forbidden(z2):
    graph = z2.graph
    for center in (1, 7, 12):
        raw = action_patch(z2, ball(graph, center, 1))
        patch = recenter(graph, raw, center)
        assert not xj_forbidden(graph, 3, patch)


@pytest.mark.parametrize(
    "group, least_j", [("Z2", 3), ("Z2starZ3", 2), ("FreeF2", 1), ("Z2HNN", 1)]
)
def test_action_patch_rejects_arrows_outside_the_ball(group, least_j):
    # the least J whose ball holds every arrow offset of the radius-2 patch
    eng = engine_for(group, Fuel(100_000_000))
    region = ball(eng.graph, 0, 2)
    for J in (1, 2, 3):
        if J < least_j:
            with pytest.raises(ConfigError, match=f"leaves the radius-{J} ball"):
                action_patch(eng, region, J)
        else:
            assert len(action_patch(eng, region, J).domain) == len(region)


# the overlay benchmark's smallest ball radius per group
SMALLEST_OVERLAY_RADIUS = {"FreeF2": 1, "Z2HNN": 2, "Z2starZ3": 3, "Z2": 5}


@pytest.mark.parametrize("name, radius", sorted(SMALLEST_OVERLAY_RADIUS.items()))
def test_walks_and_arrows_match_word_round_trips(name, radius):
    eng = engine_for(name, Fuel(100_000_000))
    region = sorted(ball(eng.graph, 0, radius))
    patch = action_patch(eng, region)
    assert {g: (a.l, a.r) for g, a in patch.values.items()} == round_trip_arrows(eng, region)
    for g in region:
        for m in range(-3, 4):
            want = round_trip_star_walk(eng.graph, patch, g, m)
            assert star_walk(eng.graph, patch, g, m) == want


@pytest.mark.parametrize("name", ["Z2", "FreeF2"])
def test_walks_along_non_canonical_offsets_match_word_round_trips(name):
    # a*a^-1*a passes g·a on its way back to g·a, and for g on the sphere
    # g·a may lie outside the ball: the step must not need the domain
    eng = engine_for(name, Fuel(100_000_000))
    graph = eng.graph
    region = ball(graph, 0, 2)
    text = json.dumps(
        {
            "domain": [word_to_str(graph.numbering.to_word(v), ("a", "b")) for v in region],
            "B": [["b^-1*a^-1*b", "a*a^-1*a"]] * len(region),
        }
    )
    patch = pattern_patch_from_json(graph, text)
    assert patch.values[0] == ArrowLetter(l=(-2, -1, 2), r=(1, -1, 1))
    stepped_outside = False
    for g in patch.domain:
        for m in range(-3, 4):
            got = star_walk(graph, patch, g, m)
            assert got == round_trip_star_walk(graph, patch, g, m)
        stepped_outside |= graph.step(g, 1) not in patch.values
    assert stepped_outside


def test_xj_requires_ball_domain(z2):
    graph = z2.graph
    a = graph.numbering.to_index((1,))
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 3, const_arrow_patch({a}))  # no identity vertex
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 3, const_arrow_patch({0, 5}))  # not a ball
    b2 = ball(graph, 0, 2)
    outside = min(ball(graph, 0, 3) - b2)
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 3, const_arrow_patch(b2 | {outside}))
    on_sphere = min(b2 - ball(graph, 0, 1))
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 3, const_arrow_patch(b2 - {on_sphere}))
    for r in (0, 1, 3):
        assert xj_forbidden(graph, 3, const_arrow_patch(ball(graph, 0, r))) is False


def test_xj_requires_offsets_in_ball(z2):
    graph = z2.graph
    patch = const_arrow_patch(ball(graph, 0, 1), l=(-1,), r=(1, 1, 1, 1))
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 3, patch)
    with pytest.raises(ConfigError):
        xj_forbidden(graph, 0, const_arrow_patch(ball(graph, 0, 1)))
    for offset in ((0,), (3,), (1, -3)):
        with pytest.raises(ConfigError, match="is not in the group's alphabet"):
            xj_forbidden(graph, 3, const_arrow_patch(ball(graph, 0, 1), r=offset))


# -- overlay rules ----------------------------------------------------------------


def overlay(patch: PatternPatch, letter_at) -> PatternPatch:
    return PatternPatch(
        patch.domain, {v: (letter_at(v), patch.values[v]) for v in patch.domain}
    )


def test_yxj_flags_forbidden_projection(z2):
    graph = z2.graph
    bad = const_arrow_patch(ball(graph, 0, 1), l=(), r=())
    patch = overlay(bad, lambda v: "circle")
    assert yxj_forbidden(graph, 3, period3_enumerator(), patch, BUDGET) is True


def test_yxj_flags_forbidden_overlay_word(z2):
    graph = z2.graph
    region = ball(graph, 0, 3)
    z = Segment(-3000, ("circle",) * 6001)  # constant overlay breaks the cycle
    patch = psi_map(z2, z, region)
    assert yxj_forbidden(graph, 3, period3_enumerator(), patch, BUDGET) is True


def test_yxj_false_so_far_on_valid_overlay(z2):
    graph = z2.graph
    z = period3_segment(-3000, 3000)
    patch = psi_map(z2, z, ball(graph, 0, 2))
    assert yxj_forbidden(graph, 3, period3_enumerator(), patch, BUDGET) == FALSE_SO_FAR


def test_yxj_empty_enumerator_is_false_so_far(z2):
    graph = z2.graph
    patch = overlay(action_patch(z2, ball(graph, 0, 1)), lambda v: "circle")
    assert yxj_forbidden(graph, 3, iter(()), patch, BUDGET) == FALSE_SO_FAR


def test_yxj_refuses_a_negative_budget(z2):
    graph = z2.graph
    patch = overlay(action_patch(z2, ball(graph, 0, 1)), lambda v: "circle")
    with pytest.raises(ConfigError, match="enum_budget must be at least 0"):
        yxj_forbidden(graph, 3, period3_enumerator(), patch, -1)


def test_arrow_projection_strips_overlay(z2):
    graph = z2.graph
    raw = action_patch(z2, ball(graph, 0, 1))
    proj = arrow_projection(overlay(raw, lambda v: "square"))
    assert proj.values == raw.values
    with pytest.raises(InvariantError):
        arrow_projection(PatternPatch((0,), {0: "bare-letter"}))


# -- segments and the two transformers ---------------------------------------------


def test_segment_accessors():
    z = Segment(-2, ("p", "q", "r"))
    assert (z.lo, z.hi) == (-2, 0)
    assert list(z.domain) == [-2, -1, 0]
    assert z.at(-1) == "q"
    assert len(z) == 3
    with pytest.raises(ConfigError):
        z.at(1)


def test_phi_reads_orbit_letters(z2):
    graph = z2.graph
    z = period3_segment(-3000, 3000)
    patch = psi_map(z2, z, ball(graph, 0, 3))
    got = phi_map(graph, patch)
    assert got.at(0) == z.at(0)
    assert got.lo < 0 < got.hi  # walks extend both ways inside a radius-3 ball
    for n in got.domain:
        assert got.at(n) == z.at(n)


def test_phi_on_single_vertex(z2):
    patch = PatternPatch((0,), {0: ("square", ArrowLetter(l=(-1,), r=(1,)))})
    z = phi_map(z2.graph, patch)
    assert (z.lo, z.hi) == (0, 0)
    assert z.at(0) == "square"


def test_phi_requires_identity(z2):
    patch = PatternPatch((1,), {1: ("square", ArrowLetter(l=(-1,), r=(1,)))})
    with pytest.raises(ConfigError):
        phi_map(z2.graph, patch)


def test_phi_rejects_cyclic_walk(z2):
    graph = z2.graph
    dom = sorted(ball(graph, 0, 1))
    a = graph.numbering.to_index((1,))
    values = {v: ("x", ArrowLetter(l=(-2,), r=(1,))) for v in dom}
    values[a] = ("x", ArrowLetter(l=(-2,), r=(-1,)))  # 0 -> a -> 0 -> ...
    with pytest.raises(InvariantError):
        phi_map(graph, PatternPatch(tuple(dom), values))


def test_psi_single_vertex_matches_action(z2):
    graph = z2.graph
    num = z2.numbering
    z = period3_segment(-10, 10)
    patch = psi_map(z2, z, [0])
    letter, arrow = patch.values[0]
    assert letter == z.at(0) == "circle"
    assert num.to_index(arrow.r) == z2.act(0, 1)
    assert num.to_index(arrow.l) == z2.act(0, -1)


def test_psi_arrows_realize_the_action(z2):
    graph = z2.graph
    num = z2.numbering
    region = sorted(ball(graph, 0, 2))
    z = period3_segment(-3000, 3000)
    patch = psi_map(z2, z, region)
    for g in region:
        _, arrow = patch.values[g]
        wg = num.to_word(g)
        assert num.to_index(wg + arrow.r) == z2.act(g, 1)
        assert num.to_index(wg + arrow.l) == z2.act(g, -1)


def test_psi_insufficient_segment_names_range(z2):
    graph = z2.graph
    with pytest.raises(ConfigError) as exc:
        psi_map(z2, period3_segment(0, 1), ball(graph, 0, 1))
    assert "needs" in str(exc.value)


def test_psi_letters_follow_orbit_position(z2):
    graph = z2.graph
    region = sorted(ball(graph, 0, 2))
    z = period3_segment(-3000, 3000)
    patch = psi_map(z2, z, region)
    positions = orbit_positions(z2, region)
    for g in region:
        letter, _ = patch.values[g]
        assert letter == z.at(positions[g])


def test_phi_psi_round_trip(z2):
    graph = z2.graph
    z = period3_segment(-3000, 3000, shift=1)
    patch = psi_map(z2, z, ball(graph, 0, 3))
    back = phi_map(graph, patch)
    for n in back.domain:
        assert back.at(n) == z.at(n)


def test_orbit_positions_transitive(z2):
    region = range(8)
    positions = orbit_positions(z2, region)
    assert positions[0] == 0
    f = z2.current_path()
    for g in region:
        assert f.at(positions[g] + z2.ensure_visited(0)) == g


def test_orbit_positions_subgroup_mode():
    eng = engine_for("FreeF2", Fuel(10_000_000))
    num = eng.numbering
    e, a, ai, b = 0, num.to_index((1,)), num.to_index((-1,)), num.to_index((2,))
    ba = num.to_index((2, 1))
    positions = orbit_positions(eng, [e, a, ai, b, ba])
    assert positions == {e: 0, a: 1, ai: -1, b: 0, ba: 1}


@pytest.mark.parametrize("name", ["FreeF2", "Z2HNN", "Z2starZ3"])
def test_orbit_positions_read_one_normal_form_per_vertex(monkeypatch, name):
    eng = engine_for(name, Fuel(10_000_000))
    region = sorted(ball(eng.graph, 0, 4))
    same_orbit_calls = []
    normal_forms = []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    eng.same_orbit = counted(same_orbit_calls, eng.same_orbit)
    for fn in ("hnn_normal_form", "amalgam_normal_form"):
        monkeypatch.setattr(stallings, fn, counted(normal_forms, getattr(stallings, fn)))
    positions = orbit_positions(eng, region)
    assert sorted(positions) == region
    assert same_orbit_calls == []
    assert len(normal_forms) == len(region)


def test_orbit_positions_respects_fuel():
    # the ball comes from its own engine: building it costs fuel too
    region = ball(engine_for("FreeF2", Fuel(10_000_000)).graph, 0, 6)
    assert len(region) == 1457
    start = time.perf_counter()
    with pytest.raises(FuelExhausted):
        orbit_positions(engine_for("FreeF2", Fuel(2_000)), region)
    assert time.perf_counter() - start < 1.0


def test_recenter_moves_center_to_identity(z2):
    graph = z2.graph
    center = 7
    raw = action_patch(z2, ball(graph, center, 1))
    patch = recenter(graph, raw, center)
    assert 0 in patch.values
    assert len(patch.domain) == len(raw.domain)


# -- the period-3 subshift ----------------------------------------------------------


def test_period3_successor_rule():
    assert PERIOD3_ALPHABET == ("circle", "square", "rhombus")
    for n in range(-9, 9):
        a, b = period3_letter(n), period3_letter(n + 1)
        assert (a, b) not in period3_forbidden_words()
    assert period3_letter(0) == "circle"
    assert period3_letter(0, shift=1) == "square"


def test_period3_forbidden_words_complete():
    words = period3_forbidden_words()
    assert len(words) == 6
    assert len(set(words)) == 6
    allowed = {("circle", "square"), ("square", "rhombus"), ("rhombus", "circle")}
    assert set(words) == {
        (a, b) for a in PERIOD3_ALPHABET for b in PERIOD3_ALPHABET
    } - allowed
    assert list(period3_enumerator()) == list(words)


def test_period3_segment_bounds():
    z = period3_segment(-3, 3)
    assert [z.at(n) for n in (-1, 0, 1)] == ["rhombus", "circle", "square"]
    with pytest.raises(ConfigError):
        period3_segment(2, 1)


# -- JSON interchange -----------------------------------------------------------------


def test_arrow_patch_json_round_trip(z2):
    graph = z2.graph
    patch = action_patch(z2, ball(graph, 0, 1))
    text = pattern_patch_to_json(graph, patch)
    doc = json.loads(text)
    assert set(doc) == {"domain", "B"}
    back = pattern_patch_from_json(graph, text)
    assert back.domain == patch.domain
    assert back.values == dict(patch.values)


def test_overlay_patch_json_round_trip(z2):
    graph = z2.graph
    z = period3_segment(-3000, 3000)
    patch = psi_map(z2, z, ball(graph, 0, 1))
    text = pattern_patch_to_json(graph, patch)
    doc = json.loads(text)
    assert set(doc) == {"domain", "A", "B"}
    back = pattern_patch_from_json(graph, text)
    assert back.values == dict(patch.values)


def test_letter_patch_json_round_trip(z2):
    graph = z2.graph
    patch = PatternPatch((0, 1), {0: "x", 1: "y"})
    text = pattern_patch_to_json(graph, patch)
    assert set(json.loads(text)) == {"domain", "A"}
    back = pattern_patch_from_json(graph, text)
    assert back.values == {0: "x", 1: "y"}


def test_patch_json_rejects_garbage(z2):
    graph = z2.graph
    with pytest.raises(ConfigError):
        pattern_patch_from_json(graph, "not json{")
    with pytest.raises(ConfigError):
        pattern_patch_from_json(graph, json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        pattern_patch_from_json(graph, json.dumps({"domain": ["e"]}))  # no layer
    with pytest.raises(ConfigError):
        pattern_patch_from_json(
            graph, json.dumps({"domain": ["e", "a"], "A": ["x"]})
        )  # length mismatch
    with pytest.raises(ConfigError):
        pattern_patch_from_json(
            graph, json.dumps({"domain": ["e", "a a^-1"], "A": ["x", "y"]})
        )  # repeated element


def test_patch_json_rejects_mixed_kinds(z2):
    graph = z2.graph
    mixed = PatternPatch((0, 1), {0: ArrowLetter(l=(-1,), r=(1,)), 1: "x"})
    with pytest.raises(InvariantError):
        pattern_patch_to_json(graph, mixed)


def test_patch_totality_enforced():
    with pytest.raises(InvariantError):
        PatternPatch((0, 1), {0: "x"})
