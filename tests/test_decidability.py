"""The ends decider and bi-extensibility decisions."""

from __future__ import annotations

import pytest

from tlaction import (
    CayleyGraph,
    ConfigError,
    EndsDecider,
    EndsDeclarationError,
    FinitePatch,
    Fuel,
    FuelExhausted,
    ThreePath,
    ball,
    builtin_group,
    engine_for,
)
from tlaction import decidability, extenders
from tlaction.decidability import _boundary_vertices, _finite_component_steps, witness_pair
from tlaction.extenders import state_from_path

from oracles import grid_no_finite_component


@pytest.fixture(scope="module")
def z2():
    return CayleyGraph(builtin_group("Z2"))


@pytest.fixture(scope="module")
def z():
    return CayleyGraph(builtin_group("Z"))


def z2_indices(graph, coords):
    """Vertex indices of integer coordinate pairs (x = a-exponent, y = b)."""
    num = graph.numbering
    out = []
    for x, y in coords:
        word = (1,) * max(x, 0) + (-1,) * max(-x, 0) + (2,) * max(y, 0) + (-2,) * max(-y, 0)
        out.append(num.to_index(word))
    return out


def z_index(graph, n):
    return graph.numbering.to_index((1,) * max(n, 0) + (-1,) * max(-n, 0))


def one_ended(graph, fuel):
    return EndsDecider(graph, mode="one", fuel=Fuel(fuel))


def two_ended(graph, fuel):
    """The line's decider, separated at the identity."""
    return EndsDecider(graph, mode="two", separator=frozenset({0}), fuel=Fuel(fuel))


def exhausts_finite_component_search(graph, deleted, fuel):
    """Whether the finite-component search alone runs out of fuel: it halts
    only when a finite component exists."""
    try:
        for witness in _finite_component_steps(graph, frozenset(deleted), Fuel(fuel)):
            if witness is not None:
                return False
    except FuelExhausted:
        return True


# -- finite-component witnesses -------------------------------------------------


def test_semidecide_finds_isolated_origin(z2):
    cross = z2_indices(z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert one_ended(z2, 200_000).find_finite_component(cross) == (0,)


def test_semidecide_exhausts_on_two_rays(z):
    assert two_ended(z, 4_000).find_finite_component([z_index(z, 0)]) is None
    assert exhausts_finite_component_search(z, [z_index(z, 0)], 4_000)


def test_semidecide_exhausts_on_annulus(z2):
    assert one_ended(z2, 4_000).find_finite_component(ball(z2, 0, 1)) is None
    assert exhausts_finite_component_search(z2, ball(z2, 0, 1), 4_000)


# -- one-ended decider ------------------------------------------------------------


def test_one_end_ball_deletion_true(z2):
    assert one_ended(z2, 500_000).no_finite_component(ball(z2, 0, 1))


def test_one_end_isolating_cross_false(z2):
    cross = z2_indices(z2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert not one_ended(z2, 500_000).no_finite_component(cross)


def test_one_end_bs12_identity_true():
    bs = CayleyGraph(builtin_group("BS12"))
    assert one_ended(bs, 2_000_000).no_finite_component([0])


def test_one_end_random_verdicts_match_window_oracle(z2, rng):
    for _ in range(40):
        pts = {
            (rng.randrange(-2, 3), rng.randrange(-2, 3))
            for _ in range(rng.randrange(1, 5))
        }
        expected = grid_no_finite_component(pts, dim=2)
        got = one_ended(z2, 2_000_000).no_finite_component(z2_indices(z2, sorted(pts)))
        assert got == expected, pts


# -- two-ended decider -------------------------------------------------------------


def test_two_ends_examples(z):
    assert z_index(z, 0) == 0  # the separator
    three = [z_index(z, k) for k in (-1, 0, 1)]
    assert two_ended(z, 500_000).no_finite_component(three)
    gap = [z_index(z, 0), z_index(z, 2)]
    assert not two_ended(z, 500_000).no_finite_component(gap)
    seven = [z_index(z, k) for k in range(-3, 4)]
    assert two_ended(z, 500_000).no_finite_component(seven)


def test_two_ends_random_verdicts_match_window_oracle(z, rng):
    for _ in range(40):
        pts = {0} | {rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))}
        expected = grid_no_finite_component(pts, dim=1)
        got = two_ended(z, 1_000_000).no_finite_component(
            [z_index(z, p) for p in sorted(pts)]
        )
        assert got == expected, pts


def test_decider_augments_separator(z):
    dec = EndsDecider(z, mode="two", separator=frozenset({0}), fuel=Fuel(500_000))
    # query {2} alone: augmented to {0, 2}, which pins {1} as a finite component
    assert dec.augmented([z_index(z, 2)]) == frozenset({0, z_index(z, 2)})
    assert not dec.no_finite_component([z_index(z, 2)])
    comp = dec.find_finite_component([z_index(z, 2)])
    assert comp == (z_index(z, 1),)


def test_two_ends_requires_separator(z):
    with pytest.raises(ConfigError):
        EndsDecider(z, mode="two")
    with pytest.raises(ConfigError):
        EndsDecider(z, mode="two", separator=frozenset())


# -- inconsistent declarations -------------------------------------------------


def path_patch(n):
    return FinitePatch(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))


def cycle_patch(n):
    return FinitePatch(tuple(range(n)), tuple(sorted((i, i + 1) for i in range(n - 1)) + [(0, n - 1)]))


def test_two_ended_with_one_boundary_vertex_is_inconsistent():
    # the end of a path leaves a single boundary vertex, not two sides
    dec = EndsDecider(path_patch(8), mode="two", separator=frozenset({0}), fuel=Fuel(10_000))
    with pytest.raises(EndsDeclarationError, match="only 1 boundary class"):
        dec.find_finite_component([])


def test_exhausted_complement_is_inconsistent():
    # two 9-vertex arcs of a 20-cycle: the connectivity search runs out of
    # both in 6 rounds, before the growing ball closes one (round 8)
    dec = EndsDecider(cycle_patch(20), mode="one", fuel=Fuel(10_000))
    with pytest.raises(EndsDeclarationError, match="exhausted a finite graph"):
        dec.find_finite_component([0, 10])


def test_both_searches_halting_is_inconsistent():
    # a triangle less a vertex: the edge left is closed, and its two ends
    # join, in the first round
    dec = EndsDecider(cycle_patch(3), mode="one", fuel=Fuel(10_000))
    with pytest.raises(EndsDeclarationError, match="both"):
        dec.find_finite_component([0])


def test_decider_mode_validation(z):
    with pytest.raises(ConfigError):
        EndsDecider(z, mode="three")


# -- carried boundaries ----------------------------------------------------------


@pytest.mark.parametrize("group,last", [("Z", 100), ("Z2", 100), ("Z3", 60), ("BS12", 50)])
def test_carried_boundary_matches_full_scan(monkeypatch, group, last):
    # every query of real stage growth starts the connectivity search from
    # the V0 list a full scan of the deleted set gives, and every boundary
    # the extenders get back and carry is the full scan's
    eng = engine_for(group, Fuel(10**9))
    graph, dec = eng.graph, eng.dec
    counts = {"queries": 0, "absorbed": 0}
    joiner = decidability._connectivity_steps
    absorb = extenders._absorb_into

    def checked_joiner(graph, v0, deleted, extra, target, fuel):
        assert v0 == _boundary_vertices(graph, frozenset(deleted) | extra)
        counts["queries"] += 1
        return joiner(graph, v0, deleted, extra, target, fuel)

    def checked_absorb(graph, dec, regions, *carried):
        grown = absorb(graph, dec, regions, *carried)
        image = carried[0] if carried else frozenset()
        assert sorted(grown) == _boundary_vertices(graph, dec.augmented(image.union(*regions)))
        counts["absorbed"] += 1
        return grown

    monkeypatch.setattr(decidability, "_connectivity_steps", checked_joiner)
    monkeypatch.setattr(extenders, "_absorb_into", checked_absorb)
    for i in range(last + 1):
        eng.build_stage(i)
        st = eng._state
        assert sorted(st.boundary) == _boundary_vertices(graph, dec.augmented(st.image))
        assert st.floor == min(set(range(len(st.image) + 1)) - st.image)
    assert counts["queries"] > last and counts["absorbed"] >= last


# -- witnesses and bi-extensibility ---------------------------------------------


def test_witnesses(z):
    p = ThreePath(0, (z_index(z, 0), z_index(z, 1)))
    pair = witness_pair(z, p)
    assert pair is not None and pair[0] != pair[1]
    assert not set(pair) & p.image


def test_bi_extensible_examples(z2, z):
    dec2 = EndsDecider(z2, mode="one", fuel=Fuel(2_000_000))
    horiz = z2_indices(z2, [(0, 0), (1, 0)])
    assert state_from_path(z2, dec2, ThreePath(0, tuple(horiz))) is not None

    decz = EndsDecider(z, mode="two", separator=frozenset({0}), fuel=Fuel(500_000))
    gap = ThreePath(0, (z_index(z, 0), z_index(z, 2)))
    assert state_from_path(z, decz, gap) is None


def test_fuel_exhaustion_is_an_error_not_a_verdict(z):
    # Z is two-ended: the one-ended connectivity target can never certify
    # V = {0}, and no finite component exists either, so only exhaustion fits
    with pytest.raises(FuelExhausted):
        one_ended(z, 3_000).no_finite_component([z_index(z, 0)])
