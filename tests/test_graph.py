"""Cayley graph oracle, balls, metric, components, and patch exports."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlaction import (
    CayleyGraph,
    FinitePatch,
    Fuel,
    ball,
    builtin_group,
    canonical_numbering,
    distance,
    engine_for,
    induced_patch,
    patch_to_dot,
    patch_to_json,
    shortest_path,
    word_to_str,
)
from tlaction.graph import components_of, reachable

from oracles import z2_ball_count


@pytest.fixture(scope="module")
def z2():
    return CayleyGraph(builtin_group("Z2"))


@pytest.fixture(scope="module")
def z():
    return CayleyGraph(builtin_group("Z"))


# -- oracle basics ------------------------------------------------------------


def test_degree_examples(z2):
    assert len(z2.neighbors(0)) == 4
    f2 = CayleyGraph(builtin_group("FreeF2"))
    for v in range(6):
        assert len(f2.neighbors(v)) == 4
    z23 = CayleyGraph(builtin_group("Z2starZ3"))
    # neighbors of the identity are a, b, b^-1 (a is its own inverse)
    assert len(z23.neighbors(0)) == 3


def test_adjacency_symmetric_irreflexive(z2):
    for v in sorted(ball(z2, 0, 2)):
        assert v not in z2.neighbors(v)
        for u in z2.neighbors(v):
            assert v in z2.neighbors(u)


def test_neighbors_sorted_distinct_regular(z2):
    for v in range(30):
        ns = z2.neighbors(v)
        assert list(ns) == sorted(set(ns)) and len(ns) == 4


BUILTINS = ("Z", "Z2", "Z3", "BS12", "FreeF2", "Z2HNN", "Z2starZ3")


@pytest.mark.parametrize("name", BUILTINS)
def test_step_agrees_with_the_numbering(name):
    # ball(.., 3) fills the rows of B(2) only, so the sphere's rows are
    # filled by step itself
    oracle = builtin_group(name)
    graph = CayleyGraph(oracle)
    num = graph.numbering
    for v in sorted(ball(graph, 0, 3)):
        row = [graph.step(v, s) for s in oracle.letters]
        word = num.to_word(v)
        assert row == [num.to_index(word + (s,)) for s in oracle.letters]
        assert graph.neighbors(v) == tuple(sorted(set(row) - {v}))


def test_step_ticks_fuel_as_neighbors_does():
    oracle = builtin_group("Z2")
    by_step, by_neighbors = Fuel(10**6), Fuel(10**6)
    stepped = CayleyGraph(oracle, fuel=by_step)
    stepped.step(0, 1)
    CayleyGraph(oracle, fuel=by_neighbors).neighbors(0)
    assert by_step.consumed == by_neighbors.consumed
    stepped.step(0, -2)  # a read of the filled row ticks nothing
    assert by_step.consumed == by_neighbors.consumed


# (fuel, numbering words) after building every stage up to the last one:
# rows from key steps enter each numbering level when rows from words did
GROWTH_PINS = {
    ("Z", 400): (8_417, 1),
    ("Z2", 400): (26_764, 1_201),
    ("Z3", 300): (41_031, 2_625),
    ("BS12", 72): (45_024, 4_317),
}


@pytest.mark.parametrize("name, last", sorted(GROWTH_PINS), ids=str)
def test_stage_growth_fuel_and_numbering_size_pinned(name, last):
    engine = engine_for(name, Fuel(10**9))
    for i in range(last + 1):
        engine.build_stage(i)
    got = (engine.fuel.consumed, engine.numbering.known_count())
    assert got == GROWTH_PINS[name, last]


# -- balls --------------------------------------------------------------------


def test_ball_examples(z2, z):
    b1 = induced_patch(z2, ball(z2, 0, 1))
    assert len(b1.vertices) == 5 and len(b1.edges) == 4
    assert len(ball(z2, 0, 2)) == 13
    b3 = induced_patch(z, ball(z, 0, 3))
    assert len(b3.vertices) == 7 and len(b3.edges) == 6  # a path


def test_ball_counts_match_coordinate_oracle(z2):
    for r in range(5):
        assert len(ball(z2, 0, r)) == z2_ball_count(r)


def test_ball_monotone(z2, rng):
    centers = [rng.randrange(20) for _ in range(5)]
    for c in centers:
        prev: set[int] = set()
        for r in range(5):
            cur = ball(z2, c, r)
            assert prev <= cur
            prev = cur


# -- distance -----------------------------------------------------------------


def test_distance_examples(z2, z, z2_numbering):
    diag = z2_numbering.to_index((1, 2))  # the element a*b
    assert distance(z2, 0, diag) == 2
    far = canonical_numbering(builtin_group("Z")).to_index((1,) * 5)
    assert distance(z, 0, far, cap=3) is None
    z23 = CayleyGraph(builtin_group("Z2starZ3"))
    ab = z23.numbering.to_index((1, 2))
    assert distance(z23, 0, ab) == 2


def test_distance_metric_axioms(z2, rng):
    pts = sorted(ball(z2, 0, 3))
    for _ in range(60):
        u, v, w = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        duv = distance(z2, u, v)
        assert duv == distance(z2, v, u)
        assert (duv == 0) == (u == v)
        assert duv <= distance(z2, u, w) + distance(z2, w, v)


def test_shortest_path_is_geodesic(z2, rng):
    pts = sorted(ball(z2, 0, 3))
    for _ in range(30):
        u, v = rng.choice(pts), rng.choice(pts)
        path = shortest_path(z2, u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) - 1 == distance(z2, u, v)
        for a, b in zip(path, path[1:]):
            assert b in z2.neighbors(a)


# -- reachability -------------------------------------------------------------


REACH_GRAPHS = {g: CayleyGraph(builtin_group(g)) for g in ("Z2", "Z3", "BS12")}


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(sorted(REACH_GRAPHS)),
    seed=st.integers(0, 10_000),
    density=st.sampled_from([0.0, 0.2, 0.4, 0.6]),
    cap=st.integers(0, 8),
)
def test_reachable_matches_shortest_path(group, seed, density, cap):
    import random as _random

    g = REACH_GRAPHS[group]
    rng = _random.Random(seed)
    pts = sorted(ball(g, 0, 3))
    avoid = {v for v in pts if rng.random() < density}
    a, b = rng.choice(pts), rng.choice(pts)
    expected = shortest_path(g, a, b, avoid=avoid, cap=cap) is not None
    assert reachable(g, a, b, avoid, cap) == expected


def test_reachable_fixed_cases(z2, z2_numbering):
    a = 0
    nb = z2.neighbors(a)[0]
    assert reachable(z2, a, a, frozenset(), 0)
    assert reachable(z2, a, a, {a}, 0)
    assert not reachable(z2, a, nb, frozenset(), 0)
    assert reachable(z2, a, nb, frozenset(), 1)
    assert reachable(z2, a, nb, {a}, 1)  # the start may lie in avoid
    assert not reachable(z2, a, nb, {nb}, 8)
    # b walled off: every neighbour of b is avoided
    b = z2_numbering.to_index((1, 1, 1))
    assert not reachable(z2, a, b, set(z2.neighbors(b)), 8)
    for k in range(1, 8):
        far = z2_numbering.to_index((1,) * k)  # a^k, at distance k
        assert reachable(z2, a, far, frozenset(), k)
        assert not reachable(z2, a, far, frozenset(), k - 1)
        assert reachable(z2, far, a, frozenset(), k)
        assert not reachable(z2, far, a, frozenset(), k - 1)


# -- components ---------------------------------------------------------------


def remaining_components(patch, deleted=frozenset()):
    return components_of(patch, set(patch.vertices) - set(deleted))


def test_components_path_deletion():
    patch = FinitePatch((0, 1, 2), ((0, 1), (1, 2)))
    assert remaining_components(patch, deleted={1}) == ((0,), (2,))
    assert remaining_components(patch) == ((0, 1, 2),)


def test_components_after_deleting_inner_ball(z2):
    # the 8 survivors all lie at distance exactly 2 from the origin; no two
    # of them are adjacent in the grid, so each is its own component
    patch = induced_patch(z2, ball(z2, 0, 2))
    inner = ball(z2, 0, 1)
    comps = remaining_components(patch, deleted=inner)
    assert len(comps) == 8
    assert all(len(c) == 1 for c in comps)
    assert sorted(v for (v,) in comps) == sorted(set(patch.vertices) - inner)


def test_components_after_deleting_origin_only(z2):
    # deleting just the origin leaves the ring connected
    patch = induced_patch(z2, ball(z2, 0, 2))
    comps = remaining_components(patch, deleted={0})
    assert len(comps) == 1
    assert len(comps[0]) == 12


def test_components_partition(z2, rng):
    patch = induced_patch(z2, ball(z2, 0, 2))
    for _ in range(20):
        deleted = {v for v in patch.vertices if rng.random() < 0.3}
        comps = remaining_components(patch, deleted=deleted)
        covered = [v for comp in comps for v in comp]
        assert sorted(covered) == sorted(set(patch.vertices) - deleted)
        assert len(covered) == len(set(covered))


# -- patches and exports ------------------------------------------------------


def test_induced_patch_consistent_with_oracle(z2):
    patch = induced_patch(z2, ball(z2, 0, 2))
    for u in patch.vertices:
        for v in patch.vertices:
            if u < v:
                assert ((u, v) in patch.edges) == (v in z2.neighbors(u))


def test_patch_json_shape(z2):
    patch = induced_patch(z2, ball(z2, 0, 1))
    data = json.loads(patch_to_json(patch))
    assert sorted(data["vertices"]) == sorted(patch.vertices)
    assert len(data["edges"]) == 4


def test_patch_dot_node_count(z2):
    patch = induced_patch(z2, ball(z2, 0, 2))
    names = z2.oracle.generator_names
    labels = {v: word_to_str(z2.numbering.to_word(v), names) for v in patch.vertices}
    dot = patch_to_dot(patch, labels)
    node_lines = [
        line for line in dot.splitlines() if "label=" in line and "--" not in line
    ]
    assert len(node_lines) == 13
    assert dot.startswith("graph")
    assert 'label="e"' in dot


def test_patch_induced(z2):
    p1 = induced_patch(z2, ball(z2, 0, 1))
    p2 = induced_patch(z2, ball(z2, 0, 2))
    sub = p2.induced(p1.vertex_set)
    assert sub.vertex_set == p1.vertex_set
    assert set(sub.edges) == set(p1.edges)


def test_cayley_graph_label(z2):
    names = z2.oracle.generator_names
    assert word_to_str(z2.numbering.to_word(0), names) == "e"
    assert word_to_str(z2.numbering.to_word(1), names) == "a"


@settings(max_examples=50, deadline=None)
@given(r=st.integers(min_value=0, max_value=3), seed=st.integers(0, 1000))
def test_ball_distance_consistency(r, seed):
    import random as _random

    g = CayleyGraph(builtin_group("Z2"))
    rng = _random.Random(seed)
    c = rng.randrange(15)
    members = ball(g, c, r)
    for v in members:
        assert distance(g, c, v) <= r
