"""Bi-extensible states and the steered extension step."""

from __future__ import annotations

import itertools

import pytest

from tlaction import (
    CayleyGraph,
    EndsDecider,
    ExtensibleState,
    Fuel,
    InvariantError,
    ball,
    builtin_group,
    engine_for,
    extend_to_visit,
    make_bi_extensible,
)
from tlaction import extenders
from tlaction.extenders import state_from_path
from tlaction.paths import check_jumps

from oracles import Comb


@pytest.fixture
def z2_setup():
    graph = CayleyGraph(builtin_group("Z2"))
    dec = EndsDecider(graph, mode="one", fuel=Fuel(10_000_000))
    return graph, dec


@pytest.fixture
def z_setup():
    graph = CayleyGraph(builtin_group("Z"))
    dec = EndsDecider(graph, mode="two", separator=frozenset({0}), fuel=Fuel(10_000_000))
    return graph, dec


def z_index(graph, n):
    return graph.numbering.to_index((1,) * max(n, 0) + (-1,) * max(-n, 0))


# -- construction -------------------------------------------------------------


def test_bi_extensible_state(z2_setup):
    graph, dec = z2_setup
    st = make_bi_extensible(graph, dec, 0)
    assert 0 in st.path.image
    assert st.witness_start != st.witness_end
    assert st.witness_start not in st.path.image
    assert st.witness_end not in st.path.image
    assert state_from_path(graph, dec, st.path) is not None
    check_jumps(graph, st.path)


def test_bi_extensible_on_z(z_setup):
    graph, dec = z_setup
    st = make_bi_extensible(graph, dec, 0)
    assert 0 in st.path.image
    assert state_from_path(graph, dec, st.path) is not None


# -- extension step -----------------------------------------------------------


def _domain(path):
    return (path.lo, path.hi)


def test_extend_visits_target_and_grows(z_setup):
    graph, dec = z_setup
    st = make_bi_extensible(graph, dec, 0)
    target = z_index(graph, 5)
    ext = extend_to_visit(graph, dec, st, target)
    assert target in ext.path.image
    lo0, hi0 = _domain(st.path)
    lo1, hi1 = _domain(ext.path)
    assert lo1 < lo0 and hi1 > hi0
    for n in range(lo0, hi0 + 1):
        assert ext.path.at(n) == st.path.at(n)
    assert state_from_path(graph, dec, ext.path) is not None
    check_jumps(graph, ext.path)


def test_extend_already_visited_still_grows(z_setup):
    graph, dec = z_setup
    st = make_bi_extensible(graph, dec, 0)
    visited = st.path.vertices[0]
    ext = extend_to_visit(graph, dec, st, visited)
    lo0, hi0 = _domain(st.path)
    lo1, hi1 = _domain(ext.path)
    assert lo1 < lo0 and hi1 > hi0


def test_extend_on_z2_reaches_far_target(z2_setup):
    graph, dec = z2_setup
    st = make_bi_extensible(graph, dec, 0)
    target = graph.numbering.to_index((1, 1, 1, 2, 2, 2))  # a^3 b^3
    ext = extend_to_visit(graph, dec, st, target)
    assert target in ext.path.image
    assert state_from_path(graph, dec, ext.path) is not None
    check_jumps(graph, ext.path)


def test_iterated_extension_nests_and_spreads(z2_setup):
    graph, dec = z2_setup
    st = make_bi_extensible(graph, dec, 0)
    lows, highs = [st.path.lo], [st.path.hi]
    prev = st
    for target in range(1, 13):
        nxt = extend_to_visit(graph, dec, prev, target)
        assert target in nxt.path.image
        for n in range(prev.path.lo, prev.path.hi + 1):
            assert nxt.path.at(n) == prev.path.at(n)
        lows.append(nxt.path.lo)
        highs.append(nxt.path.hi)
        prev = nxt
    assert all(a > b for a, b in zip(lows, lows[1:]))  # strictly decreasing
    assert all(a < b for a, b in zip(highs, highs[1:]))  # strictly increasing
    # injectivity across the whole final path
    assert len(set(prev.path.vertices)) == len(prev.path.vertices)


def test_state_requires_distinct_unvisited_witnesses(z2_setup):
    # a state carries two distinct unvisited witnesses, so every state can
    # be extended
    graph, dec = z2_setup
    st = make_bi_extensible(graph, dec, 0)
    for start, end in (
        (st.witness_end, st.witness_end),
        (st.path.first, st.witness_end),
        (st.witness_start, st.path.last),
    ):
        with pytest.raises(InvariantError):
            ExtensibleState(st.path, end, start, st.certified)


@pytest.mark.parametrize("group", ["Z", "Z2"])
@pytest.mark.parametrize("target", [4, 11])
def test_exhaustive_fallback_extends(monkeypatch, group, target):
    eng = engine_for(group, Fuel(10_000_000))
    eng.build_stage(3)
    st = eng._state
    monkeypatch.setattr(extenders, "_try_split", lambda *args: iter(()))
    monkeypatch.setattr(extenders, "_try_one_side", lambda *args: iter(()))
    ext = extend_to_visit(eng.graph, eng.dec, st, target)  # only _try_enumerate is left
    old, new = st.path, ext.path
    assert all(new.at(n) == old.at(n) for n in old.domain)
    assert new.lo < old.lo and new.hi > old.hi
    assert new.visits(target)
    check_jumps(eng.graph, new, max_jump=3)
    assert state_from_path(eng.graph, eng.dec, new) is not None


# -- the validator --------------------------------------------------------------


@pytest.fixture(scope="module")
def accepted():
    """A Z2 state, the walks its accepted extension to vertex 11 glued on,
    and an unvisited vertex more than 3 from the path's first vertex."""
    eng = engine_for("Z2", Fuel(10_000_000))
    eng.build_stage(3)
    st = eng._state
    new = extend_to_visit(eng.graph, eng.dec, st, 11).path
    left = tuple(reversed(new.vertices[: st.path.lo - new.lo]))
    right = new.vertices[st.path.hi - new.lo + 1 :]
    near = ball(eng.graph, st.path.first, 3) | set(new.vertices)
    far = next(v for v in itertools.count() if v not in near)
    return eng, st, left, right, far


def test_validator_accepts_the_extension_walks(accepted):
    eng, st, left, right, _ = accepted
    new = extenders._validate_candidate(eng.graph, eng.dec, st, left, right, 11, None)
    assert new is not None and new == extend_to_visit(eng.graph, eng.dec, st, 11)


@pytest.mark.parametrize(
    "defect",
    ["empty side", "repeated vertex", "shared vertex", "enters image", "junction jump", "misses target"],
)
def test_validator_rejects_and_leaves_state_unchanged(accepted, defect):
    eng, st, left, right, far = accepted
    target = 11
    if defect == "empty side":
        left = ()
    elif defect == "repeated vertex":
        right = right + right[:1]
    elif defect == "shared vertex":
        right = right + left[:1]
    elif defect == "enters image":
        right = right + (st.path.first,)
    elif defect == "junction jump":
        left, target = (far,), st.path.first
    else:
        target = far
    path, certified = st.path, st.certified
    before = (certified.image, certified.boundary)
    fuel = eng.fuel.consumed
    assert extenders._validate_candidate(eng.graph, eng.dec, st, left, right, target, None) is None
    assert st.path is path and st.path == path
    assert st.certified is certified
    assert (certified.image, certified.boundary) == before
    if defect != "junction jump":
        assert eng.fuel.consumed == fuel  # rejected before any search


@pytest.mark.parametrize("length", [1, 2, 3])
def test_comb_reaches_stage_400(length):
    # a two-ended graph that is not a Cayley graph: no stage leaves a
    # finite complement component, stage 400 visits the vertices 0 to 400
    # with jumps of at most 3 along the comb, and whiskers of length 2 and
    # 3 use 3-jumps
    comb = Comb(length)
    dec = EndsDecider(comb, "two", comb.separator, Fuel(10**5))
    st = make_bi_extensible(comb, dec, 0)
    for i in range(1, 401):
        st = extend_to_visit(comb, dec, st, i)
        assert not comb.has_finite_component(st.path.image)
    assert set(range(401)) <= st.path.image
    jumps = {comb.distance(u, v) for u, v in zip(st.path.vertices, st.path.vertices[1:])}
    assert max(jumps) <= 3
    assert 3 in jumps or length == 1
