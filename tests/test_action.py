"""The translation-like action engine: stages, the action map, orbits."""

from __future__ import annotations

import gc
import random
import time
import tracemalloc

import pytest

from tlaction import (
    ActionEngine,
    ConfigError,
    Fuel,
    FuelExhausted,
    Numbering,
    ball,
    builtin_group,
    canonical_numbering,
    engine_for,
    period3_segment,
    psi_map,
)
from tlaction.graph import distance

from oracles import (
    f2_cyclic_a_member,
    pairwise_orbit_keys,
    sl2z_instance,
    sl2z_orbit_exponent,
)


@pytest.fixture(scope="module")
def z2_engine():
    eng = engine_for("Z2", Fuel(50_000_000))
    eng.build_stage(30)
    return eng


@pytest.fixture(scope="module")
def z_engine():
    eng = engine_for("Z", Fuel(50_000_000))
    eng.build_stage(30)
    return eng


# -- stages -------------------------------------------------------------------


def test_stage_zero_visits_vertex_zero(z2_engine):
    f0 = z2_engine.build_stage(0)
    assert 0 in f0.image


@pytest.mark.parametrize("name", ["Z", "Z2"])
def test_stages_nest_exactly(name, z_engine, z2_engine):
    eng = z_engine if name == "Z" else z2_engine
    f2, f3 = eng.build_stage(2), eng.build_stage(3)
    assert f3.lo < f2.lo and f3.hi > f2.hi
    for n in range(f2.lo, f2.hi + 1):
        assert f3.at(n) == f2.at(n)


def test_stage_visits_prefix(z_engine):
    f10 = z_engine.build_stage(10)
    assert set(range(11)) <= set(f10.image)
    assert f10.hi - f10.lo + 1 >= 11


def test_stage_injective(z2_engine):
    f = z2_engine.build_stage(20)
    assert len(set(f.vertices)) == len(f.vertices)


def test_engine_keeps_one_path():
    # stages nest, so the engine keeps the newest path and each stage's
    # bounds; a copy of every stage would hold about N²/2 vertex references
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng = engine_for("Z", Fuel(10**9))
        eng.build_stage(1600)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4_000_000
    f = eng.current_path()
    assert eng.build_stage(1600) is f
    old = eng.build_stage(800)
    assert old.vertices == f.vertices[old.lo - f.lo : old.hi - f.lo + 1]


# -- the action ---------------------------------------------------------------


def test_act_identity_is_trivial(z2_engine):
    for v in range(25):
        assert z2_engine.act(v, 0) == v


def test_act_moves_at_most_three(z2_engine):
    rng = random.Random(7)
    graph = z2_engine.graph
    for _ in range(200):
        v = rng.randrange(200)
        w = z2_engine.act(v, 1)
        assert distance(graph, v, w, cap=3) is not None


def test_act_axioms_sampled(z2_engine):
    rng = random.Random(11)
    for _ in range(60):
        v = rng.randrange(40)
        n = rng.randint(-6, 6)
        m = rng.randint(-6, 6)
        assert z2_engine.act(z2_engine.act(v, n), m) == z2_engine.act(v, n + m)


def test_act_is_free(z2_engine):
    for v in (0, 3, 17):
        for n in range(-12, 13):
            if n != 0:
                assert z2_engine.act(v, n) != v


def test_act_follows_path_positions(z_engine):
    f = z_engine.current_path()
    v = f.at(0)
    assert z_engine.act(v, 2) == f.at(2)
    assert z_engine.act(v, -1) == f.at(-1)


# -- subgroup mode ------------------------------------------------------------


@pytest.fixture(scope="module")
def f2_engine():
    return engine_for("FreeF2", Fuel(50_000_000))


def test_subgroup_act_is_right_translation(f2_engine):
    num = f2_engine.numbering
    b = num.to_index((2,))
    assert f2_engine.act(b, 2) == num.to_index((2, 1, 1))
    assert f2_engine.act(b, -1) == num.to_index((2, -1))
    assert f2_engine.act(0, 3) == num.to_index((1, 1, 1))


def test_subgroup_act_axioms(f2_engine):
    rng = random.Random(23)
    for _ in range(60):
        v = rng.randrange(50)
        n = rng.randint(-5, 5)
        m = rng.randint(-5, 5)
        assert f2_engine.act(f2_engine.act(v, n), m) == f2_engine.act(v, n + m)
        if n != 0:
            assert f2_engine.act(v, n) != v


def test_same_orbit_free_group(f2_engine):
    num = f2_engine.numbering
    assert f2_engine.same_orbit(0, num.to_index((1, 1, 1)))  # a^3 ~ e
    assert not f2_engine.same_orbit(0, num.to_index((2,)))  # b not ~ e
    assert f2_engine.same_orbit(num.to_index((2,)), num.to_index((2, 1)))  # ba ~ b


def test_same_orbit_matches_reduced_word_oracle(f2_engine):
    num = f2_engine.numbering
    rng = random.Random(31)
    for _ in range(80):
        u, v = rng.randrange(60), rng.randrange(60)
        wu, wv = num.to_word(u), num.to_word(v)
        quotient = tuple(-l for l in reversed(wu)) + wv
        assert f2_engine.same_orbit(u, v) == f2_cyclic_a_member(quotient)


def test_orbit_representatives_free_group(f2_engine):
    reps = f2_engine.orbit_representatives(3)
    assert reps == (0, 3, 4)  # e, b, b^-1
    for i, u in enumerate(reps):
        for v in reps[i + 1 :]:
            assert not f2_engine.same_orbit(u, v)


def test_orbit_representatives_transitive(z2_engine):
    assert z2_engine.orbit_representatives(1) == (0,)
    assert z2_engine.orbit_representatives(0) == ()


def test_transitive_same_orbit_everywhere(z2_engine):
    assert z2_engine.same_orbit(0, 17)


@pytest.mark.parametrize("name,radius", [("FreeF2", 4), ("Z2HNN", 6), ("Z2starZ3", 8)])
def test_orbit_key_matches_pairwise_scan(name, radius):
    eng = engine_for(name, Fuel(100_000_000))
    region = sorted(ball(eng.graph, 0, radius))
    reference = pairwise_orbit_keys(eng, region)
    for v in region:
        rep, n = eng.orbit_key(v)
        assert (rep, n) == reference[v], v
        assert eng.act(rep, n) == v


@pytest.fixture(scope="module")
def sl2z_engine():
    inst = sl2z_instance()
    return ActionEngine(inst.data.extension, fuel=Fuel(100_000_000), instance=inst)


def test_orbit_key_refused_over_nontrivial_edge_group(sl2z_engine):
    # SL(2,Z) = C4 *_C2 C6: no window of candidates is proven to hold the
    # least vertex of an orbit, so orbit keys, and the overlay positions
    # read from them, are refused
    with pytest.raises(ConfigError):
        sl2z_engine.orbit_key(5)
    with pytest.raises(ConfigError):
        psi_map(sl2z_engine, period3_segment(-3, 3), range(10))


def test_same_orbit_agrees_with_act_over_nontrivial_edge_group(sl2z_engine):
    eng = sl2z_engine
    region = sorted(ball(eng.graph, 0, 4))
    words = {v: eng.numbering.to_word(v) for v in region}
    members = 0
    for u in region:
        for v in region:
            n = sl2z_orbit_exponent(words[u], words[v])
            assert eng.same_orbit(u, v) == (n is not None), (u, v)
            if n is not None:
                assert eng.act(u, n) == v, (u, v, n)
                members += 1
    assert len(region) < members < len(region) ** 2


def test_orbit_key_transitive(z2_engine):
    base = z2_engine.ensure_visited(0)
    for v in range(12):
        assert z2_engine.orbit_key(v) == (0, z2_engine.ensure_visited(v) - base)


@pytest.mark.parametrize("name,levels", [("Z2HNN", 1), ("Z2starZ3", 2)])
def test_factor_numberings_built_once_under_engine_fuel(monkeypatch, name, levels):
    # each finite factor (C2, C3) has one level past the identity, and it is
    # enumerated once, whatever the number of queries
    advance = Numbering._advance_level
    metered = []

    def counted(numbering):
        before = eng.fuel.consumed
        advance(numbering)
        metered.append((numbering.fuel, eng.fuel.consumed - before))

    monkeypatch.setattr(Numbering, "_advance_level", counted)
    eng = engine_for(name, Fuel(100_000_000))
    rng = random.Random(9)
    for _ in range(200):
        eng.same_orbit(0, rng.randrange(1, 2_000))
    assert len(metered) == levels
    assert all(fuel is eng.fuel for fuel, _ in metered)
    assert sum(ticks for _, ticks in metered) > 0


# -- engine construction ------------------------------------------------------


@pytest.mark.parametrize(
    "name,mode",
    [
        ("Z", "transitive"),
        ("Z2", "transitive"),
        ("BS12", "transitive"),
        ("FreeF2", "subgroup"),
        ("Z2starZ3", "subgroup"),
        ("Z2HNN", "subgroup"),
    ],
)
def test_engine_mode_per_group(name, mode):
    eng = engine_for(name, Fuel(1_000_000))
    assert eng.mode == mode


def test_stages_rejected_in_subgroup_mode(f2_engine):
    with pytest.raises(ConfigError):
        f2_engine.build_stage(0)
    with pytest.raises(ConfigError):
        f2_engine.ensure_visited(1)


def test_negative_stage_rejected_on_fresh_engine():
    with pytest.raises(ConfigError):
        engine_for("Z2", Fuel(1_000_000)).build_stage(-1)


def test_negative_stage_does_not_wrap_around():
    eng = engine_for("Z2", Fuel(1_000_000))
    eng.build_stage(5)
    with pytest.raises(ConfigError):
        eng.build_stage(-3)


def test_subgroup_arrow_offsets_reject_negative_vertex(f2_engine):
    f2_engine.arrow_offsets(0)  # the cached pair must not answer for -1
    for call in (
        lambda: f2_engine.arrow_offsets(-1),
        lambda: f2_engine.act(-1, 1),
        lambda: f2_engine.same_orbit(-1, 0),
        lambda: f2_engine.orbit_key(-1),
    ):
        with pytest.raises(ValueError):
            call()


def test_subgroup_mode_needs_subgroup_data():
    with pytest.raises(ConfigError):
        ActionEngine(builtin_group("FreeF2"))


def test_tiny_fuel_exhausts():
    eng = engine_for("Z2", Fuel(50))
    with pytest.raises(FuelExhausted):
        eng.build_stage(10)


@pytest.mark.parametrize("name", ["Z", "Z2", "Z3"])
def test_fuel_bounds_stage_growth(name):
    # decider queries no longer tick a step per path vertex; the budget
    # must still stop growth, within a wall time that grows with it
    reached = []
    for budget in (10_000, 30_000):
        eng = engine_for(name, Fuel(budget))
        start = time.perf_counter()
        with pytest.raises(FuelExhausted):
            eng.build_stage(10**6)
        assert time.perf_counter() - start < 1.0 + budget / 10_000
        reached.append(len(eng.current_path()))
    assert 0 < reached[0] < reached[1]


def test_bs12_engine_runs_transitively():
    eng = engine_for("BS12", Fuel(50_000_000))
    f = eng.build_stage(5)
    assert set(range(6)) <= set(f.image)
    assert eng.act(0, 0) == 0
    v = eng.act(0, 1)
    assert distance(eng.graph, 0, v, cap=3) is not None


def test_bs12_fuel_bounds_numbering_levels():
    # stage 51 enters numbering level 10; this budget runs out at stage 73,
    # where level 12's candidates are refused before any is built, so the
    # error comes fast
    eng = engine_for("BS12", Fuel(75_000))
    start = time.perf_counter()
    with pytest.raises(FuelExhausted):
        eng.build_stage(80)
    assert time.perf_counter() - start < 2.0
    num = eng.numbering
    known = num.known_count()
    fresh = canonical_numbering(builtin_group("BS12"))
    for n in range(known):
        w = num.to_word(n)
        assert w == fresh.to_word(n) and num.to_index(w) == n


def test_bs12_stage_72_numbering_size():
    eng = engine_for("BS12", Fuel(50_000_000))
    eng.build_stage(72)
    assert eng.numbering.known_count() == 4_317
