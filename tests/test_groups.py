"""Group oracles, words, and the canonical shortlex numbering."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlaction import (
    CayleyGraph,
    ConfigError,
    EndsCertificate,
    Fuel,
    FuelExhausted,
    GroupOracle,
    Numbering,
    builtin_group,
    canonical_numbering,
    concat_words,
    cyclic_group,
    group_from_config,
    inverse_word,
    letter,
    power_word,
    word_from_str,
    word_to_str,
)
from tlaction.groups import EPSILON, _PairLanguageIndex

from oracles import (
    bs12_ball_elements,
    bs12_element,
    free_reduce,
    wp_shortlex_enumerate,
    z2z3_reduce,
    z2z_reduce,
)

BUILTINS = ("Z", "Z2", "Z3", "FreeF2", "Z2starZ3", "Z2HNN", "BS12")


def _letters(oracle: GroupOracle) -> list[int]:
    return [letter(i, s) for i in range(oracle.generator_count) for s in (1, -1)]


def _random_word(rng: random.Random, oracle: GroupOracle, max_len: int) -> tuple:
    lts = _letters(oracle)
    return tuple(rng.choice(lts) for _ in range(rng.randrange(max_len + 1)))


# -- word helpers -------------------------------------------------------------


def test_word_algebra():
    w = (1, -2, 2)
    assert inverse_word(w) == (-2, 2, -1)
    assert concat_words(w, ()) == w
    assert concat_words((1,), (2,), (3,)) == (1, 2, 3)
    assert power_word((1, 2), 0) == ()
    assert power_word((1, 2), 2) == (1, 2, 1, 2)
    assert power_word((1, 2), -1) == (-2, -1)


def test_word_render_round_trip():
    names = ("a", "b")
    assert word_to_str(EPSILON, names) == "e"
    assert word_to_str((1, -2, 1), names) == "a*b^-1*a"
    assert word_from_str("a*b^-1*a", names) == (1, -2, 1)
    assert word_from_str("e", names) == EPSILON
    with pytest.raises(ConfigError):
        word_from_str("a*q", names)


@settings(max_examples=200)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_inverse_word_involution(letters):
    w = tuple(letters)
    assert inverse_word(inverse_word(w)) == w


# -- built-in oracles ---------------------------------------------------------


def test_builtin_wp_examples():
    z2hnn = builtin_group("Z2HNN")
    # t a t^-1 a^-1 is a reduced word of Z2 * Z, not the identity
    assert not z2hnn.wp((2, 1, -2, -1))
    z2 = builtin_group("Z2")
    assert z2.wp((1, 2, -1, -2))
    f2 = builtin_group("FreeF2")
    assert f2.wp((1, 2, -2, -1))
    assert not f2.wp((1, 2, -1, -2))


def test_builtin_bs12_relation():
    bs = builtin_group("BS12")
    # t a t^-1 = a^2
    assert bs.wp((2, 1, -2, -1, -1))
    assert not bs.wp((2, 1, -2, -1))


def test_builtin_unknown_name():
    with pytest.raises(ConfigError):
        builtin_group("Nope")


def test_builtin_declared_ends():
    assert builtin_group("Z").declared_ends == 2
    assert builtin_group("Z").ends_certificate is not None
    assert builtin_group("Z2").declared_ends == 1
    assert builtin_group("BS12").declared_ends == 1
    for name in ("FreeF2", "Z2starZ3", "Z2HNN"):
        assert builtin_group(name).declared_ends == "many"


def test_wp_agrees_with_rewriting_oracles(rng):
    cases = {
        "FreeF2": lambda w: free_reduce(w) == (),
        "Z2starZ3": lambda w: z2z3_reduce(w) == (),
        "Z2HNN": lambda w: z2z_reduce(w) == (),
        "BS12": lambda w: bs12_element(w) == (0, 0),
    }
    for name, oracle_wp in cases.items():
        g = builtin_group(name)
        for _ in range(300):
            w = _random_word(rng, g, 10)
            assert g.wp(w) == oracle_wp(w), (name, w)


def test_free_product_key_is_the_rewriting_oracles_word(rng):
    # the key is the least word itself, so it equals the fixpoint rewrite
    cases = {"FreeF2": free_reduce, "Z2starZ3": z2z3_reduce, "Z2HNN": z2z_reduce}
    for name, reduce_word in cases.items():
        key = builtin_group(name).normal_key
        for _ in range(500):
            w = _random_word(rng, builtin_group(name), 16)
            assert key(w) == reduce_word(w), (name, w)
        # long runs of one letter: each run is one block
        for lt in (1, -1, 2, -2):
            w = (lt,) * 401 + (-lt,) * 200
            assert key(w) == reduce_word(w), (name, lt)
        with pytest.raises(ConfigError, match="letter 3 is not in"):
            builtin_group(name).fast_index((1, 3))


@pytest.mark.parametrize("order", range(4, 8))
def test_cyclic_key_is_the_least_word(rng, order):
    # independent of the package: the exponent sum decides the element
    least = wp_shortlex_enumerate(lambda w: sum(w) % order == 0, 1, order)
    by_exponent = {sum(w) % order: w for w in least}
    group = cyclic_group(order)
    num = canonical_numbering(group)
    assert [num.to_word(i) for i in range(order)] == least
    for _ in range(300):
        w = tuple(rng.choice((1, -1)) for _ in range(rng.randrange(30)))
        assert group.normal_key(w) == by_exponent[sum(w) % order], w


def test_pair_language_needs_orders_0_2_or_3():
    with pytest.raises(ConfigError, match="orders 0, 2 or 3"):
        _PairLanguageIndex((2, 4))


def test_wp_of_w_winv_for_all_builtins(rng):
    for name in BUILTINS:
        g = builtin_group(name)
        for _ in range(1000):
            w = _random_word(rng, g, 10)
            assert g.wp(concat_words(w, inverse_word(w)))


# -- canonical numbering ------------------------------------------------------

# frozen: first canonical words per group, computed by the quadratic
# wp-filtered shortlex enumeration in tests/oracles.py (wp_shortlex_enumerate)
FROZEN_CANONICAL = {
    "Z": [(), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)],
    "Z2": [
        (), (1,), (-1,), (2,), (-2,),
        (1, 1), (1, 2), (1, -2), (-1, -1), (-1, 2), (-1, -2), (2, 2), (-2, -2),
    ],
    "FreeF2": [
        (), (1,), (-1,), (2,), (-2,),
        (1, 1), (1, 2), (1, -2), (-1, -1), (-1, 2), (-1, -2), (2, 1), (2, -1),
    ],
    "Z2starZ3": [
        (), (1,), (2,), (-2,),
        (1, 2), (1, -2), (2, 1), (-2, 1), (1, 2, 1), (1, -2, 1),
    ],
    "Z2HNN": [
        (), (1,), (2,), (-2,),
        (1, 2), (1, -2), (2, 1), (2, 2), (-2, 1), (-2, -2),
    ],
}


def test_numbering_frozen_prefixes():
    for name, words in FROZEN_CANONICAL.items():
        num = canonical_numbering(builtin_group(name))
        got = [num.to_word(n) for n in range(len(words))]
        assert got == words, name


def test_numbering_identity_and_collapse(z_numbering):
    assert z_numbering.to_word(0) == EPSILON
    # a * a^-1 * a denotes the same element as a
    assert z_numbering.to_index((1, -1, 1)) == z_numbering.to_index((1,))


def test_numbering_round_trip_500():
    for name in ("Z2", "FreeF2", "BS12"):
        num = canonical_numbering(builtin_group(name))
        seen = set()
        for n in range(500):
            w = num.to_word(n)
            assert w not in seen  # injective
            seen.add(w)
            assert num.to_index(w) == n


def test_numbering_equivalence_across_generator_orders():
    # Z2 with generators in the opposite order: converting indices through
    # the two numberings and back is the identity on the first 200 indices.
    # The swapped oracle steps keys on the swapped alphabet.
    base = builtin_group("Z2")
    table = {1: 2, -1: -2, 2: 1, -2: -1}

    def swap(word):
        return tuple(table[lt] for lt in word)

    swapped = dataclasses.replace(
        base,
        name="Z2-swapped",
        generator_names=("b", "a"),
        wp=lambda w: base.wp(swap(w)),
        normal_key=lambda w: base.normal_key(swap(w)),
        fast_index=None,
        fast_word=None,
        key_step=lambda k, lt: base.key_step(k, table[lt]),
    )
    n1 = canonical_numbering(base)
    n2 = canonical_numbering(swapped)
    for n in range(200):
        via = n2.to_index(swap(n1.to_word(n)))
        back = n1.to_index(swap(n2.to_word(via)))
        assert back == n


def test_key_step_must_agree_with_normal_key():
    base = builtin_group("Z2")
    # a replaced normal_key cannot keep the old step
    with pytest.raises(ConfigError, match="key_step disagrees"):
        dataclasses.replace(base, normal_key=lambda w: base.normal_key(inverse_word(w)))

    # a step wrong only on words of length 2
    def late_step(k, lt):
        return k if (k, lt) == ((1, 0), 2) else base.key_step(k, lt)

    with pytest.raises(ConfigError, match=r"\(1, 2\)"):
        dataclasses.replace(base, key_step=late_step)
    with pytest.raises(ConfigError, match="no normal_key"):
        dataclasses.replace(base, normal_key=None)
    assert dataclasses.replace(base, normal_key=None, key_step=None).key_step is None


def _reference_key(name, word):
    """The element a word spells, computed without the oracle."""
    if name == "BS12":
        return bs12_element(word)
    d = 4 if name == "Zd(4)" else int(name[1:] or 1)
    return tuple(word.count(i + 1) - word.count(-(i + 1)) for i in range(d))


@settings(max_examples=300)
@given(st.sampled_from(("Z", "Z2", "Z3", "Zd(4)", "BS12")), st.data())
def test_folded_key_step_is_the_normal_key(name, data):
    oracle = builtin_group(name)
    word = tuple(data.draw(st.lists(st.sampled_from(oracle.letters), max_size=20)))
    key = reduce(oracle.key_step, word, oracle.normal_key(EPSILON))
    assert key == oracle.normal_key(word)
    value = _bs12_key_value(key) if name == "BS12" else key
    assert value == _reference_key(name, word)


@pytest.mark.parametrize("name", ["Z2", "Z3", "BS12"])
def test_stepped_enumeration_is_the_word_keyed_one(name):
    oracle = builtin_group(name)
    stepped_fuel, keyed_fuel = Fuel(10**9), Fuel(10**9)
    stepped = Numbering(oracle, stepped_fuel)
    keyed = Numbering(dataclasses.replace(oracle, key_step=None), keyed_fuel)
    assert [stepped.to_word(n) for n in range(2000)] == [keyed.to_word(n) for n in range(2000)]
    assert [stepped.neighbour_row(v) for v in range(500)] == [
        keyed.neighbour_row(v) for v in range(500)
    ]
    assert stepped.known_count() == keyed.known_count()
    assert stepped_fuel.consumed == keyed_fuel.consumed


def test_fast_accelerators_agree_with_enumeration():
    for name in ("Z", "FreeF2", "Z2starZ3", "Z2HNN"):
        oracle = builtin_group(name)
        assert oracle.fast_index is not None and oracle.fast_word is not None
        plain = dataclasses.replace(oracle, fast_index=None, fast_word=None)
        slow = Numbering(plain)
        for n in range(2000):
            w = slow.to_word(n)
            assert oracle.fast_word(n) == w, (name, n)
            assert oracle.fast_index(w) == n, (name, n)


def test_fast_accelerators_far_round_trip(rng):
    for name in ("FreeF2", "Z2starZ3", "Z2HNN"):
        oracle = builtin_group(name)
        for n in [rng.randrange(10**6, 10**9) for _ in range(25)] + [10**18]:
            assert oracle.fast_index(oracle.fast_word(n)) == n, (name, n)


def test_fast_index_handles_unreduced_spellings(rng):
    for name in ("Z", "FreeF2", "Z2starZ3", "Z2HNN"):
        oracle = builtin_group(name)
        num = canonical_numbering(oracle)
        for _ in range(100):
            w = _random_word(rng, oracle, 8)
            padded = concat_words(w, (1, -1))  # trivial in every builtin
            assert num.to_index(padded) == num.to_index(w), (name, w)


def _bs12_key_value(key):
    p, s, n = key
    assert s >= 0 and (p % 2 == 1 or s == 0) and (p != 0 or s == 0), key
    return (Fraction(p, 1 << s), n)


def test_bs12_key_matches_fraction_reference_on_ball():
    key = builtin_group("BS12").normal_key
    balls = bs12_ball_elements(8)
    assert len(balls) == 87_381
    pairs = set()
    for w, element in balls:
        k = key(w)
        assert _bs12_key_value(k) == element, w
        pairs.add((k, element))
    # equal keys exactly when equal elements
    assert len(pairs) == len({k for k, _ in pairs}) == len({e for _, e in pairs})


def test_bs12_key_matches_fraction_reference_far(rng):
    key = builtin_group("BS12").normal_key
    relator = (2, 1, -2, -1, -1)  # t a t^-1 a^-2
    for _ in range(300):
        w = []
        for _ in range(rng.randrange(1, 12)):
            w.extend((rng.choice((2, -2)),) * rng.randrange(41))
            w.extend((rng.choice((1, -1)),) * rng.randrange(4))
        w = tuple(w)
        assert _bs12_key_value(key(w)) == bs12_element(w), w
        cut = rng.randrange(len(w) + 1)
        assert key(w[:cut] + relator + w[cut:]) == key(w)
        u = _random_word(rng, builtin_group("BS12"), 30)
        assert (key(u) == key(w)) == (bs12_element(u) == bs12_element(w))


def test_z_closed_form_matches_enumeration():
    oracle = builtin_group("Z")
    slow = Numbering(dataclasses.replace(oracle, fast_index=None, fast_word=None))
    for length in range(13):
        for w in product((1, -1), repeat=length):
            assert oracle.fast_index(w) == slow.to_index(w), w
    for n in range(slow.known_count()):
        assert oracle.fast_word(n) == slow.to_word(n), n
    with pytest.raises(ConfigError):
        oracle.fast_index((1, 2))
    with pytest.raises(ValueError):
        oracle.fast_word(-1)


@pytest.mark.parametrize("name", [*BUILTINS, "C5"])
def test_letter_outside_the_alphabet_is_refused(name):
    # each key's per-letter step refuses the letter, wherever it stands,
    # before the numbering grows past the identity
    group = cyclic_group(5) if name == "C5" else builtin_group(name)
    num = canonical_numbering(group)
    g = group.generator_count
    for lt in (0, g + 1, -(g + 1)):
        for w in ((lt,), (1, lt), (lt, -1), (1, -1, lt)):
            for call in (num.to_index, group.wp, group.normal_key):
                with pytest.raises(ConfigError, match=f"letter {lt} is not in"):
                    call(w)
                assert num.known_count() == 1


@pytest.mark.parametrize("name", ["Z", "Z2", "BS12", "FreeF2"])
def test_negative_index_is_refused_alike(name):
    # every numbering path refuses n < 0 before it reads or grows anything
    num = canonical_numbering(builtin_group(name))
    graph = CayleyGraph(builtin_group(name))
    for call in (num.to_word, num.neighbour_row, graph.neighbors, lambda v: graph.step(v, 1)):
        with pytest.raises(ValueError, match="index must be a natural number"):
            call(-1)
    assert num.known_count() == 1


def test_metered_numbering_leaves_whole_levels():
    # wp-only path: candidates and the words each search scans tick fuel
    plain = dataclasses.replace(
        builtin_group("Z2"), normal_key=None, fast_index=None, fast_word=None, key_step=None
    )
    fresh = Numbering(plain)
    for budget in (10, 500, 3_000):
        fuel = Fuel(budget)
        num = Numbering(plain, fuel)
        with pytest.raises(FuelExhausted):
            num.to_word(200)
        assert fuel.consumed > budget
        known = num.known_count()
        assert known in (1, 5, 13, 25, 41, 61, 85, 113)  # whole balls of Z2
        assert [num.to_word(n) for n in range(known)] == [
            fresh.to_word(n) for n in range(known)
        ]
    # keyed path: each level ticks its candidates once, before it is built
    fuel = Fuel(10**6)
    num = canonical_numbering(builtin_group("Z2"), fuel)
    num.to_word(12)  # levels 1 and 2: 1*4 + 4*4 candidates
    assert fuel.consumed == 20


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=5000))
def test_numbering_is_shortlex_monotone(n):
    num = canonical_numbering(builtin_group("FreeF2"))

    def key(w):
        # alphabet order s1 < s1^-1 < s2 < s2^-1 < ...
        return (len(w), tuple(2 * (abs(lt) - 1) + (lt < 0) for lt in w))

    assert key(num.to_word(n)) < key(num.to_word(n + 1))


# -- config loading -----------------------------------------------------------


def test_group_from_config_dict():
    g = group_from_config({"strategy": "zd", "d": 2, "generators": ["x", "y"]})
    assert g.generator_names == ("x", "y")
    assert g.wp((1, 2, -1, -2))


@pytest.mark.parametrize(
    "config, name",
    [({"strategy": "zd", "d": 3, "generators": ["x", "y", "z"]}, "Z3"), ({"strategy": "bs12"}, "BS12")],
)
def test_group_from_config_keeps_every_oracle_field(config, name):
    loaded, builtin = group_from_config(config), builtin_group(name)
    assert loaded.key_step is builtin.key_step is not None

    def rows(oracle):
        graph = CayleyGraph(oracle)
        return [[graph.step(v, s) for s in oracle.letters] for v in range(300)]

    assert rows(loaded) == rows(builtin)


def test_group_from_config_path(tmp_path):
    path = tmp_path / "group.json"
    path.write_text('{"strategy": "z", "generators": ["s"]}')
    g = group_from_config(str(path))
    assert g.declared_ends == 2
    assert g.generator_names == ("s",)


def test_group_from_config_errors():
    with pytest.raises(ConfigError):
        group_from_config({"strategy": "nope"})
    with pytest.raises(ConfigError):
        group_from_config({"strategy": "zd", "d": 2, "generators": ["x"]})
    with pytest.raises(ConfigError):
        group_from_config({"strategy": "zd", "declared_ends": 7})


@pytest.mark.parametrize("ends", [True, 1.0, 2.0, "1", 0, None])
def test_group_from_config_refuses_ends_other_than_1_2_many(ends):
    with pytest.raises(ConfigError, match="declared_ends must be"):
        group_from_config({"strategy": "zd", "declared_ends": ends})


@pytest.mark.parametrize("strategy", ["z", "free", "z2_star_z3", "z2_star_z", "bs12"])
def test_group_from_config_refuses_d_outside_zd(strategy):
    with pytest.raises(ConfigError, match="'d' applies only to the 'zd' strategy"):
        group_from_config({"strategy": strategy, "d": 2})


def test_group_from_config_certificate_parsing():
    cfg = {
        "strategy": "z",
        "generators": ["a"],
        "declared_ends": 2,
        "certificate": {"separator": ["e"], "side_a": ["a"], "side_b": ["a^-1"]},
    }
    g = group_from_config(cfg)
    cert = g.ends_certificate
    assert isinstance(cert, EndsCertificate)
    assert cert.separator == (EPSILON,)
    assert cert.side_a == ((1,),)


def test_ends_certificate_pinned_for_z():
    cert = builtin_group("Z").ends_certificate
    assert cert.separator == (EPSILON,)
