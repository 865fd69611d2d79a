"""Normal forms over HNN extensions and amalgams, coset representatives,
and membership in the designated infinite cyclic subgroup."""

from __future__ import annotations

import random

import pytest

from tlaction import (
    EPSILON,
    AmalgamData,
    ConfigError,
    Fuel,
    GroupOracle,
    HnnData,
    NormalForm,
    ZSubgroupInstance,
    amalgam_normal_form,
    canonical_numbering,
    coset_representatives,
    cyclic_group,
    free_f2_instance,
    hnn_normal_form,
    instance_for,
    inverse_word,
    power_word,
    z2_z3_instance,
    z2hnn_instance,
    z_subgroup_membership,
)

from tlaction import stallings

from oracles import brute_cyclic_member

BIG = Fuel(100_000_000)


# -- shape invariants (the defining conditions, checked on any output) --------


def is_representative(oracle: GroupOracle, subgroup, h) -> bool:
    """h is the first canonical word of its right coset subgroup·h."""
    numbering = canonical_numbering(oracle)
    index = numbering.to_index(h)
    return numbering.to_word(index) == h and all(
        numbering.to_index(a + h) >= index for a in subgroup
    )


def factor_word(letter_map, p):
    """The extension word p spelled back in a factor's alphabet."""
    back = {ext_lt: lt for lt, ext_lt in letter_map.items()}
    return tuple(back[abs(l)] if l > 0 else -back[abs(l)] for l in p)


def check_hnn_shape(d: HnnData, nf: NormalForm) -> None:
    parts = nf.parts
    assert nf.kind == "hnn"
    assert len(parts) % 2 == 1
    t = d.stable_letter
    h0 = factor_word(d.base_letter_map, parts[0])
    assert is_representative(d.base, (EPSILON,), h0)  # h0 canonical
    for i in range(1, len(parts), 2):
        assert parts[i] in ((t,), (-t,))
        subgroup = d.subgroup_b if parts[i] == (t,) else d.subgroup_a
        assert is_representative(d.base, subgroup, factor_word(d.base_letter_map, parts[i + 1]))
    # no pinch: the trivial representative may not sit between opposite-sign
    # stable letters
    for i in range(2, len(parts) - 1, 2):
        if parts[i] == EPSILON:
            assert parts[i - 1] == parts[i + 1]


def check_amalgam_shape(d: AmalgamData, nf: NormalForm) -> None:
    parts = nf.parts
    assert nf.kind == "amalgam"
    assert len(parts) >= 1
    assert parts[0] in {d.left_to_extension(a) for a in d.subgroup_a}
    left = set(d.left_letter_map.values())
    sides = []
    for p in parts[1:]:
        assert p != EPSILON  # factors after c0 are nontrivial
        on_left = abs(p[0]) in left
        oracle, subgroup, letter_map = (
            (d.left, d.subgroup_a, d.left_letter_map)
            if on_left
            else (d.right, d.subgroup_b, d.right_letter_map)
        )
        assert is_representative(oracle, subgroup, factor_word(letter_map, p))
        sides.append(on_left)
    for a, b in zip(sides, sides[1:]):
        assert a != b  # strictly alternating


# -- frozen examples (verified by product equality at freeze time) ------------


def test_hnn_pinch_collapses():
    d = z2hnn_instance().data
    assert hnn_normal_form(d, (2, -2, 1), BIG).parts == ((1,),)


def test_hnn_alternating_form():
    d = z2hnn_instance().data
    nf = hnn_normal_form(d, (2, 1, -2, 1), BIG)
    assert nf.parts == ((), (2,), (1,), (-2,), (1,))
    check_hnn_shape(d, nf)


def test_hnn_identity_and_powers():
    d = z2hnn_instance().data
    assert hnn_normal_form(d, EPSILON, BIG).parts == ((),)
    assert hnn_normal_form(d, (2, 2), BIG).parts == ((), (2,), (), (2,), ())


def test_amalgam_collapse_to_identity():
    d = z2_z3_instance().data
    # a b b^-1 a = a^2 = 1
    assert amalgam_normal_form(d, (1, 2, -2, 1), BIG).parts == ((),)


def test_amalgam_alternating_form():
    d = z2_z3_instance().data
    nf = amalgam_normal_form(d, (1, 2), BIG)
    assert nf.parts == ((), (1,), (2,))
    check_amalgam_shape(d, nf)
    assert amalgam_normal_form(d, (2, 1, 2), BIG).parts == ((), (2,), (1,), (2,))


def test_amalgam_reduces_within_factor():
    d = z2_z3_instance().data
    # b^2 = b^-1 in the 3-element factor
    assert amalgam_normal_form(d, (2, 2), BIG).parts == ((), (-2,))


def test_normal_forms_over_nontrivial_subgroups():
    # C3 ⋊ Z: t a t^-1 = a^-1, so t a = a^-1 t
    assert hnn_normal_form(c3_semidirect_z(), (2, 1), BIG).parts == ((-1,), (2,), ())
    # C2 × Z: t a t = a t t
    assert hnn_normal_form(c2_times_z(), (2, 1, 2), BIG).parts == ((1,), (2,), (), (2,), ())
    # C4 = C2 *_{C2} C4 with a = b^2: b^-1 = b^2 · b, longer than the input
    assert amalgam_normal_form(c2_amalgam_c4(), (-2,), BIG).parts == ((1,), (2,))


def test_normal_form_product():
    nf = NormalForm("hnn", ((), (2,), (1,)))
    assert nf.product() == (2, 1)
    assert NormalForm("hnn", ()).product() == EPSILON


# -- randomized: idempotence, product equality, shape -------------------------


def _random_words(letters, count, max_len, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


@pytest.mark.parametrize("make", [free_f2_instance, z2hnn_instance])
def test_hnn_normal_form_randomized(make):
    inst = make()
    d = inst.data
    letters = (
        [1, -1, 2, -2] if d.extension.generator_count == 2 and d.base.name == "Z"
        else [1, 2, -2]
    )
    for w in _random_words(letters, 100, 10, seed=len(d.extension.name)):
        nf = hnn_normal_form(d, w, BIG)
        check_hnn_shape(d, nf)
        assert d.extension.equal(nf.product(), w)
        again = hnn_normal_form(d, nf.product(), BIG)
        assert again.parts == nf.parts


def test_amalgam_normal_form_randomized():
    d = z2_z3_instance().data
    for w in _random_words([1, 2, -2], 100, 10, seed=99):
        nf = amalgam_normal_form(d, w, BIG)
        check_amalgam_shape(d, nf)
        assert d.extension.equal(nf.product(), w)
        again = amalgam_normal_form(d, nf.product(), BIG)
        assert again.parts == nf.parts


# -- genuine extensions over nontrivial finite subgroups -----------------------


def _keyed_oracle(name: str, generators, key, ends) -> GroupOracle:
    return GroupOracle(
        name=name,
        generator_names=generators,
        wp=lambda w: key(w) == key(EPSILON),
        declared_ends=ends,
        normal_key=key,
    )


def _semidirect_key(order: int, twist: int):
    """a^k t^n in C_order ⋊ Z with t a t^-1 = a^twist (twist = ±1)."""

    def key(word):
        k = n = 0
        for lt in word:
            if abs(lt) == 1:
                k += (1 if lt > 0 else -1) * twist ** (n % 2)
            else:
                n += 1 if lt > 0 else -1
        return k % order, n

    return key


def _cyclic_hnn(order: int, twist: int) -> HnnData:
    """HNN extension of C_order over A = B = C_order with iso a ↦ a^twist."""
    elements = tuple((1,) * k for k in range(order))
    return HnnData(
        base=cyclic_group(order, "a"),
        subgroup_a=elements,
        subgroup_b=elements,
        iso=tuple((x, x if twist == 1 else inverse_word(x)) for x in elements),
        extension=_keyed_oracle(
            f"C{order}HNN", ("a", "t"), _semidirect_key(order, twist), 2
        ),
        stable_letter=2,
        base_letter_map={1: 1},
    )


def c2_times_z() -> HnnData:
    return _cyclic_hnn(2, 1)


def c3_semidirect_z() -> HnnData:
    return _cyclic_hnn(3, -1)


def c2_amalgam_c4() -> AmalgamData:
    """C2 *_{C2} C4 over A = C2, B = {1, b^2}, iso a ↦ b^2: the group C4."""

    def key(word):
        return sum((2 if abs(lt) == 1 else 1) * (1 if lt > 0 else -1) for lt in word) % 4

    return AmalgamData(
        left=cyclic_group(2, "a"),
        right=cyclic_group(4, "b"),
        subgroup_a=(EPSILON, (1,)),
        subgroup_b=(EPSILON, (1, 1)),
        iso=((EPSILON, EPSILON), ((1,), (1, 1))),
        extension=_keyed_oracle("C4", ("a", "b"), key, 0),
        left_letter_map={1: 1},
        right_letter_map={1: 2},
    )


@pytest.mark.parametrize("make", [c2_times_z, c3_semidirect_z, c2_amalgam_c4])
def test_normal_forms_nontrivial_subgroups_randomized(make):
    d = make()
    hnn = isinstance(d, HnnData)
    normal_form = hnn_normal_form if hnn else amalgam_normal_form
    check_shape = check_hnn_shape if hnn else check_amalgam_shape
    ext = d.extension
    for w in _random_words([1, -1, 2, -2], 200, 12, seed=len(ext.name)):
        nf = normal_form(d, w, BIG)
        check_shape(d, nf)
        assert ext.equal(nf.product(), w), w
        assert normal_form(d, nf.product(), BIG).parts == nf.parts, w
        if hnn:
            got = z_subgroup_membership(ZSubgroupInstance(data=d), w, BIG)
            assert got == brute_cyclic_member(ext.equal, (d.stable_letter,), w), w


# -- membership ---------------------------------------------------------------


def test_membership_hnn_examples():
    inst = z2hnn_instance()
    assert z_subgroup_membership(inst, (2, 2, 2), BIG)  # t^3
    assert z_subgroup_membership(inst, (-2, -2), BIG)  # t^-2
    assert z_subgroup_membership(inst, EPSILON, BIG)
    assert not z_subgroup_membership(inst, (1, 2), BIG)  # a t
    assert not z_subgroup_membership(inst, (1,), BIG)  # a


def test_membership_amalgam_examples():
    inst = z2_z3_instance()
    assert z_subgroup_membership(inst, (1, 2, 1, 2), BIG)  # (ab)^2
    assert z_subgroup_membership(inst, (-2, 1, -2, 1), BIG)  # (ab)^-2
    assert z_subgroup_membership(inst, EPSILON, BIG)
    assert not z_subgroup_membership(inst, (1, 2, 1), BIG)  # aba
    assert not z_subgroup_membership(inst, (2,), BIG)  # b


@pytest.mark.parametrize("name", ["FreeF2", "Z2HNN", "Z2starZ3"])
def test_membership_matches_brute_force(name):
    inst = instance_for(name)
    ext = inst.data.extension
    c = inst.generator_word
    letters = [l for g in range(1, ext.generator_count + 1) for l in (g, -g)]
    for w in _random_words(letters, 50, 8, seed=hash(name) % 1000):
        got = z_subgroup_membership(inst, w, BIG)
        want = brute_cyclic_member(ext.equal, c, w)
        assert got == want, (w, got, want)


def test_membership_fuel_is_linear_in_word_length():
    # (P·b)^-1 · P · a = b^-1 a, a non-member behind a long cancelling prefix
    rng = random.Random(4)
    p = tuple(rng.choice((1, -1, 2, -2)) for _ in range(100))
    w = inverse_word(p + (2,)) + p + (1,)
    assert len(w) == 202
    assert not z_subgroup_membership(free_f2_instance(), w, Fuel(4 * len(w) + 4))


@pytest.mark.parametrize(
    "name, non_member",
    [("FreeF2", (2, 1)), ("Z2HNN", (1, 2)), ("Z2starZ3", (2, 1))],  # ba, at, ba
)
def test_membership_reads_one_normal_form(monkeypatch, name, non_member):
    inst = instance_for(name)
    calls = []

    def counted(normal_form):
        def wrapper(*args):
            calls.append(args)
            return normal_form(*args)

        return wrapper

    for fn in ("hnn_normal_form", "amalgam_normal_form"):
        monkeypatch.setattr(stallings, fn, counted(getattr(stallings, fn)))
    negative_power = power_word(inst.generator_word, -3)
    for w, member in ((non_member, False), (negative_power, True)):
        calls.clear()
        assert z_subgroup_membership(inst, w, BIG) is member
        assert len(calls) == 1, w


def test_generator_words():
    assert free_f2_instance().generator_word == (1,)  # a
    assert z2hnn_instance().generator_word == (2,)  # t
    assert z2_z3_instance().generator_word == (1, 2)  # ab


def test_instance_for_unknown():
    with pytest.raises(ConfigError):
        instance_for("Z2")


# -- coset representatives ----------------------------------------------------


def test_coset_reps_trivial_subgroup():
    c2 = cyclic_group(2, "a")
    assert coset_representatives(c2, (EPSILON,), 5) == ((), (1,))


def test_coset_reps_full_subgroup():
    c2 = cyclic_group(2, "a")
    assert coset_representatives(c2, (EPSILON, (1,)), 5) == ((),)


def test_coset_reps_order_three():
    c3 = cyclic_group(3, "b")
    assert coset_representatives(c3, (EPSILON,), 5) == ((), (1,), (-1,))


def test_cyclic_group_oracle():
    c3 = cyclic_group(3, "b")
    assert c3.wp((1, 1, 1))
    assert not c3.wp((1,))
    assert c3.equal((1, 1), (-1,))
    assert c3.declared_ends == 0
