"""Normal forms for HNN extensions and amalgamated products over finite
associated subgroups, and membership in the resulting infinite cyclic
subgroups.

Both constructions come with a unique normal-form decomposition relative
to right-coset representatives of the associated subgroups (Lyndon and
Schupp, Combinatorial Group Theory, Ch. IV).  The normal form is found by
Britton reduction: the word is read once from the right, each letter
folding into the normal form of the suffix read so far, so the work is
linear in the word's length and no bound on the length of the result is
assumed.  The extension's word problem is supplied per instance — it is
an input hypothesis, never derived from the normal-form routine itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigError, Fuel, InvariantError
from .groups import (
    EPSILON,
    GroupOracle,
    Numbering,
    Word,
    _free_product_key,
    _wp_from_key,
    builtin_group,
    canonical_numbering,
    concat_words,
    inverse_word,
    power_word,
)

# ---------------------------------------------------------------------------
# small base groups
# ---------------------------------------------------------------------------


def cyclic_group(order: int, generator: str = "a") -> GroupOracle:
    """The cyclic group of the given finite order on one generator."""
    if order < 2:
        raise ConfigError("cyclic order must be at least 2")
    key = _free_product_key((order,))
    return GroupOracle(
        name=f"C{order}",
        generator_names=(generator,),
        wp=_wp_from_key(key),
        declared_ends=0,
        normal_key=key,
    )


# ---------------------------------------------------------------------------
# instance data
# ---------------------------------------------------------------------------


def _letters_of(mapping: dict[int, int], word: Word) -> Word:
    out = []
    for lt in word:
        base = mapping.get(abs(lt))
        if base is None:
            raise ConfigError(f"letter {lt} has no extension image")
        out.append(base if lt > 0 else -base)
    return tuple(out)


def _check_subgroup(oracle: GroupOracle, elements: tuple[Word, ...], label: str) -> None:
    """A finite explicit subgroup: contains the identity, closed under
    product and inverse up to the base word problem."""
    if not any(oracle.wp(w) for w in elements):
        raise ConfigError(f"{label} must contain the identity")
    for a in elements:
        if not any(oracle.equal(inverse_word(a), b) for b in elements):
            raise ConfigError(f"{label} is not closed under inverses")
        for b in elements:
            prod = concat_words(a, b)
            if not any(oracle.equal(prod, c) for c in elements):
                raise ConfigError(f"{label} is not closed under products")


def _check_iso(
    left: GroupOracle,
    right: GroupOracle,
    pairs: tuple[tuple[Word, Word], ...],
) -> None:
    """The listed bijection must be a homomorphism: iso(a1·a2) = iso(a1)·iso(a2)."""
    def image(a: Word) -> Word:
        for src, dst in pairs:
            if left.equal(a, src):
                return dst
        raise ConfigError("subgroup element missing from the isomorphism table")

    for a1, i1 in pairs:
        for a2, i2 in pairs:
            want = image(concat_words(a1, a2))
            if not right.equal(concat_words(i1, i2), want):
                raise ConfigError("isomorphism table is not multiplicative")


@dataclass(frozen=True)
class HnnData:
    """An HNN extension H*_phi with stable letter t and finite associated
    subgroups A, B listed as words over the base alphabet.

    ``extension`` solves the word problem of the extension itself;
    ``base_letter_map`` sends base-alphabet letters to extension-alphabet
    letters and ``stable_letter`` is t's extension letter.
    """

    base: GroupOracle
    subgroup_a: tuple[Word, ...]
    subgroup_b: tuple[Word, ...]
    iso: tuple[tuple[Word, Word], ...]
    extension: GroupOracle
    stable_letter: int
    base_letter_map: dict[int, int] = field(hash=False)

    def __post_init__(self) -> None:
        _check_subgroup(self.base, self.subgroup_a, "subgroup A")
        _check_subgroup(self.base, self.subgroup_b, "subgroup B")
        _check_iso(self.base, self.base, self.iso)

    def to_extension(self, base_word: Word) -> Word:
        return _letters_of(self.base_letter_map, base_word)

    @cached_property
    def numbering(self) -> Numbering:
        """The base's numbering, built once per instance; each normal form
        meters the levels it grows with its own fuel."""
        return canonical_numbering(self.base)


@dataclass(frozen=True)
class AmalgamData:
    """An amalgamated product H*_phi K over finite subgroups A <= H, B <= K.

    ``designated_u`` / ``designated_v`` are the nontrivial coset
    representatives whose alternating product uv generates the designated
    infinite cyclic subgroup.
    """

    left: GroupOracle
    right: GroupOracle
    subgroup_a: tuple[Word, ...]
    subgroup_b: tuple[Word, ...]
    iso: tuple[tuple[Word, Word], ...]
    extension: GroupOracle
    left_letter_map: dict[int, int] = field(hash=False)
    right_letter_map: dict[int, int] = field(hash=False)

    def __post_init__(self) -> None:
        _check_subgroup(self.left, self.subgroup_a, "subgroup A")
        _check_subgroup(self.right, self.subgroup_b, "subgroup B")
        _check_iso(self.left, self.right, self.iso)

    def left_to_extension(self, word: Word) -> Word:
        return _letters_of(self.left_letter_map, word)

    def right_to_extension(self, word: Word) -> Word:
        return _letters_of(self.right_letter_map, word)

    @cached_property
    def numberings(self) -> tuple[Numbering, Numbering]:
        """The two factors' numberings, built once per instance; each
        normal form meters the levels it grows with its own fuel."""
        return canonical_numbering(self.left), canonical_numbering(self.right)


@dataclass(frozen=True)
class NormalForm:
    """HNN: parts alternate h0, t^e1, h1, ..., t^en, hn; a t-part is the
    single stable letter with its sign.  Amalgam: parts are c0, c1, ..., cn.
    All parts are words over the extension alphabet."""

    kind: str
    parts: tuple[Word, ...]

    def product(self) -> Word:
        return concat_words(*self.parts) if self.parts else EPSILON


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------


def coset_representatives(
    oracle: GroupOracle,
    subgroup: tuple[Word, ...],
    count: int,
    fuel: Fuel | None = None,
) -> tuple[Word, ...]:
    """The first ``count`` right-coset representatives of the finite
    subgroup: u0 = the empty word, then repeatedly the shortlex-least
    canonical word lying in no earlier coset.  For a finite group with
    fewer cosets than requested, the complete (shorter) sequence is
    returned.
    """
    fuel = fuel or Fuel()
    numbering = canonical_numbering(oracle, fuel)
    reps: list[Word] = []
    index = 0
    while len(reps) < count:
        fuel.tick()
        try:
            candidate = numbering.to_word(index)
        except ConfigError:
            break  # finite group exhausted: truncated sequence
        index += 1
        if any(
            oracle.equal(candidate, concat_words(a, rep))
            for rep in reps
            for a in subgroup
        ):
            continue
        reps.append(candidate)
    return tuple(reps)


def _split(numbering: Numbering, subgroup: tuple[Word, ...], g: Word) -> tuple[Word, Word]:
    """g = s·r with s a listed subgroup element and r the representative of
    the right coset subgroup·g: the canonical word of least index among the
    words a·g, a in the subgroup (the first canonical word of the coset)."""
    index, a = min((numbering.to_index(concat_words(a, g)), a) for a in subgroup)
    return inverse_word(a), numbering.to_word(index)


def _canonical(numbering: Numbering, w: Word) -> Word:
    return numbering.to_word(numbering.to_index(w))


def _metered(numbering: Numbering, fuel: Fuel) -> Numbering:
    """An instance's cached numbering, charging the levels it grows to ``fuel``."""
    numbering.fuel = fuel
    return numbering


def _signed_inverse(letter_map: dict[int, int]) -> dict[int, int]:
    """Extension letter (either sign) -> factor letter."""
    return {sign * ext_lt: sign * lt for lt, ext_lt in letter_map.items() for sign in (1, -1)}


# ---------------------------------------------------------------------------
# normal forms by reduction
# ---------------------------------------------------------------------------


def hnn_normal_form(d: HnnData, w: Word, fuel: Fuel | None = None) -> NormalForm:
    """The unique HNN normal form h0, t^e1, h1, ..., t^en, hn equal to w.

    Conditions: h0 is a canonical base word, e_i = -1 forces h_i into the
    A-representatives, e_i = +1 into the B-representatives, and no pinch
    t^e, 1, t^-e occurs.  Britton reduction reads w from the right, keeping
    the normal form of the suffix read so far: a base letter multiplies
    h0; a letter t^e splits h0 = s·r over B (e = +1) or A (e = -1), moves
    s across t^e into the other subgroup, and either cancels against an
    opposite stable letter (r trivial: a pinch) or opens a new syllable.
    One fuel step per letter; the base numbering's new levels tick ``fuel``
    too.
    """
    fuel = fuel or Fuel()
    ext = d.extension
    t = d.stable_letter
    base_letters = _signed_inverse(d.base_letter_map)
    numbering = _metered(d.numbering, fuel)
    head: Word = EPSILON
    stack: list[tuple[int, Word]] = []  # (e_i, h_i), leftmost syllable last
    for lt in reversed(w):
        fuel.tick()
        if abs(lt) != t:
            if lt not in base_letters:
                raise ConfigError(f"letter {lt} is neither a base letter nor the stable letter")
            head = _canonical(numbering, (base_letters[lt],) + head)
            continue
        e = 1 if lt > 0 else -1
        s, r = _split(numbering, d.subgroup_b if e == 1 else d.subgroup_a, head)
        conj = concat_words((lt,), d.to_extension(s), (-lt,))
        other = d.subgroup_a if e == 1 else d.subgroup_b
        s_moved = next((x for x in other if ext.equal(conj, d.to_extension(x))), None)
        if s_moved is None:
            raise InvariantError("stable letter does not conjugate the associated subgroups")
        if r == EPSILON and stack and stack[-1][0] == -e:
            head = _canonical(numbering, concat_words(s_moved, stack.pop()[1]))
        else:
            stack.append((e, r))
            head = _canonical(numbering, s_moved)
    parts = [d.to_extension(head)]
    for e, h in reversed(stack):
        parts.append((t if e == 1 else -t,))
        parts.append(d.to_extension(h))
    return NormalForm(kind="hnn", parts=tuple(parts))


def amalgam_normal_form(d: AmalgamData, w: Word, fuel: Fuel | None = None) -> NormalForm:
    """The unique amalgam normal form c0, c1, ..., cn equal to w: c0 in
    A ∪ B, every later c_i a nontrivial coset representative, sides
    alternating.  Reduction reads w from the right as in the HNN case: a
    letter of one factor multiplies the amalgamated head (and the leftmost
    syllable when that lies in the same factor), and the product splits
    into a subgroup element, the new head, and a representative, a new
    syllable unless trivial.  One fuel step per letter; the factor
    numberings' new levels tick ``fuel`` too.
    """
    fuel = fuel or Fuel()
    factors = (d.left, d.right)
    subgroups = (d.subgroup_a, d.subgroup_b)
    to_extension = (d.left_to_extension, d.right_to_extension)
    factor_letters = {
        ext_lt: (side, lt)
        for side, letter_map in enumerate((d.left_letter_map, d.right_letter_map))
        for ext_lt, lt in _signed_inverse(letter_map).items()
    }
    numberings = tuple(_metered(n, fuel) for n in d.numberings)
    head = next(i for i, (a, _) in enumerate(d.iso) if d.left.wp(a))  # index into iso
    stack: list[tuple[int, Word]] = []  # (side, c_i), leftmost syllable last
    for lt in reversed(w):
        fuel.tick()
        if lt not in factor_letters:
            raise ConfigError(f"letter {lt} belongs to neither factor")
        side, factor_lt = factor_letters[lt]
        g = concat_words((factor_lt,), d.iso[head][side])
        if stack and stack[-1][0] == side:
            g = concat_words(g, stack.pop()[1])
        s, r = _split(numberings[side], subgroups[side], g)
        head = next(
            (i for i, pair in enumerate(d.iso) if factors[side].equal(pair[side], s)), None
        )
        if head is None:
            raise InvariantError("subgroup element missing from the isomorphism table")
        if r != EPSILON:
            stack.append((side, r))
    c0 = next(a for a in d.subgroup_a if d.left.equal(a, d.iso[head][0]))  # first listed
    parts = [d.left_to_extension(c0)] + [to_extension[side](c) for side, c in reversed(stack)]
    return NormalForm(kind="amalgam", parts=tuple(parts))


# ---------------------------------------------------------------------------
# membership in the designated infinite cyclic subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZSubgroupInstance:
    """An extension together with its designated infinite cyclic subgroup:
    <t> for an HNN extension, <uv> for an amalgam."""

    data: HnnData | AmalgamData
    designated_u: Word | None = None
    designated_v: Word | None = None

    @property
    def generator_word(self) -> Word:
        if isinstance(self.data, HnnData):
            return (self.data.stable_letter,)
        return concat_words(self.designated_u, self.designated_v)


def _is_t_power(nf: NormalForm, t: int) -> bool:
    """Whether an HNN normal form reads 1, t^e, 1, ..., t^e, 1 for a single
    sign e: by uniqueness, exactly the normal forms of the powers of t."""
    parts = nf.parts
    if any(h != EPSILON for h in parts[0::2]):
        return False
    letters = set(parts[1::2])
    return letters <= {(t,)} or letters <= {(-t,)}


def _is_uv_power(nf: NormalForm, ext: GroupOracle, u: Word, v: Word) -> bool:
    parts = nf.parts
    if not parts or not ext.equal(parts[0], EPSILON):
        return False
    rest = parts[1:]
    if len(rest) % 2 != 0:
        return False
    for i in range(0, len(rest), 2):
        if rest[i] != u or rest[i + 1] != v:
            return False
    return True


def z_subgroup_membership(
    inst: ZSubgroupInstance, w: Word, fuel: Fuel | None = None
) -> bool:
    """Whether w lies in the designated infinite cyclic subgroup, from the
    one normal form of w.

    HNN: w ∈ <t> iff its normal form is 1, t^e, 1, ..., t^e, 1 with one
    sign e throughout.  Amalgam: w = (uv)^k with k >= 0 iff its normal form
    is 1, u, v, ..., u, v; a negative power (uv)^-k has exactly 2k
    syllables, so a form with 2k syllables otherwise is a member iff w
    equals (uv)^-k in the extension, and an odd syllable count never is.
    The identity (empty normal form tail) is a member in both cases.
    """
    fuel = fuel or Fuel()
    d = inst.data
    if isinstance(d, HnnData):
        return _is_t_power(hnn_normal_form(d, w, fuel), d.stable_letter)
    u, v = inst.designated_u, inst.designated_v
    if u is None or v is None:
        raise ConfigError("amalgam membership requires designated u and v")
    nf = amalgam_normal_form(d, w, fuel)
    if _is_uv_power(nf, d.extension, u, v):
        return True
    syllables = len(nf.parts) - 1
    if syllables % 2 != 0:
        return False
    return d.extension.equal(w, power_word(inst.generator_word, -(syllables // 2)))


def split_generator_power(
    inst: ZSubgroupInstance, w: Word, fuel: Fuel | None = None
) -> tuple[Word, int]:
    """(p, n) with w = p·cⁿ for the designated generator c, read off the
    one normal form of w: its trailing run of syllable pairs whose product
    is c or c⁻¹ — (t^±1, 1) for an HNN extension, (u, v) and (v⁻¹, u⁻¹)
    for an amalgam — is stripped, each pair counting ±1 in n, and p is the
    product of the parts left.
    """
    fuel = fuel or Fuel()
    d = inst.data
    if isinstance(d, HnnData):
        nf = hnn_normal_form(d, w, fuel)
    else:
        nf = amalgam_normal_form(d, w, fuel)
    c = inst.generator_word
    powers = ((c, 1), (inverse_word(c), -1))
    parts = list(nf.parts)
    n = 0
    while len(parts) >= 3:  # keep h0 (HNN) or c0 (amalgam)
        pair = concat_words(parts[-2], parts[-1])
        e = next((e for power, e in powers if d.extension.equal(pair, power)), 0)
        if e == 0:
            break
        del parts[-2:]
        n += e
    return concat_words(*parts), n


# ---------------------------------------------------------------------------
# shipped instances
# ---------------------------------------------------------------------------


def free_f2_instance() -> ZSubgroupInstance:
    """F2 = <b> * <a> as an HNN extension of Z = <b> over the trivial
    subgroup with stable letter a; the designated subgroup is <a>."""
    base = builtin_group("Z")  # its single generator plays the role of b
    ext = builtin_group("FreeF2")
    data = HnnData(
        base=base,
        subgroup_a=(EPSILON,),
        subgroup_b=(EPSILON,),
        iso=((EPSILON, EPSILON),),
        extension=ext,
        stable_letter=1,  # "a" in the extension alphabet
        base_letter_map={1: 2},  # base generator -> "b"
    )
    return ZSubgroupInstance(data=data)


def z2hnn_instance() -> ZSubgroupInstance:
    """Z2 * Z as an HNN extension of the 2-element group over the trivial
    subgroup with stable letter t; the designated subgroup is <t>."""
    base = cyclic_group(2, "a")
    ext = builtin_group("Z2HNN")
    data = HnnData(
        base=base,
        subgroup_a=(EPSILON,),
        subgroup_b=(EPSILON,),
        iso=((EPSILON, EPSILON),),
        extension=ext,
        stable_letter=2,  # "t"
        base_letter_map={1: 1},  # base generator -> "a"
    )
    return ZSubgroupInstance(data=data)


def z2_z3_instance() -> ZSubgroupInstance:
    """Z2 * Z3 as an amalgamated product over the trivial subgroup; the
    designated subgroup is <ab>."""
    ext = builtin_group("Z2starZ3")
    data = AmalgamData(
        left=cyclic_group(2, "a"),
        right=cyclic_group(3, "b"),
        subgroup_a=(EPSILON,),
        subgroup_b=(EPSILON,),
        iso=((EPSILON, EPSILON),),
        extension=ext,
        left_letter_map={1: 1},
        right_letter_map={1: 2},
    )
    return ZSubgroupInstance(data=data, designated_u=(1,), designated_v=(2,))


_INSTANCES = {
    "FreeF2": free_f2_instance,
    "Z2HNN": z2hnn_instance,
    "Z2starZ3": z2_z3_instance,
}


def instance_for(name: str) -> ZSubgroupInstance:
    """The shipped extension instance for a built-in many-ended group."""
    factory = _INSTANCES.get(name)
    if factory is None:
        raise ConfigError(
            f"no designated cyclic-subgroup instance for group {name!r}; "
            f"available: {sorted(_INSTANCES)}"
        )
    return factory()
