"""Normal forms for HNN extensions and amalgamated products over finite
associated subgroups, and membership in the resulting infinite cyclic
subgroups.

Both constructions come with a unique normal-form decomposition relative
to right-coset representatives of the associated subgroups.  The normal
form is found by enumerate-and-test: candidate sequences satisfying the
structural conditions are searched depth-first under a total-letter-length
budget, testing each complete candidate against the extension's word
problem.  Uniqueness of the normal form makes the within-budget visiting
order irrelevant; exponent-sum and geodesic-gap prunes keep the search
small.  The extension's word problem is supplied per instance — it is an
input hypothesis, never derived from the normal-form routine itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import ConfigError, Fuel, InvariantError, default_fuel
from .groups import (
    EPSILON,
    GroupOracle,
    Word,
    builtin_group,
    canonical_numbering,
    concat_words,
    inverse_word,
    word_to_str,
)

# ---------------------------------------------------------------------------
# small base groups
# ---------------------------------------------------------------------------


def cyclic_group(order: int, generator: str = "a") -> GroupOracle:
    """The cyclic group of the given finite order on one generator."""
    if order < 2:
        raise ConfigError("cyclic order must be at least 2")

    def key(word: Word) -> int:
        return sum(1 if lt > 0 else -1 for lt in word) % order

    def wp(word: Word) -> bool:
        return key(word) == 0

    def reduced_length(word: Word) -> int:
        k = key(word)
        return min(k, order - k)

    return GroupOracle(
        name=f"C{order}",
        generator_names=(generator,),
        wp=wp,
        declared_ends=0,
        normal_key=key,
        reduced_length=reduced_length,
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


@dataclass(frozen=True)
class NormalForm:
    """HNN: parts alternate h0, t^e1, h1, ..., t^en, hn; a t-part is the
    single stable letter with its sign.  Amalgam: parts are c0, c1, ..., cn.
    All parts are words over the extension alphabet."""

    kind: str
    parts: tuple[Word, ...]

    def product(self) -> Word:
        return concat_words(*self.parts) if self.parts else EPSILON

    def render(self, generator_names) -> str:
        return " . ".join(word_to_str(p, generator_names) for p in self.parts)


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
    fuel = fuel if fuel is not None else Fuel(default_fuel())
    numbering = canonical_numbering(oracle)
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


class _RepEnumerator:
    """Lazy shortlex enumeration of right-coset representatives.

    Representatives are shortlex-least in their coset, so enumerating
    canonical words up to length L yields every representative of length
    <= L; the enumeration index survives between calls.
    """

    def __init__(self, oracle: GroupOracle, subgroup: tuple[Word, ...], fuel: Fuel):
        self.oracle = oracle
        self.subgroup = subgroup
        self.fuel = fuel
        self.numbering = canonical_numbering(oracle)
        self._trivial = all(oracle.wp(a) for a in subgroup)
        self._cache: list[Word] = []
        self._index = 0
        self._exhausted = False

    def up_to_length(self, max_len: int) -> list[Word]:
        while not self._exhausted:
            try:
                candidate = self.numbering.to_word(self._index)
            except ConfigError:
                self._exhausted = True
                break
            if len(candidate) > max_len:
                break
            self._index += 1
            self.fuel.tick()
            if not self._trivial and any(
                self.oracle.equal(candidate, concat_words(a, rep))
                for rep in self._cache
                for a in self.subgroup
            ):
                continue
            self._cache.append(candidate)
        return [w for w in self._cache if len(w) <= max_len]


# ---------------------------------------------------------------------------
# normal forms by enumerate-and-test
# ---------------------------------------------------------------------------


def _exponent_sum(word: Word, letter: int) -> int:
    return sum(1 if lt == letter else -1 if lt == -letter else 0 for lt in word)


def hnn_normal_form(d: HnnData, w: Word, fuel: Fuel | None = None) -> NormalForm:
    """The unique HNN normal form h0, t^e1, h1, ..., t^en, hn equal to w.

    Conditions: e_i = -1 forces h_i into the A-representatives, e_i = +1
    into the B-representatives, and no pinch t^e, 1, t^-e occurs.  The
    search runs over candidates of total letter length bounded by len(w)
    (valid here because the shipped extensions' normal forms never exceed
    the input length), testing completions against the extension's word
    problem; the unique match is returned regardless of visiting order.
    """
    fuel = fuel if fuel is not None else Fuel(default_fuel())
    ext = d.extension
    t = d.stable_letter
    budget = len(w)
    target_exp = _exponent_sum(w, t)
    rl = ext.reduced_length
    reps_a = _RepEnumerator(d.base, d.subgroup_a, fuel)
    reps_b = _RepEnumerator(d.base, d.subgroup_b, fuel)
    base_all = _RepEnumerator(d.base, (EPSILON,), fuel)

    def gap_ok(prefix: Word, used: int) -> bool:
        if rl is None:
            return True
        return rl(concat_words(inverse_word(prefix), w)) <= budget - used

    def search(
        parts: list[Word],
        prefix: Word,
        used: int,
        last_eps: int | None,
        last_h_trivial: bool,
        cur_exp: int,
    ) -> tuple[Word, ...] | None:
        fuel.tick()
        if ext.equal(prefix, w):
            return tuple(parts)
        for eps in (1, -1):
            if last_eps is not None and last_h_trivial and eps == -last_eps:
                continue  # pinch t^e, 1, t^-e
            used_t = used + 1
            if used_t > budget:
                continue
            if abs(target_exp - (cur_exp + eps)) > budget - used_t:
                continue
            t_word: Word = (t if eps == 1 else -t,)
            prefix_t = concat_words(prefix, t_word)
            if not gap_ok(prefix_t, used_t):
                continue
            side = reps_b if eps == 1 else reps_a
            for h in side.up_to_length(budget - used_t):
                used_h = used_t + len(h)
                h_ext = d.to_extension(h)
                prefix_h = concat_words(prefix_t, h_ext)
                if not gap_ok(prefix_h, used_h):
                    continue
                parts.append(t_word)
                parts.append(h_ext)
                found = search(parts, prefix_h, used_h, eps, len(h) == 0, cur_exp + eps)
                if found is not None:
                    return found
                parts.pop()
                parts.pop()
        return None

    for h0 in base_all.up_to_length(budget):
        h0_ext = d.to_extension(h0)
        if not gap_ok(h0_ext, len(h0)):
            continue
        found = search([h0_ext], h0_ext, len(h0), None, len(h0) == 0, 0)
        if found is not None:
            return NormalForm(kind="hnn", parts=found)
    raise InvariantError(
        "no normal form within the input's length budget; "
        "the instance's rewriting must be length-non-increasing"
    )


def amalgam_normal_form(d: AmalgamData, w: Word, fuel: Fuel | None = None) -> NormalForm:
    """The unique amalgam normal form c0, c1, ..., cn equal to w: c0 in
    A ∪ B, every later c_i a nontrivial coset representative, sides
    alternating.  Search as in the HNN case."""
    fuel = fuel if fuel is not None else Fuel(default_fuel())
    ext = d.extension
    budget = len(w)
    rl = ext.reduced_length
    reps_a = _RepEnumerator(d.left, d.subgroup_a, fuel)
    reps_b = _RepEnumerator(d.right, d.subgroup_b, fuel)

    def gap_ok(prefix: Word, used: int) -> bool:
        if rl is None:
            return True
        return rl(concat_words(inverse_word(prefix), w)) <= budget - used

    def side_candidates(side: str, max_len: int) -> Iterator[Word]:
        enum = reps_a if side == "A" else reps_b
        convert = d.left_to_extension if side == "A" else d.right_to_extension
        for rep in enum.up_to_length(max_len):
            if len(rep) == 0:
                continue  # c_i nontrivial for i >= 1
            yield convert(rep)

    def search(
        parts: list[Word], prefix: Word, used: int, last_side: str | None
    ) -> tuple[Word, ...] | None:
        fuel.tick()
        if ext.equal(prefix, w):
            return tuple(parts)
        sides = ("A", "B") if last_side is None else ("B",) if last_side == "A" else ("A",)
        for side in sides:
            for c in side_candidates(side, budget - used):
                used_c = used + len(c)
                prefix_c = concat_words(prefix, c)
                if not gap_ok(prefix_c, used_c):
                    continue
                parts.append(c)
                found = search(parts, prefix_c, used_c, side)
                if found is not None:
                    return found
                parts.pop()
        return None

    # c0 ranges over the amalgamated subgroup (A and B agree through iso)
    c0_candidates: list[Word] = []
    for a in d.subgroup_a:
        c0 = d.left_to_extension(a)
        if all(not ext.equal(c0, prev) for prev in c0_candidates):
            c0_candidates.append(c0)
    c0_candidates.sort(key=lambda cw: (len(cw), cw))
    for c0 in c0_candidates:
        if not gap_ok(c0, len(c0)):
            continue
        found = search([c0], c0, len(c0), None)
        if found is not None:
            return NormalForm(kind="amalgam", parts=found)
    raise InvariantError(
        "no normal form within the input's length budget; "
        "the instance's rewriting must be length-non-increasing"
    )


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
    parts = nf.parts
    if len(parts) % 2 == 0:
        return False
    if any(parts[i] != EPSILON for i in range(0, len(parts), 2)):
        return False
    return all(parts[i] == (t,) for i in range(1, len(parts), 2))


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
    """Whether w lies in the designated infinite cyclic subgroup.

    HNN: w ∈ <t> iff the normal form of w or of w⁻¹ is 1, t, 1, ..., t, 1.
    Amalgam: w ∈ <uv> iff the normal form of w or w⁻¹ is 1, u, v, ..., u, v.
    The identity (empty normal form tail) is a member in both cases.
    """
    fuel = fuel if fuel is not None else Fuel(default_fuel())
    d = inst.data
    if isinstance(d, HnnData):
        for cand in (w, inverse_word(w)):
            if _is_t_power(hnn_normal_form(d, cand, fuel), d.stable_letter):
                return True
        return False
    u, v = inst.designated_u, inst.designated_v
    if u is None or v is None:
        raise ConfigError("amalgam membership requires designated u and v")
    for cand in (w, inverse_word(w)):
        if _is_uv_power(amalgam_normal_form(d, cand, fuel), d.extension, u, v):
            return True
    return False


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
