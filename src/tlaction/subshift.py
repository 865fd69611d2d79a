"""Arrow configurations that encode bounded-jump integer actions.

A configuration over the arrow alphabet assigns every vertex an incoming
and an outgoing offset (both group elements of length at most J).  Walking
the outgoing arrows realises ``g * m`` for positive ``m``, the incoming
arrows for negative ``m``.  This module provides:

- :class:`PatternCoding` / :func:`coding_to_pattern`: finite word-letter
  codings of patterns, each word named by its numbering index, which is
  also what finds an inconsistent coding;
- :func:`star_walk` and the forbidden-pattern rules :func:`xj_forbidden`
  (arrow layer alone) and :func:`yxj_forbidden` (arrow layer overlaid
  with letters from a one-dimensional subshift);
- :func:`phi_map` / :func:`psi_map`: the two patch transformers that read
  a letter sequence off the orbit of the identity, resp. overlay a letter
  sequence onto every orbit of an action engine;
- the period-3 example subshift used throughout the test corpus.

Walks stay on vertex indices: an arrow is followed one offset letter at
a time through :meth:`CayleyGraph.step`, a read of the graph's labelled
neighbour row, whose numbering calls are paid once per vertex.  The
arrows of :func:`action_patch` come from the engine, which in subgroup
mode gives every vertex the same pair.

Negative answers of :func:`yxj_forbidden` are only ever tentative (the
rule set is enumerated up to a budget), which the function makes explicit
by returning the string ``"false-so-far"`` instead of ``False``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import ConfigError, InvariantError
from .graph import CayleyGraph, distance
from .groups import (
    GroupOracle,
    Word,
    _is_word_list,
    canonical_numbering,
    concat_words,
    inverse_word,
    word_from_str,
    word_to_str,
)

# ---------------------------------------------------------------------------
# alphabet and patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrowLetter:
    """One alphabet letter of the arrow layer: an incoming and an outgoing
    vertex offset, each a word spelling an element of the radius-J ball."""

    l: Word
    r: Word


@dataclass(frozen=True)
class PatternCoding:
    """A finite set of (word, letter) pairs describing a pattern.

    Consistent when any two words spelling the same element carry the same
    letter; :func:`coding_to_pattern` decides this from the numbering index
    of each word.
    """

    pairs: tuple[tuple[Word, object], ...]


@dataclass(frozen=True)
class PatternPatch:
    """A pattern: a total assignment of letters to a finite vertex set.

    Letters are :class:`ArrowLetter` instances for arrow-layer patches,
    ``(letter, ArrowLetter)`` pairs for overlaid patches, and arbitrary
    hashable letters for patterns produced from codings.
    """

    domain: tuple[int, ...]
    values: Mapping[int, object] = field(hash=False)

    def __post_init__(self) -> None:
        dom = tuple(sorted(set(self.domain)))
        object.__setattr__(self, "domain", dom)
        if set(self.values) != set(dom):
            raise InvariantError("patch values must be total on the domain")


def _kind(value: object) -> str:
    """``"arrow"``, ``"pair"`` (an overlay letter and its arrow) or ``"letter"``."""
    if isinstance(value, ArrowLetter):
        return "arrow"
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], ArrowLetter):
        return "pair"
    return "letter"


# inline rather than through _kind: it runs once per arrow step
def _arrow_of(value: object) -> ArrowLetter:
    if isinstance(value, ArrowLetter):
        return value
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], ArrowLetter):
        return value[1]
    raise InvariantError(f"patch value {value!r} carries no arrow letter")


def _letter_of(value: object) -> object:
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], ArrowLetter):
        return value[0]
    raise InvariantError(f"patch value {value!r} carries no overlay letter")


def arrow_projection(patch: PatternPatch) -> PatternPatch:
    """The arrow layer of an overlaid patch (identity on arrow-only patches)."""
    return PatternPatch(patch.domain, {v: _arrow_of(patch.values[v]) for v in patch.domain})


# ---------------------------------------------------------------------------
# codings
# ---------------------------------------------------------------------------


def coding_to_pattern(oracle: GroupOracle, coding: PatternCoding) -> PatternPatch:
    """The pattern described by a consistent coding.

    Vertex names are canonical numbering indices of the coded words'
    elements; two words with one index but different letters make the
    coding inconsistent, which raises :class:`ConfigError`.
    """
    num = canonical_numbering(oracle)
    seen: dict[int, tuple[Word, object]] = {}
    for word, letter in coding.pairs:
        prev_word, prev_letter = seen.setdefault(num.to_index(word), (word, letter))
        if prev_letter != letter:
            raise ConfigError(
                f"inconsistent coding: {word!r} and {prev_word!r} spell one "
                f"element but carry letters {letter!r} and {prev_letter!r}"
            )
    values = {v: letter for v, (_, letter) in seen.items()}
    return PatternPatch(tuple(values), values)


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def _step(graph: CayleyGraph, patch: PatternPatch, v: int, sign: int) -> int:
    arrow = _arrow_of(patch.values[v])
    for s in arrow.r if sign > 0 else arrow.l:
        v = graph.step(v, s)
    return v


def star_walk(graph: CayleyGraph, patch: PatternPatch, g: int, m: int) -> int | None:
    """The vertex ``g * m`` walked along the patch's arrows, if defined.

    Positive ``m`` iterates outgoing arrows, negative ``m`` incoming ones;
    ``m = 0`` returns ``g``.  The walk is undefined (``None``) as soon as
    it must read an arrow at a vertex outside the patch; the final vertex
    itself may land outside the domain.

    Each arrow is walked one offset letter at a time through
    :meth:`CayleyGraph.step`, a table read once the vertex's row is known;
    the vertices passed on the way may lie outside the patch.
    """
    cur = g
    sign = 1 if m > 0 else -1
    for _ in range(abs(m)):
        if cur not in patch.values:
            return None
        cur = _step(graph, patch, cur, sign)
    return cur


def _orbit(graph: CayleyGraph, patch: PatternPatch, g: int, sign: int) -> Iterator[int]:
    """The vertices ``g * sign``, ``g * 2·sign``, ... of the patch's walk
    from ``g`` (a patch vertex), while each lies in the patch."""
    values = patch.values
    while True:
        g = _step(graph, patch, g, sign)
        if g not in values:
            return
        yield g


# ---------------------------------------------------------------------------
# forbidden-pattern rules
# ---------------------------------------------------------------------------


def _require_ball_domain(graph: CayleyGraph, patch: PatternPatch) -> None:
    """The domain must be the ball B_r around the identity vertex for the
    least r with |B_r| >= |domain| (or the whole finite group).  One
    breadth-first pass adds B_r layer by layer and stops at the first
    layer that leaves the domain."""
    want = set(patch.domain)
    have = {0}
    frontier = [0]
    while frontier and len(have) < len(want):
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in have:
                    have.add(u)
                    nxt.append(u)
        if not want.issuperset(nxt):
            break
        frontier = nxt
    if have != want:
        raise ConfigError("patch domain is not a ball around the identity vertex")


def _require_arrows_in_ball(graph: CayleyGraph, patch: PatternPatch, J: int) -> None:
    seen: set[Word] = set()
    for v in patch.domain:
        arrow = _arrow_of(patch.values[v])
        for offset in (arrow.l, arrow.r):
            if offset in seen:
                continue
            idx = graph.numbering.to_index(offset)
            if idx != 0 and distance(graph, 0, idx, cap=J) is None:
                raise ConfigError(
                    f"arrow offset {offset!r} leaves the radius-{J} ball"
                )
            seen.add(offset)


def xj_forbidden(graph: CayleyGraph, J: int, patch: PatternPatch) -> bool:
    """Whether a ball pattern over the arrow alphabet is forbidden.

    The pattern is forbidden when either coherence fails — some composite
    ``(1 * 1) * -1`` or ``(1 * -1) * 1`` is defined within the ball and
    differs from the identity — or freeness fails: some defined walk
    ``1 * m`` with ``m != 0``, ``|m| <= |domain|`` returns to the identity.
    Configurations avoiding every forbidden ball pattern are exactly the
    arrow encodings of free bounded-jump actions.

    The domain must be a ball around the identity vertex and every arrow
    offset must lie in the radius-``J`` ball.  Overlay letters, if the
    patch carries any, are not read.
    """
    if J < 1:
        raise ConfigError(f"J must be at least 1, got {J}")
    _require_ball_domain(graph, patch)
    _require_arrows_in_ball(graph, patch, J)
    for first in (1, -1):
        out = star_walk(graph, patch, 0, first)
        if out is not None:
            back = star_walk(graph, patch, out, -first)
            if back is not None and back != 0:
                return True
    for sign in (1, -1):
        if 0 in itertools.islice(_orbit(graph, patch, 0, sign), len(patch.domain)):
            return True
    return False


FALSE_SO_FAR = "false-so-far"


def yxj_forbidden(
    graph: CayleyGraph,
    J: int,
    forbidden_y: Iterable[tuple],
    patch: PatternPatch,
    enum_budget: int,
) -> bool | str:
    """Whether an overlaid ball pattern is forbidden, up to an enumeration budget.

    The pattern is forbidden (``True``) when its arrow layer is
    :func:`xj_forbidden`, or when some arrow walk staying inside the ball
    spells an overlay word matching one of the first ``enum_budget``
    entries of ``forbidden_y`` (an enumerator of finite letter tuples).
    Otherwise the answer is :data:`FALSE_SO_FAR` — never plain ``False``,
    because a bigger budget could still reveal a match.
    """
    if enum_budget < 0:
        raise ConfigError(f"enum_budget must be at least 0, got {enum_budget}")
    if xj_forbidden(graph, J, patch):
        return True
    words = [tuple(w) for w in itertools.islice(iter(forbidden_y), enum_budget)]
    if not words:
        return FALSE_SO_FAR
    longest = max(len(w) for w in words)
    for g in patch.domain:
        walk = itertools.islice(_orbit(graph, patch, g, 1), longest)
        trail = tuple([_letter_of(patch.values[v]) for v in walk])
        for w in words:
            if trail[: len(w)] == w:
                return True
    return FALSE_SO_FAR


# ---------------------------------------------------------------------------
# letter sequences on the integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """A finite two-sided letter sequence: letter ``at(n)`` for ``n`` in
    ``start .. start + len(letters) - 1``."""

    start: int
    letters: tuple

    @property
    def lo(self) -> int:
        return self.start

    @property
    def hi(self) -> int:
        return self.start + len(self.letters) - 1

    @property
    def domain(self) -> range:
        return range(self.start, self.start + len(self.letters))

    def at(self, n: int) -> object:
        if not self.start <= n <= self.hi:
            raise ConfigError(f"position {n} outside segment {self.lo}..{self.hi}")
        return self.letters[n - self.start]

    def __len__(self) -> int:
        return len(self.letters)


# ---------------------------------------------------------------------------
# the two patch transformers
# ---------------------------------------------------------------------------


def phi_map(graph: CayleyGraph, patch: PatternPatch) -> Segment:
    """Read the identity's orbit letters off an overlaid patch.

    Returns the maximal contiguous segment around position 0 computable
    from the patch: ``z(n)`` is the overlay letter at the vertex ``1 * n``,
    for every ``n`` whose walk stays inside the patch.  The patch must
    contain the identity vertex.
    """
    if 0 not in patch.values:
        raise ConfigError("patch must contain the identity vertex")
    center = _letter_of(patch.values[0])
    sides: dict[int, list] = {}
    for sign in (1, -1):
        walk = itertools.islice(_orbit(graph, patch, 0, sign), len(patch.domain) + 1)
        sides[sign] = [_letter_of(patch.values[v]) for v in walk]
        if len(sides[sign]) > len(patch.domain):
            raise InvariantError(
                "arrow walk revisits a vertex; the patch encodes no free action"
            )
    left = sides[-1]
    return Segment(-len(left), (*reversed(left), center, *sides[1]))


def orbit_positions(engine, region: Iterable[int]) -> dict[int, int]:
    """Each region vertex's integer position along its own orbit.

    Vertex ``g`` maps to the ``n`` of its orbit key: ``g = rep * n``, where
    ``rep`` is the least-index vertex in ``g``'s orbit (the identity's
    position is 0).
    """
    return {g: engine.orbit_key(g)[1] for g in sorted(set(region))}


def psi_map(engine, z: Segment, region: Iterable[int], J: int = 3) -> PatternPatch:
    """Overlay a letter sequence onto the engine's action over a finite region.

    For every vertex ``g`` of the region the arrow letter is ``(l, r)``
    with ``g * -1 = g·l`` and ``g * 1 = g·r``, and the overlay letter is
    ``z(n)`` where ``g = rep * n`` for the least-index representative of
    ``g``'s orbit.  Raises :class:`ConfigError` naming the required range
    when the segment does not cover some needed orbit position, and when
    some arrow offset would leave the radius-``J`` ball.
    """
    domain = tuple(sorted(set(region)))
    positions = orbit_positions(engine, domain)
    if positions:
        need_lo = min(positions.values())
        need_hi = max(positions.values())
        if need_lo < z.lo or need_hi > z.hi:
            raise ConfigError(
                f"segment covers positions {z.lo}..{z.hi} but the region "
                f"needs {need_lo}..{need_hi}"
            )
    arrows = action_patch(engine, domain, J).values
    values = {g: (z.at(positions[g]), arrows[g]) for g in domain}
    return PatternPatch(domain, values)


def action_patch(engine, region: Iterable[int], J: int = 3) -> PatternPatch:
    """The arrow-layer patch of the engine's action over a finite region;
    raises :class:`ConfigError` when an arrow leaves the radius-``J`` ball."""
    domain = tuple(sorted(set(region)))
    values = {g: ArrowLetter(*engine.arrow_offsets(g)) for g in domain}
    patch = PatternPatch(domain, values)
    # left multiplication is a graph automorphism: one check per offset
    _require_arrows_in_ball(engine.graph, patch, J)
    return patch


def recenter(
    graph: CayleyGraph, patch: PatternPatch, center: int
) -> PatternPatch:
    """Translate a patch so that ``center`` becomes the identity vertex.

    Vertex ``v`` of the result is ``center⁻¹·v`` of the input; arrow
    offsets are unchanged (they are relative).  This is the shift action
    on patterns, used to test ball patches around arbitrary centers.
    """
    num = graph.numbering
    inv_center = inverse_word(num.to_word(center))
    values: dict[int, object] = {}
    for v in patch.domain:
        moved = num.to_index(concat_words(inv_center, num.to_word(v)))
        values[moved] = patch.values[v]
    return PatternPatch(tuple(values), values)


# ---------------------------------------------------------------------------
# the period-3 example subshift
# ---------------------------------------------------------------------------

PERIOD3_ALPHABET = ("circle", "square", "rhombus")

_PERIOD3_NEXT = {
    "circle": "square",
    "square": "rhombus",
    "rhombus": "circle",
}


def period3_letter(n: int, shift: int = 0) -> str:
    """The letter at position ``n`` of the period-3 point (circle at 0 - shift)."""
    return PERIOD3_ALPHABET[(n + shift) % 3]


def period3_segment(lo: int, hi: int, shift: int = 0) -> Segment:
    """The period-3 point restricted to positions ``lo .. hi``."""
    if hi < lo:
        raise ConfigError(f"empty segment bounds {lo}..{hi}")
    return Segment(lo, tuple(period3_letter(n, shift) for n in range(lo, hi + 1)))


def period3_forbidden_words() -> tuple[tuple[str, str], ...]:
    """The six length-2 words excluded by the period-3 cyclic successor rule."""
    out = []
    for a in PERIOD3_ALPHABET:
        for b in PERIOD3_ALPHABET:
            if b != _PERIOD3_NEXT[a]:
                out.append((a, b))
    return tuple(out)


def period3_enumerator() -> Iterator[tuple[str, ...]]:
    """Enumerate the period-3 subshift's forbidden words (a finite list)."""
    return iter(period3_forbidden_words())


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def pattern_patch_to_json(graph: CayleyGraph, patch: PatternPatch) -> str:
    """Serialise a patch as ``{domain: [vertex words], A: [...], B: [...]}``.

    ``A`` carries overlay (or plain) letters, ``B`` the arrow offsets as
    ``[incoming, outgoing]`` word pairs; either key is omitted when the
    patch has no such layer.  Lists are aligned with ``domain`` order.
    """
    names = graph.oracle.generator_names
    num = graph.numbering
    doc: dict = {
        "domain": [word_to_str(num.to_word(v), names) for v in patch.domain]
    }
    values = [patch.values[v] for v in patch.domain]
    kinds = sorted({_kind(value) for value in values})
    if len(kinds) > 1:
        raise InvariantError(f"patch mixes value kinds {kinds}")
    if kinds == ["pair"]:
        doc["A"] = [letter for letter, _ in values]
        values = [arrow for _, arrow in values]
    if kinds == ["letter"]:
        doc["A"] = values
    elif values:
        doc["B"] = [[word_to_str(a.l, names), word_to_str(a.r, names)] for a in values]
    return json.dumps(doc, indent=2, sort_keys=True)


def pattern_patch_from_json(graph: CayleyGraph, text: str) -> PatternPatch:
    """Parse a patch serialised by :func:`pattern_patch_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"patch is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "domain" not in doc:
        raise ConfigError("patch JSON must be an object with a 'domain' key")
    words = doc["domain"]
    if not words or not _is_word_list(words):
        raise ConfigError("patch 'domain' must be a non-empty list of words")
    names = graph.oracle.generator_names
    num = graph.numbering
    domain = [num.to_index(word_from_str(s, names)) for s in words]
    a_layer = doc.get("A")
    b_layer = doc.get("B")
    if a_layer is None and b_layer is None:
        raise ConfigError("patch JSON needs an 'A' or 'B' layer")
    for layer, name in ((a_layer, "A"), (b_layer, "B")):
        if layer is not None and not isinstance(layer, list):
            raise ConfigError(f"layer {name!r} must be a list")
        if layer is not None and len(layer) != len(domain):
            raise ConfigError(f"layer {name!r} length differs from the domain")
    if b_layer is not None and not all(
        _is_word_list(pair) and len(pair) == 2 for pair in b_layer
    ):
        raise ConfigError("each 'B' entry must be a pair of words")
    values: dict[int, object] = {}
    for i, v in enumerate(domain):
        arrow = None
        if b_layer is not None:
            pair = b_layer[i]
            arrow = ArrowLetter(
                l=word_from_str(pair[0], names), r=word_from_str(pair[1], names)
            )
        if a_layer is not None and arrow is not None:
            values[v] = (a_layer[i], arrow)
        elif arrow is not None:
            values[v] = arrow
        else:
            values[v] = a_layer[i]
    if len(values) != len(domain):
        raise ConfigError("patch JSON domain words repeat an element")
    return PatternPatch(tuple(values), values)
