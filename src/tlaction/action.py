"""Incremental evaluator of a translation-like ℤ-action on a Cayley graph.

Two modes realize the action v ∗ n:

* **transitive** (one- or two-ended groups): a single bi-infinite
  Hamiltonian 3-path is grown in nested stages — stage i is a bi-extensible
  finite 3-path visiting the first i+1 numbered vertices, and every stage
  extends the previous one with the domain grown on both sides.  Then
  v ∗ n = f(f⁻¹(v) + n), evaluated by growing stages until both the vertex
  and the shifted position are covered.

* **subgroup** (many-ended groups): v ∗ n is the vertex named by
  word(v)·cⁿ for a designated infinite-order word c whose cyclic subgroup
  has decidable membership; orbits are the right cosets v⟨c⟩.  One
  normal form of word(v) names v's orbit and v's position along it
  (:meth:`ActionEngine.orbit_key`).

The engine is stateful and only grows.  Stages nest, so it keeps the
newest stage's path and the (lo, hi) bounds of every stage; an older
stage is a slice of the newest path.  Interleaved calls from several
threads require external synchronization; after a synchronization point,
already-built stages may be read concurrently, and the engine may be
handed off to another thread.
"""

from __future__ import annotations

import itertools

from .decidability import EndsDecider
from .errors import ConfigError, Fuel, InvariantError
from .extenders import ExtensibleState, extend_to_visit, make_bi_extensible
from .graph import CayleyGraph
from .groups import (
    GroupOracle,
    Word,
    builtin_group,
    canonical_numbering,
    concat_words,
    inverse_word,
    power_word,
)
from .paths import ThreePath
from .stallings import (
    HnnData,
    ZSubgroupInstance,
    instance_for,
    split_generator_power,
    z_subgroup_membership,
)


class ActionEngine:
    """See the module docstring.  In transitive mode the engine keeps the
    newest stage's state and ``_bounds[i]``, the domain (lo, hi) of stage
    i.  ``visited_index`` maps each visited vertex to its authoritative
    path position and is the realization of f⁻¹.  It is filled from the
    seed stage whole and from each later stage's two new segments only:
    the extension validator builds every later stage by gluing two walks
    onto the previous stage's path, so old positions keep their
    vertices."""

    def __init__(
        self,
        oracle: GroupOracle,
        fuel: Fuel | None = None,
        instance: ZSubgroupInstance | None = None,
    ):
        self.oracle = oracle
        self.fuel = fuel or Fuel()
        self.numbering = canonical_numbering(oracle, self.fuel)
        self.graph = CayleyGraph(oracle, self.numbering, self.fuel)
        ends = oracle.declared_ends
        self.mode = "transitive" if ends in (1, 2) else "subgroup"
        self._bounds: list[tuple[int, int]] = []
        self._state: ExtensibleState | None = None
        self.visited_index: dict[int, int] = {}
        if self.mode == "transitive":
            if ends == 2:
                cert = oracle.ends_certificate
                if cert is None:
                    raise ConfigError("a two-ended group needs an ends certificate")
                separator = frozenset(
                    self.numbering.to_index(w) for w in cert.separator
                )
                self.dec = EndsDecider(self.graph, mode="two", separator=separator, fuel=self.fuel)
            else:
                self.dec = EndsDecider(self.graph, mode="one", fuel=self.fuel)
        else:
            if instance is None:
                raise ConfigError(
                    "subgroup mode needs an extension instance with a designated "
                    "infinite cyclic subgroup (see instance_for)"
                )
            self.dec = None
            self.instance = instance
            self._c = instance.generator_word
            self._arrow: tuple[Word, Word] | None = None
            # The orbit key's candidates p·c^j (see orbit_key).  Over trivial
            # associated subgroups an element's length is the sum of its
            # syllables' lengths, so in an HNN extension p·t^j is longer than
            # p for every j != 0.  In an amalgam a shorter element can sit
            # one step away: b's orbit holds a = b·(ab)⁻¹, and x·b·a's holds
            # x·b⁻¹ = x·b·a·(ab) in Z2 * Z3.  Over nontrivial ones no window
            # is proven (SL(2,ℤ) = C4 *_C2 C6 already needs more), so there
            # is none and orbit_key refuses.
            data = instance.data
            hnn = isinstance(data, HnnData)
            factor = data.base if hnn else data.left
            if any(not factor.wp(a) for a in data.subgroup_a):
                self._key_window = None
            else:
                self._key_window = (0,) if hnn else (-1, 0, 1)

    # -- transitive-mode stage construction --------------------------------

    def _record(self, path: ThreePath) -> None:
        # Old positions are not re-walked: extend_to_visit only returns a
        # stage whose middle is the previous stage's path.
        lo, hi = self._bounds[-1] if self._bounds else (path.lo, path.lo - 1)
        new = itertools.chain(range(path.lo, lo), range(hi + 1, path.hi + 1))
        for pos in new:
            v = path.at(pos)
            recorded = self.visited_index.setdefault(v, pos)
            if recorded != pos:
                raise InvariantError(
                    f"vertex {v} moved from position {recorded} to {pos}; stages must nest"
                )

    def build_stage(self, i: int) -> ThreePath:
        """Compute stage i; stage i visits vertices 0..i."""
        if self.mode != "transitive":
            raise ConfigError("stages exist only in transitive mode")
        if i < 0:
            raise ConfigError("stage indices are nonnegative")
        while len(self._bounds) <= i:
            if self._state is None:
                st = make_bi_extensible(self.graph, self.dec, 0)
            else:
                st = extend_to_visit(self.graph, self.dec, self._state, len(self._bounds))
            self._record(st.path)
            self._state = st
            self._bounds.append((st.path.lo, st.path.hi))
        f = self._state.path
        if i == len(self._bounds) - 1:
            return f
        lo, hi = self._bounds[i]
        return ThreePath(lo, f.vertices[lo - f.lo : hi - f.lo + 1])

    def current_path(self) -> ThreePath:
        if self._state is None:
            self.build_stage(0)
        return self._state.path

    def ensure_visited(self, v: int) -> int:
        """Grow stages until vertex v is visited; returns its position."""
        if self.mode != "transitive":
            raise ConfigError("visited positions exist only in transitive mode")
        if v < 0:
            raise ConfigError("vertex indices are nonnegative")
        while v not in self.visited_index:
            self.build_stage(len(self._bounds))
        return self.visited_index[v]

    # -- the action ---------------------------------------------------------

    def act(self, v: int, n: int) -> int:
        """v ∗ n."""
        if self.mode == "subgroup":
            word = concat_words(self.numbering.to_word(v), power_word(self._c, n))
            return self.numbering.to_index(word)
        pos = self.ensure_visited(v)
        target = pos + n
        while True:
            f = self.current_path()
            if f.lo <= target <= f.hi:
                return f.at(target)
            self.build_stage(len(self._bounds))

    def arrow_offsets(self, g: int) -> tuple[Word, Word]:
        """The canonical words (l, r) with g ∗ -1 = g·l and g ∗ 1 = g·r.

        In subgroup mode g ∗ ±1 = g·c^±1, so every vertex has the same
        offsets, the canonical words of c⁻¹ and c, computed once.
        Transitive mode reads them off g's two path neighbours.
        """
        num = self.numbering
        if self.mode == "subgroup":
            if g < 0:
                raise ValueError(f"index must be a natural number, got {g}")
            if self._arrow is None:
                l, r = (num.to_word(num.to_index(power_word(self._c, n))) for n in (-1, 1))
                self._arrow = (l, r)
            return self._arrow
        inv_g = inverse_word(num.to_word(g))
        l, r = (
            num.to_word(num.to_index(concat_words(inv_g, num.to_word(self.act(g, n)))))
            for n in (-1, 1)
        )
        return l, r

    def same_orbit(self, u: int, v: int) -> bool:
        """Whether u and v lie in one orbit of the action."""
        if self.mode == "transitive":
            # force both names to be valid vertices, then: single orbit
            self.numbering.to_word(u)
            self.numbering.to_word(v)
            return True
        w = concat_words(
            inverse_word(self.numbering.to_word(u)), self.numbering.to_word(v)
        )
        return z_subgroup_membership(self.instance, w, self.fuel)

    def orbit_key(self, v: int) -> tuple[int, int]:
        """(rep, n) with v = rep ∗ n and rep the least-index vertex of v's
        orbit.

        Transitive mode has one orbit, named by vertex 0, and n is v's path
        position relative to vertex 0's.  Subgroup mode reads the key off
        one normal form of word(v): stripping its trailing c-syllables
        writes word(v) = p·cᵐ, and rep is the least index among p·c^j for j
        in a small window.  The window holds the least element of p⟨c⟩ over
        trivial associated subgroups, as in the shipped instances (tests
        check every vertex of a ball); over nontrivial ones it need not, and
        this raises :class:`ConfigError`.
        """
        if self.mode == "transitive":
            return 0, self.ensure_visited(v) - self.ensure_visited(0)
        if self._key_window is None:
            raise ConfigError(
                "orbit keys need an extension over trivial associated subgroups; "
                "act and same_orbit still work on this instance"
            )
        prefix, m = split_generator_power(self.instance, self.numbering.to_word(v), self.fuel)
        rep, j = min(
            (self.numbering.to_index(concat_words(prefix, power_word(self._c, j))), j)
            for j in self._key_window
        )
        return rep, m - j

    def orbit_representatives(self, count: int) -> tuple[int, ...]:
        """The first ``count`` orbit representatives: vertex 0, then
        repeatedly the least-index vertex in a fresh orbit.  Transitive
        actions have a single orbit, represented by vertex 0."""
        if count <= 0:
            return ()
        if self.mode == "transitive":
            return (0,)
        reps: list[int] = []
        index = 0
        while len(reps) < count:
            self.fuel.tick()
            if self.orbit_key(index)[0] == index:
                reps.append(index)
            index += 1
        return tuple(reps)


def engine_for(group: str | GroupOracle, fuel: Fuel | None = None) -> ActionEngine:
    """An engine for a built-in group (or a prebuilt oracle): transitive
    for one-/two-ended groups, subgroup mode with the designated cyclic
    subgroup for the many-ended built-ins."""
    oracle = builtin_group(group) if isinstance(group, str) else group
    if oracle.declared_ends in (1, 2):
        return ActionEngine(oracle, fuel=fuel)
    return ActionEngine(oracle, fuel=fuel, instance=instance_for(oracle.name))
