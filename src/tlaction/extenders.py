"""Growing 3-paths that can keep growing: bi-extensible states.

A path is *bi-extensible* when its complement has no finite component and
unvisited witnesses sit within distance 3 of both endpoints; such a path
can always be extended on both sides while staying bi-extensible, and can
be steered to visit any chosen target vertex.  This module builds the
seed state (:func:`make_bi_extensible`), bundles a given path into a
state when it qualifies (:func:`state_from_path`), and performs the
steered extension step (:func:`extend_to_visit`).

An extension glues two finite walks onto the path, one before its first
vertex and one after its last, and leaves the old path as it is.  Each
strategy lazily yields such (left, right) walk pairs: the fast ones carve
a finite region out of the path's complement and walk it Hamiltonianly
with small jumps, and a deterministic exhaustive search over walk pairs
is the complete fallback.  One validator checks every candidate against
the contract (fresh distinct vertices on both sides, target visited, jump
bound, complement certificate, witness pair) and builds the new stage
only from a candidate that passes.  All searches are fuel-metered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .decidability import NOTHING, Certified, EndsDecider, witness_pair
from .errors import InvariantError
from .graph import ball, distance, induced_patch, reachable, shortest_path
from .paths import ThreePath, karaganis_path


@dataclass(frozen=True)
class ExtensibleState:
    """A bi-extensible 3-path bundled with its extensibility evidence.

    ``witness_end`` is an unvisited vertex within distance 3 of the last
    path vertex; ``witness_start`` likewise for the first vertex.
    ``certified`` is the decider's certificate of the path's vertex set,
    the base of the next extension's decider queries.
    """

    path: ThreePath
    witness_end: int
    witness_start: int
    certified: Certified = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        image = self.certified.image
        if self.witness_end in image:
            raise InvariantError("end witness must be unvisited")
        if self.witness_start in image:
            raise InvariantError("start witness must be unvisited")
        if self.witness_start == self.witness_end:
            raise InvariantError("witnesses must be distinct")


def _adjacent_to(graph, component: Iterable[int], region: set[int] | frozenset[int]) -> bool:
    return any(nb in region for c in component for nb in graph.neighbors(c))


def _absorb_into(
    graph, dec: EndsDecider, regions: list[set[int]], base: Certified
) -> Certified:
    """Absorb finite complement components of base.image ∪ ⋃regions into
    the regions.

    Each witness component is attached to the first region it is adjacent
    to, keeping every region connected.  Once the decider certifies that
    no finite component remains, returns its certificate.  A component
    adjacent to none of the regions cannot be covered by any path through
    them; this only happens when the base image alone encloses it, which
    the caller's bi-extensibility precondition rules out.
    """
    while True:
        found = dec.find_finite_component(set().union(*regions), base)
        if isinstance(found, Certified):
            return found
        for r in regions:
            if _adjacent_to(graph, found, r):
                r.update(found)
                break
        else:
            raise InvariantError(
                "finite complement component is enclosed by the existing path "
                "alone; the path was not bi-extensible"
            )


def _exit_vertex(
    graph, region: set[int], entry: int, image: frozenset[int], other: set[int]
) -> int:
    """Deterministic exit for a Hamiltonian walk of ``region`` entered at ``entry``.

    Prefers the least region vertex other than the entry that has a
    neighbour outside region ∪ image ∪ other (so an unvisited witness sits
    one step beyond the walk's end); falls back to the least
    region-neighbour of the entry (the witness then reachable through the
    entry itself).
    """
    boundary = [
        x
        for x in sorted(region)
        if x != entry
        and any(
            nb not in region and nb not in image and nb not in other
            for nb in graph.neighbors(x)
        )
    ]
    if boundary:
        return boundary[0]
    if len(region) == 1:
        return entry
    nbrs = sorted(nb for nb in graph.neighbors(entry) if nb in region)
    if not nbrs:
        raise InvariantError("region is not connected at its entry vertex")
    return nbrs[0]


def state_from_path(
    graph, dec: EndsDecider, path: ThreePath, certified: Certified | None = None
) -> ExtensibleState | None:
    """Bundle an existing path into a bi-extensible state, or None if it
    does not qualify: the complement must carry the decider's
    no-finite-component certificate and a canonical witness pair must
    exist.  ``certified`` is the decider's certificate of the path's
    vertex set when the caller has it; otherwise the path is certified
    here."""
    if certified is None:
        certified = dec.find_finite_component(path.image)
        if not isinstance(certified, Certified):
            return None
    pair = witness_pair(graph, path, certified.image)
    if pair is None:
        return None
    ws, we = pair
    return ExtensibleState(path, we, ws, certified)


def make_bi_extensible(graph, dec: EndsDecider, w: int) -> ExtensibleState:
    """A bi-extensible 3-path visiting ``w``.

    One-ended construction: start from ``w`` and its least neighbour,
    absorb finite complement components, walk the region from its least
    boundary vertex to that vertex's least region-neighbour, and take the
    canonical witness pair of the result.

    Two-ended construction: the least bi-extensible path containing ``w``
    and the decider's separator.  Candidates are injective jump-≤3
    sequences enumerated by length, then lexicographically by vertex index;
    the first one whose complement the decider certifies (exactly two
    infinite sides) and which has a canonical witness pair wins.
    """
    if dec.mode == "two":
        required = frozenset({w}) | dec.separator
        for length in itertools.count(1):
            dec.fuel.tick()
            pool = sorted(ball(graph, w, 3 * (length - 1)))
            if not required <= set(pool):
                continue
            found = _seed_dfs(graph, dec, [], length, pool, required)
            if found is not None:
                return found
    nbrs = graph.neighbors(w)
    if not nbrs:
        raise InvariantError(f"vertex {w} is isolated")
    region = {w, nbrs[0]}
    certified = _absorb_into(graph, dec, [region], NOTHING)
    patch = induced_patch(graph, region)
    boundary = [
        x
        for x in sorted(region)
        if any(nb not in region for nb in graph.neighbors(x))
    ]
    if not boundary:
        raise InvariantError("region has no boundary vertex")
    u = boundary[0]
    region_nbrs = sorted(nb for nb in graph.neighbors(u) if nb in region)
    if not region_nbrs:
        raise InvariantError("region is not connected at its boundary vertex")
    v = region_nbrs[0]
    path = ThreePath(start=0, vertices=karaganis_path(patch, u, v))
    state = state_from_path(graph, dec, path, certified)
    if state is None:
        raise InvariantError("construction left no distinct witness pair")
    return state


def _seed_dfs(
    graph, dec: EndsDecider, seq: list[int], length: int, pool: list[int], required: frozenset[int]
) -> ExtensibleState | None:
    if len(seq) == length:
        return state_from_path(graph, dec, ThreePath(start=0, vertices=tuple(seq)))
    missing = len(required.difference(seq))
    slots = length - len(seq)
    for x in pool:
        if x in seq:
            continue
        if seq and distance(graph, seq[-1], x, cap=3) is None:
            continue
        still_missing = missing - (1 if x in required else 0)
        if still_missing > slots - 1:
            continue
        dec.fuel.tick()
        seq.append(x)
        found = _seed_dfs(graph, dec, seq, length, pool, required)
        if found is not None:
            return found
        seq.pop()
    return None


# ---------------------------------------------------------------------------
# the steered extension step
# ---------------------------------------------------------------------------

# A candidate extension: the walk glued before the path's first vertex and
# the walk glued after its last, both running junction-to-outward (their
# first vertex is within jump 3 of the path's end), and the decider's
# certificate of the grown image when the strategy already has it.
Candidate = tuple[tuple[int, ...], tuple[int, ...], Certified | None]


def _validate_candidate(
    graph,
    dec: EndsDecider,
    st: ExtensibleState,
    left: tuple[int, ...],
    right: tuple[int, ...],
    w: int,
    certified: Certified | None,
) -> ExtensibleState | None:
    """The extension contract.  Returns the new state, or None if any
    condition fails: both walks are nonempty, their vertices are distinct
    and unvisited, w is visited, all new jumps are within 3, the
    complement carries the no-finite-component certificate, and a
    canonical witness pair exists.  ``certified`` is the decider's
    certificate of the new image, or None to certify it here.

    The old path stays the middle of the new one by construction, so
    nothing old is compared, and the structural checks tick no fuel.
    """
    old = st.path
    image = st.certified.image
    added = {*left, *right}
    if not (left and right) or len(added) != len(left) + len(right):
        return None
    if not added.isdisjoint(image):
        return None
    if w not in image and w not in added:
        return None
    for walk in ((*reversed(left), old.first), (old.last, *right)):
        for a, b in zip(walk, walk[1:]):
            if distance(graph, a, b, cap=3) is None:
                return None
    if certified is None:
        certified = dec.find_finite_component(added, st.certified)
        if not isinstance(certified, Certified):
            return None
    new = ThreePath(old.lo - len(left), (*reversed(left), *old.vertices, *right))
    return state_from_path(graph, dec, new, certified)


def _try_split(
    graph, dec: EndsDecider, st: ExtensibleState, w_eff: int, radius: int
) -> Iterator[Candidate]:
    """Fast path: one region containing both witnesses and the target,
    walked Hamiltonianly witness-to-witness, then split at each
    consecutive close pair into the two side walks."""
    image = st.certified.image
    u, v = st.witness_start, st.witness_end
    # most splits fail here; two half-radius balls decide it more cheaply
    # than the full-radius search below
    if not reachable(graph, u, w_eff, image, radius):
        return
    pu = shortest_path(graph, u, w_eff, avoid=image, cap=radius)
    pv = shortest_path(graph, v, w_eff, avoid=image, cap=radius)
    if pv is None:
        return
    region = set(pu) | set(pv)
    certified = _absorb_into(graph, dec, [region], st.certified)
    patch = induced_patch(graph, region)
    try:
        walk = karaganis_path(patch, u, v)
    except InvariantError:
        return
    outside = lambda x: any(
        nb not in region and nb not in image for nb in graph.neighbors(x)
    )
    for i in range(len(walk) - 1):
        w1, w2 = walk[i], walk[i + 1]
        if distance(patch, w1, w2, cap=2) is None:
            continue
        if not (outside(w1) or outside(w2)):
            continue
        # (u, ..., w1) ends at the new first vertex, (v, ..., w2) at the new last
        yield walk[: i + 1], tuple(reversed(walk[i + 1 :])), certified


def _try_one_side(
    graph, dec: EndsDecider, st: ExtensibleState, w_eff: int, radius: int
) -> Iterator[Candidate]:
    """Fast path for a target reachable from only one witness: that side
    carries a region covering the target, the other side grows minimally.
    The right side (from the end witness) is tried first, then the left."""
    image = st.certified.image
    u, v = st.witness_start, st.witness_end
    for main_entry, other_entry in ((v, u), (u, v)):
        p = shortest_path(graph, main_entry, w_eff, avoid=image, cap=radius)
        if p is None:
            continue
        main = set(p)
        if other_entry in main:
            continue
        other = {other_entry}
        certified = _absorb_into(graph, dec, [main, other], st.certified)
        if main & other:
            continue
        try:
            exit_main = _exit_vertex(graph, main, main_entry, image, other)
            walk_main = karaganis_path(induced_patch(graph, main), main_entry, exit_main)
            exit_other = _exit_vertex(graph, other, other_entry, image, main)
            walk_other = karaganis_path(induced_patch(graph, other), other_entry, exit_other)
        except InvariantError:
            continue
        if main_entry == v:
            yield walk_other, walk_main, certified
        else:
            yield walk_main, walk_other, certified


def _enumerate_candidates(
    graph, first: int, last: int, pool: list[int], total: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (left_walk, right_walk) pairs with the given total vertex count,
    in deterministic order.  Walks run junction-to-outward: entries must be
    within jump 3 of the path ends, consecutive walk vertices within jump 3
    of each other."""
    def chains(start_anchor: int, length: int, used: set[int]) -> Iterator[tuple[int, ...]]:
        def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == length:
                yield tuple(prefix)
                return
            anchor = prefix[-1] if prefix else start_anchor
            for x in pool:
                if x in used or x in prefix:
                    continue
                if distance(graph, anchor, x, cap=3) is None:
                    continue
                prefix.append(x)
                yield from rec(prefix)
                prefix.pop()

        yield from rec([])

    for left_len in range(1, total):
        right_len = total - left_len
        for left_walk in chains(first, left_len, set()):
            for right_walk in chains(last, right_len, set(left_walk)):
                yield left_walk, right_walk


def _try_enumerate(
    graph, dec: EndsDecider, st: ExtensibleState, w_eff: int, radius: int
) -> Iterator[Candidate]:
    """The complete, deterministic exhaustive search (slow path).

    Candidates are enumerated by increasing total size then lexicographic
    order over a pool of complement vertices within ``radius`` of the
    path, and only those covering the target are yielded.
    """
    f = st.path
    image = st.certified.image
    pool_verts: set[int] = set()
    frontier = list(image)
    seen = set(image)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    pool_verts.add(y)
        frontier = nxt
    pool = sorted(pool_verts)
    for total in range(2, 2 * radius + 2):
        for left_walk, right_walk in _enumerate_candidates(
            graph, f.first, f.last, pool, total
        ):
            dec.fuel.tick()
            if w_eff in left_walk or w_eff in right_walk:
                yield left_walk, right_walk, None


def extend_to_visit(graph, dec: EndsDecider, st: ExtensibleState, w: int) -> ExtensibleState:
    """Extend a bi-extensible state to one that also visits ``w``.

    At radius 4, 8, 16, ... the split, then the one-sided fast path, and
    from radius 16 on the exhaustive search yield candidate walk pairs in
    turn; the first one the validator accepts is the new state.  Its path
    restricted to the old domain is exactly the old path, the domain grows
    strictly on both sides, and the result is again bi-extensible.  When
    ``w`` is already visited the path still grows both ways (steering
    toward its own end witness).  Raises FuelExhausted when the budget
    runs out — on a correctly declared one- or two-ended graph the search
    always succeeds first.
    """
    w_eff = w if w not in st.certified.image else st.witness_end
    radius = 4
    while True:
        dec.fuel.tick()
        candidates = itertools.chain(
            _try_split(graph, dec, st, w_eff, radius),
            _try_one_side(graph, dec, st, w_eff, radius),
            _try_enumerate(graph, dec, st, w_eff, min(radius // 4, 6)) if radius >= 16 else (),
        )
        for left, right, certified in candidates:
            state = _validate_candidate(graph, dec, st, left, right, w, certified)
            if state is not None:
                return state
        radius *= 2
