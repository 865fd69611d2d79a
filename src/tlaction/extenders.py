"""Growing 3-paths that can keep growing: bi-extensible states.

A path is *bi-extensible* when its complement has no finite component and
unvisited witnesses sit within distance 3 of both endpoints; such a path
can always be extended on both sides while staying bi-extensible, and can
be steered to visit any chosen target vertex.  This module builds the
initial state (:func:`make_bi_extensible`), bundles a given path into a
state when it qualifies (:func:`state_from_path`), and performs the
steered extension step (:func:`extend_to_visit`).

The extension step works by carving a finite region out of the path's
complement, walking it Hamiltonianly with small jumps, and splicing the
walk onto the path's two ends.  Every candidate produced this way is put
through a validator that re-checks all contract conditions (extension,
two-sided strict growth, target visited, jump bound, complement
certificate, fresh witness pair); the carving is only an accelerator, and
a deterministic exhaustive search over candidate extensions serves as the
complete fallback.  All searches are fuel-metered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .decidability import EndsDecider, witness_pair
from .errors import InvariantError
from .graph import distance, induced_patch, shortest_path
from .paths import ThreePath, check_jumps, extend_path, karaganis_path


@dataclass(frozen=True)
class ExtensibleState:
    """A bi-extensible 3-path bundled with its extensibility evidence.

    ``witness_end`` is an unvisited vertex within distance 3 of the last
    path vertex; ``witness_start`` likewise for the first vertex.  The
    complement certificate itself is not stored: it was checked by the
    decider when the state was built.  The next extension's decider
    queries start from three more fields:

    - ``image``, the path's vertex set;
    - ``boundary``, the complement vertices adjacent to the image, as
      :meth:`EndsDecider.boundary` returns them;
    - ``floor``, the least unvisited vertex, found on construction by
      scanning up from the given value, below which every vertex must be
      visited.
    """

    path: ThreePath
    witness_end: int
    witness_start: int
    image: frozenset[int] = field(repr=False, compare=False)
    boundary: frozenset[int] = field(repr=False, compare=False)
    floor: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        image = self.image
        floor = self.floor
        while floor in image:
            floor += 1
        object.__setattr__(self, "floor", floor)
        if self.witness_end in image:
            raise InvariantError("end witness must be unvisited")
        if self.witness_start in image:
            raise InvariantError("start witness must be unvisited")
        if self.witness_start == self.witness_end:
            raise InvariantError("witnesses must be distinct")


def _adjacent_to(graph, component: Iterable[int], region: set[int] | frozenset[int]) -> bool:
    return any(nb in region for c in component for nb in graph.neighbors(c))


def _absorb_into(
    graph,
    dec: EndsDecider,
    regions: list[set[int]],
    image: frozenset[int] = frozenset(),
    boundary: frozenset[int] = frozenset(),
    floor: int = 0,
) -> frozenset[int]:
    """Absorb finite complement components of image ∪ ⋃regions into the regions.

    ``boundary`` is the image's and ``floor`` a lower bound for the least
    vertex outside it (see :class:`ExtensibleState`), so each decider query
    scans only the regions.  Each witness component is attached to the
    first region it is adjacent to, keeping every region connected.  Once
    the decider certifies that no finite component remains, returns the
    boundary of image ∪ ⋃regions.  A component adjacent to none of the
    regions cannot be covered by any path through them; this only happens
    when the image alone encloses it, which the caller's bi-extensibility
    precondition rules out.
    """
    while True:
        added = set().union(*regions)
        grown = dec.boundary(added, image, boundary)
        witness = dec.find_finite_component(added, image, grown, floor)
        if witness is None:
            return grown
        for r in regions:
            if _adjacent_to(graph, witness, r):
                r.update(witness)
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
    graph,
    dec: EndsDecider,
    path: ThreePath,
    image: frozenset[int] | None = None,
    boundary: frozenset[int] | None = None,
    floor: int = 0,
) -> ExtensibleState | None:
    """Bundle an existing path into a bi-extensible state, or None if it
    does not qualify: the complement must carry the decider's
    no-finite-component certificate and a canonical witness pair must
    exist.  A caller that has certified the complement already passes the
    ``boundary`` the decider certified; otherwise the image is scanned and
    certified here, passed as the deleted set since it is not certified
    yet.  ``image`` and ``floor`` are as in :class:`ExtensibleState`."""
    if image is None:
        image = path.image
    if boundary is None:
        boundary = dec.boundary(image)
        if dec.find_finite_component(image, frozenset(), boundary, floor) is not None:
            return None
    pair = witness_pair(graph, path, image)
    if pair is None:
        return None
    ws, we = pair
    return ExtensibleState(path, we, ws, image, boundary, floor)


def make_bi_extensible(graph, dec: EndsDecider, w: int) -> ExtensibleState:
    """A bi-extensible 3-path visiting ``w``.

    Construction: start from ``w`` and its least neighbour, absorb finite
    complement components, walk the region from its least boundary vertex
    to that vertex's least region-neighbour, and take the canonical
    witness pair of the result.
    """
    nbrs = graph.neighbors(w)
    if not nbrs:
        raise InvariantError(f"vertex {w} is isolated")
    region = {w, nbrs[0]}
    certified = _absorb_into(graph, dec, [region])
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
    state = state_from_path(graph, dec, path, frozenset(region), certified)
    if state is None:
        raise InvariantError("construction left no distinct witness pair")
    return state


# ---------------------------------------------------------------------------
# the steered extension step
# ---------------------------------------------------------------------------


def _validate_candidate(
    graph,
    dec: EndsDecider,
    st: ExtensibleState,
    new: ThreePath,
    w: int,
    added: set[int],
    boundary: frozenset[int] | None,
) -> ExtensibleState | None:
    """The extension contract.  Returns the new state, or None if any
    condition fails: new extends old exactly, domain grew strictly on both
    sides, w is visited, all new jumps are within 3, the complement carries
    the no-finite-component certificate, and a canonical witness pair exists.
    ``added`` is the set of new vertices, and ``boundary`` the one the
    decider certified for the new image, or None to certify it here.
    """
    old = st.path
    lo_off = old.lo - new.lo
    if new.vertices[lo_off : lo_off + len(old.vertices)] != old.vertices:
        return None
    if not (new.lo < old.lo and new.hi > old.hi):
        return None
    if w not in st.image and w not in added:
        return None
    try:
        new_positions = list(range(new.lo, old.lo)) + list(range(old.hi, new.hi))
        check_jumps(graph, new, max_jump=3, positions=new_positions)
    except InvariantError:
        return None
    return state_from_path(graph, dec, new, st.image | added, boundary, st.floor)


def _splice(old: ThreePath, left_walk: tuple[int, ...], right_walk: tuple[int, ...]) -> ThreePath:
    """Build the candidate path: left walk reversed, old path, right walk.

    Both walks run junction-to-outward (their first vertex is within jump 3
    of the old path's end).  Reversing the left walk puts its entry at the
    junction with the old first vertex and its exit at the new first
    vertex; the right walk is appended as is.
    """
    return extend_path(old, before=tuple(reversed(left_walk)), after=right_walk)


def _try_split(
    graph, dec: EndsDecider, st: ExtensibleState, w_eff: int, w: int, radius: int
) -> ExtensibleState | None:
    """Fast path: one region containing both witnesses and the target,
    walked Hamiltonianly witness-to-witness, then split at a consecutive
    close pair into the two side extensions."""
    f = st.path
    image = st.image
    u, v = st.witness_start, st.witness_end
    pu = shortest_path(graph, u, w_eff, avoid=image, cap=radius)
    if pu is None:
        return None
    pv = shortest_path(graph, v, w_eff, avoid=image, cap=radius)
    if pv is None:
        return None
    region = set(pu) | set(pv)
    boundary = _absorb_into(graph, dec, [region], image, st.boundary, st.floor)
    patch = induced_patch(graph, region)
    try:
        walk = karaganis_path(patch, u, v)
    except InvariantError:
        return None
    outside = lambda x: any(
        nb not in region and nb not in image for nb in graph.neighbors(x)
    )
    for i in range(len(walk) - 1):
        w1, w2 = walk[i], walk[i + 1]
        if distance(patch, w1, w2, cap=2) is None:
            continue
        if not (outside(w1) or outside(w2)):
            continue
        left = walk[: i + 1]                     # (u, ..., w1): new first = w1
        right = tuple(reversed(walk[i + 1 :]))   # (v, ..., w2): new last = w2
        try:
            cand = _splice(f, left, right)
        except InvariantError:
            continue
        state = _validate_candidate(graph, dec, st, cand, w, region, boundary)
        if state is not None:
            return state
    return None


def _try_one_side(
    graph,
    dec: EndsDecider,
    st: ExtensibleState,
    w_eff: int,
    w: int,
    radius: int,
    side: str,
) -> ExtensibleState | None:
    """Fast path for a target reachable from only one witness: that side
    carries a region covering the target, the other side grows minimally."""
    f = st.path
    image = st.image
    u, v = st.witness_start, st.witness_end
    main_entry, other_entry = (v, u) if side == "right" else (u, v)
    p = shortest_path(graph, main_entry, w_eff, avoid=image, cap=radius)
    if p is None:
        return None
    main = set(p)
    if other_entry in main:
        return None
    other = {other_entry}
    boundary = _absorb_into(graph, dec, [main, other], image, st.boundary, st.floor)
    if main & other:
        return None
    try:
        exit_main = _exit_vertex(graph, main, main_entry, image, other)
        walk_main = karaganis_path(induced_patch(graph, main), main_entry, exit_main)
        exit_other = _exit_vertex(graph, other, other_entry, image, main)
        walk_other = karaganis_path(induced_patch(graph, other), other_entry, exit_other)
    except InvariantError:
        return None
    left_walk, right_walk = (
        (walk_other, walk_main) if side == "right" else (walk_main, walk_other)
    )
    try:
        cand = _splice(f, left_walk, right_walk)
    except InvariantError:
        return None
    return _validate_candidate(graph, dec, st, cand, w, main | other, boundary)


def _enumerate_candidates(
    graph, first: int, last: int, pool: list[int], total: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (left_walk, right_walk) pairs with the given total vertex count,
    in deterministic order.  Walks run junction-to-outward: entries must be
    within jump 3 of the path ends, consecutive walk vertices within jump 3
    of each other."""
    pool_set = set(pool)

    def chains(start_anchor: int, length: int, used: set[int]) -> Iterator[tuple[int, ...]]:
        def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == length:
                yield tuple(prefix)
                return
            anchor = prefix[-1] if prefix else start_anchor
            for x in pool:
                if x in used or x in prefix or x not in pool_set:
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
    graph, dec: EndsDecider, st: ExtensibleState, w_eff: int, w: int, radius: int
) -> ExtensibleState | None:
    """The complete, deterministic exhaustive search (slow path).

    Candidates are enumerated by increasing total size then lexicographic
    order over a pool of complement vertices within ``radius`` of the
    path, and put through the same validator as the fast paths.
    """
    f = st.path
    image = st.image
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
            if w_eff not in left_walk and w_eff not in right_walk:
                continue
            try:
                cand = _splice(f, left_walk, right_walk)
            except InvariantError:
                continue
            added = set(left_walk).union(right_walk)
            state = _validate_candidate(graph, dec, st, cand, w, added, None)
            if state is not None:
                return state
    return None


def extend_to_visit(graph, dec: EndsDecider, st: ExtensibleState, w: int) -> ExtensibleState:
    """Extend a bi-extensible state to one that also visits ``w``.

    The result's path restricted to the old domain is exactly the old
    path, the domain grows strictly on both sides, and the result is again
    bi-extensible.  When ``w`` is already visited the path still grows
    both ways (steering toward its own end witness).  Raises FuelExhausted
    when the budget runs out — on a correctly declared one- or two-ended
    graph the search always succeeds first.
    """
    w_eff = w if w not in st.image else st.witness_end
    radius = 4
    while True:
        dec.fuel.tick()
        state = _try_split(graph, dec, st, w_eff, w, radius)
        if state is None:
            state = _try_one_side(graph, dec, st, w_eff, w, radius, "right")
        if state is None:
            state = _try_one_side(graph, dec, st, w_eff, w, radius, "left")
        if state is None and radius >= 16:
            state = _try_enumerate(graph, dec, st, w_eff, w, min(radius // 4, 6))
        if state is not None:
            return state
        radius *= 2
