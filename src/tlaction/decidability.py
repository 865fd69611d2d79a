"""Deciding whether a finite vertex set leaves a finite complement component.

Removing a finite vertex set V from an infinite connected locally finite
graph leaves finitely many components, of which some may be finite.
:class:`EndsDecider` answers "does the complement of V have no finite
component?" for a graph with a declared end count, one or two.  Each
query dovetails two searches:

- a growing-ball search (the finder) that halts exactly when a finite
  component exists, producing it as a witness;
- a connectivity search (the joiner) that halts once the vertices around
  V have merged into as many complement-connected classes as the graph
  has ends (in two-ended mode V always contains a declared separator
  whose removal leaves the two infinite sides).

The verdict is the finder's: the joiner only decides when a query with
no finite component stops.  A query that finds none returns a
:class:`Certified`, the certificate of V; only the decider makes them.

A query names V as ``base.image ∪ deleted``, where ``base`` is a
:class:`Certified` this decider returned (or :data:`NOTHING`, the empty
one).  In one-ended mode the joiner first tries a local certificate from
the added vertices R = V ∖ S, where S = ``base.image``:

- split R into its adjacency components Rᵢ, and let Bᵢ = N(Rᵢ) ∖ V, the
  free neighbours of each cluster;
- run one layer of the connectivity search seeded from ⋃Bᵢ;
- if each Bᵢ lies in one class, V is certified.

Why this is sound: the complement of S has no finite component, since S
is certified.  Suppose a finite component C of the complement of V exists.
C touches some Rₘ, since otherwise all its outside neighbours lie in S and
C would be a finite component of the complement of S.  Bₘ meets C, so
all of Bₘ lies in C.  Then C together with every Rₘ it touches is finite
and connected, and all its outside neighbours lie in S (a cluster's
neighbours in R lie in the cluster), so it is a finite component of the
complement of S, a contradiction.  The rule is also complete on
one-ended graphs, but it may need many layers; one layer is tried, and if
it does not certify, the same round goes on with the full joiner seeded
from the whole boundary ∂V in sorted order, so the fallback adds no
round.  Two-ended mode uses the full joiner only.

∂V, the complement vertices adjacent to V, is the full joiner's seed.  A
certificate carries ∂S, so the boundary of V is (∂S ∖ V) ∪ (N(R) ∖ V)
and a query scans only R.  It carries the least vertex outside S too,
where the finder starts its scan for the least vertex outside V.  Nothing
is cached between queries: the certificates belong to the caller, and
the decider keeps only counts of its certifications.

The connectivity search is only complete under the *declared* end count
(which is input, not computed); detectably impossible outcomes raise
:class:`EndsDeclarationError` instead of returning an arbitrary verdict.
All searches run under an explicit :class:`~tlaction.errors.Fuel` budget
and raise :class:`~tlaction.errors.FuelExhausted` rather than loop forever
on invalid declarations.  :func:`witness_pair` supplies the other half of
bi-extensibility: unvisited vertices near both ends of a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ConfigError, EndsDeclarationError, Fuel
from .graph import ball, components_of
from .paths import ThreePath


def _least_outside(deleted, extra: frozenset[int], floor: int) -> int:
    """The least vertex outside deleted ∪ extra, scanning up from ``floor``;
    every vertex below ``floor`` must lie in ``deleted``."""
    v = floor
    while v in deleted or v in extra:
        v += 1
    return v


def _finite_component_steps(
    graph, deleted, fuel: Fuel, extra: frozenset[int] = frozenset(), floor: int = 0
) -> Iterator[tuple | None]:
    """Generator yielding None per round; yields the witness component when found.

    The deleted set V is ``deleted ∪ extra``.  Round n grows the ball B(n)
    around the least vertex outside V by one layer, and the witness is the
    first component c of B(n) ∖ V, in order of least vertex, with no
    neighbour outside V ∪ c: c is closed under adjacency in the full graph,
    hence a finite component of the complement.  Since c ⊆ B(n) puts every
    neighbour of c in B(n+1), c is closed exactly when it is also a
    component of B(n+1) ∖ V.
    """
    v0 = _least_outside(deleted, extra, floor)
    seen = {v0}
    inner = {v0}
    layer = [v0]
    while True:
        nxt: list[int] = []
        for v in layer:
            for u in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt
        inner.update(u for u in nxt if u not in deleted and u not in extra)
        fuel.tick(len(inner) + 1)
        closed = (
            c for c in components_of(graph, inner)
            if all(u in inner or u in deleted or u in extra for x in c for u in graph.neighbors(x))
        )
        yield next(closed, None)


def _boundary_vertices(graph, deleted: frozenset[int]) -> list[int]:
    """∂V by a full scan: complement vertices adjacent to the deleted set,
    sorted.  The reference that the carried boundaries are tested against."""
    out: set[int] = set()
    for v in deleted:
        for u in graph.neighbors(v):
            if u not in deleted:
                out.add(u)
    return sorted(out)


def _join_layer(
    graph, layer: list[int], parent: dict, color: dict, deleted, extra: frozenset[int],
    fuel: Fuel, nxt: list[int], stop: int,
) -> int:
    """One breadth-first layer of the connectivity search; returns the
    number of merges of two classes it made, stopping at the ``stop``-th.

    Each vertex of ``layer`` colours its uncoloured neighbours outside V =
    ``deleted ∪ extra`` with its class, appending them to ``nxt``, and
    merges its class with that of each coloured one.  ``parent`` is a
    union-find forest over the seeds whose roots are the least vertices of
    their classes, and ``color`` maps each reached complement vertex to a
    seed of its class.
    """
    merges = 0
    for x in layer:
        fuel.tick()
        rx = color[x]
        while parent[rx] != rx:
            parent[rx] = parent[parent[rx]]
            rx = parent[rx]
        for y in graph.neighbors(x):
            if y in deleted or y in extra:
                continue
            ry = color.get(y)
            if ry is None:
                color[y] = rx
                nxt.append(y)
                continue
            while parent[ry] != ry:
                parent[ry] = parent[parent[ry]]
                ry = parent[ry]
            if ry == rx:
                continue
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            merges += 1
            if merges == stop:
                return merges
    return merges


def _connectivity_steps(
    graph, v0: list[int], deleted, extra: frozenset[int], target_classes: int, fuel: Fuel
) -> Iterator[str | None]:
    """The full joiner: yields None per layer until the boundary vertices
    ``v0`` of V = ``deleted ∪ extra`` have merged into exactly
    ``target_classes`` connectivity classes, then ``"full"``.

    Classes merge when breadth-first regions grown from the boundary
    vertices inside the complement meet.  The count starts above the
    target and drops by one per merge, so it meets the target before it
    could fall below it; fewer boundary vertices than two in two-ended
    mode, and a complement exhausted before the target is met, are
    impossible for the declared end count.
    """
    classes = len(v0)
    if classes < target_classes:
        if target_classes == 2:
            raise EndsDeclarationError(
                f"two-ended declaration inconsistent: only {classes} boundary "
                "class(es) around the deleted set"
            )
        yield "full"
        return
    if classes == target_classes:
        yield "full"
        return
    parent = {x: x for x in v0}
    color = dict(parent)
    layer = v0
    while layer:
        nxt: list[int] = []
        classes -= _join_layer(
            graph, layer, parent, color, deleted, extra, fuel, nxt, classes - target_classes
        )
        if classes == target_classes:
            yield "full"
            return
        layer = nxt
        yield None
    # The complement region was exhausted without reaching the target: the
    # graph behind the oracle is not infinite as required.
    raise EndsDeclarationError(
        "complement exploration exhausted a finite graph; oracle does not "
        "present an infinite connected graph"
    )


def _local_certificate(graph, image, extra: frozenset[int], fuel: Fuel) -> bool:
    """Whether one joiner layer from the free neighbours Bᵢ of each adjacency
    component of R = ``extra`` ∖ ``image`` leaves each Bᵢ in one class.

    True certifies that the complement of ``image ∪ extra`` has no finite
    component, provided that of ``image`` has none (see the module
    docstring).
    """
    sides = [
        {u for v in cluster for u in graph.neighbors(v) if u not in image and u not in extra}
        for cluster in components_of(graph, (v for v in extra if v not in image))
    ]
    seeds = list(set().union(*sides))
    parent = {x: x for x in seeds}
    color = dict(parent)
    _join_layer(graph, seeds, parent, color, image, extra, fuel, [], len(seeds))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    return all(len({root(b) for b in side}) <= 1 for side in sides)


def _one_ended_steps(
    graph, image, extra: frozenset[int], boundary: frozenset[int], fuel: Fuel
) -> Iterator[str | None]:
    """The one-ended joiner: ``"local"`` at once when the local certificate
    holds, otherwise the full joiner from the sorted boundary, whose first
    layer runs in the same round."""
    if _local_certificate(graph, image, extra, fuel):
        yield "local"
        return
    yield from _connectivity_steps(graph, sorted(boundary), image, extra, 1, fuel)


def _dovetail_query(
    finder: Iterator[tuple | None], joiner: Iterator[str | None]
) -> tuple[tuple[int, ...] | None, str | None]:
    """Fair 1:1 interleaving of the finite-component and connectivity searches.

    Returns (witness, None) when the finder halts with a finite-component
    witness, or (None, route) when the joiner halts, certifying that there
    is none by the named route.  Both halting in the same round is
    impossible for a correct declaration and raises EndsDeclarationError.
    """
    while True:
        witness = next(finder)
        route = next(joiner)
        if witness is not None and route is not None:
            raise EndsDeclarationError(
                "both the finite-component search and the connectivity search "
                "halted; the declared end count cannot be correct"
            )
        if witness is not None or route is not None:
            return witness, route


@dataclass(frozen=True)
class Certified:
    """A vertex set whose complement the decider certified to have no
    finite component, as :meth:`EndsDecider.find_finite_component` returns it.

    ``image`` is the set V the queries named, without the separator;
    ``boundary`` is ∂V, the complement vertices adjacent to V or to the
    separator; ``floor`` is the least vertex outside ``image``, found on
    construction by scanning up from the given value.
    """

    image: frozenset[int]
    boundary: frozenset[int]
    floor: int = 0

    def __post_init__(self) -> None:
        floor = self.floor
        while floor in self.image:
            floor += 1
        object.__setattr__(self, "floor", floor)


NOTHING = Certified(frozenset(), frozenset())


@dataclass
class EndsDecider:
    """Mode-aware decider for "the complement of V has no finite component".

    In two-ended mode every query is augmented with the separator before
    deciding, so callers need not thread the certificate along.  The fuel
    meter is shared across queries.  ``local`` and ``full`` count the
    queries certified by the local certificate and by the full joiner;
    they affect no result.
    """

    graph: object
    mode: str  # "one" | "two"
    separator: frozenset[int] = frozenset()
    fuel: Fuel = field(default_factory=Fuel)
    local: int = field(default=0, init=False, compare=False)
    full: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("one", "two"):
            raise ConfigError(f"decider mode must be 'one' or 'two', got {self.mode!r}")
        if self.mode == "two" and not self.separator:
            raise ConfigError("two-ended decider requires a nonempty separator")

    def augmented(self, deleted: Iterable[int]) -> frozenset[int]:
        vertices = frozenset(deleted)
        return vertices | self.separator if self.mode == "two" else vertices

    def _boundary(self, extra: frozenset[int], base: Certified) -> frozenset[int]:
        """∂V for V = S ∪ extra, S = base.image: (∂S ∖ V) ∪ (N(V ∖ S) ∖ V),
        so only the vertices V adds to S are scanned."""
        image = base.image
        out = {b for b in base.boundary if b not in extra}
        for v in extra:
            if v in image:
                continue
            for u in self.graph.neighbors(v):
                if u not in image and u not in extra:
                    out.add(u)
        return frozenset(out)

    def find_finite_component(
        self, deleted: Iterable[int], base: Certified = NOTHING
    ) -> tuple[int, ...] | Certified:
        """Witness component of the complement of V = base.image ∪ deleted,
        augmented, or the certificate of V when it has none.

        ``base`` must be a certificate this decider returned: in one-ended
        mode the local certificate relies on it.
        """
        deleted = frozenset(deleted)
        extra = self.augmented(deleted)
        boundary = self._boundary(extra, base)
        finder = _finite_component_steps(self.graph, base.image, self.fuel, extra, base.floor)
        if self.mode == "two":
            joiner = _connectivity_steps(
                self.graph, sorted(boundary), base.image, extra, 2, self.fuel
            )
        else:
            joiner = _one_ended_steps(self.graph, base.image, extra, boundary, self.fuel)
        witness, route = _dovetail_query(finder, joiner)
        if route is None:
            return witness
        if route == "local":
            self.local += 1
        else:
            self.full += 1
        return Certified(base.image | deleted, boundary, base.floor)

    def no_finite_component(self, deleted: Iterable[int]) -> bool:
        return isinstance(self.find_finite_component(deleted), Certified)


def witness_pair(graph, path: ThreePath, image: frozenset[int]) -> tuple[int, int] | None:
    """Canonical unvisited witnesses near the path's endpoints, or None.

    Start-side candidates are the unvisited vertices within distance 3 of
    the first path vertex, end-side likewise for the last vertex, both in
    sorted order; the returned pair is the first (start, end) combination
    with distinct members, scanning start candidates in the outer loop.
    ``image`` is the path's image.
    """
    start_cands = sorted(ball(graph, path.first, 3) - image)
    end_cands = sorted(ball(graph, path.last, 3) - image)
    for ws in start_cands:
        for we in end_cands:
            if ws != we:
                return (ws, we)
    return None
