"""Deciding whether a finite vertex set leaves a finite complement component.

Removing a finite vertex set V from an infinite connected locally finite
graph leaves finitely many components, of which some may be finite.
:class:`EndsDecider` answers "does the complement of V have no finite
component?" for a graph with a declared end count, one or two, by one
search, the joiner.  It grows breadth-first regions inside the complement
from ∂V, the complement vertices adjacent to V, one layer per step, and
merges two regions into one class when they meet.  It halts in one of two
ways:

- the classes have merged into as many as the graph has ends (in
  two-ended mode V always contains a declared separator whose removal
  leaves the two infinite sides): V is certified, and the query returns
  a :class:`Certified`, the certificate of V; only the decider makes them;
- after a full layer, a class put no vertex into the next layer: that
  class is a finite component, and the query returns it, as its sorted
  vertices, as the witness (when several close in the same layer, the one
  with the least boundary vertex).

Why this is exact.  The graph is connected, so every complement component
contains a vertex of ∂V; each class lies inside one component, and each
component is a union of classes.  A class that put no vertex into the next
layer has reached every complement neighbour of its vertices, so it is
closed under adjacency; it is connected, so it is a whole component, and a
finite one.  A finite component C closes within |C| layers.  The infinite
components number at most the ends and, since V contains the separator in
two-ended mode, at least as many, and no two of them ever share a class.
So with a finite component the classes stay above the target, and without
one the regions of each infinite component meet within finitely many
layers and the target is met.

A query names V as ``base.image ∪ deleted``, where ``base`` is a
:class:`Certified` this decider returned (or :data:`NOTHING`, the empty
one).  In one-ended mode the joiner first tries a local certificate from
the added vertices R = V ∖ S, where S = ``base.image``:

- split R into its adjacency components Rᵢ, and let Bᵢ = N(Rᵢ) ∖ V, the
  free neighbours of each cluster;
- run one layer of the joiner seeded from ⋃Bᵢ;
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
it does not certify, the full joiner runs from the whole boundary ∂V in
sorted order.  Two-ended mode uses the full joiner only.

∂V is the full joiner's seed.  A certificate carries ∂S, so the boundary
of V is (∂S ∖ V) ∪ (N(R) ∖ V) and a query scans only R.  Nothing is
cached between queries: the certificates belong to the caller, and the
decider keeps only counts of its certifications.

The joiner is only complete under the *declared* end count (which is
input, not computed); detectably impossible outcomes raise
:class:`EndsDeclarationError` instead of returning an arbitrary verdict:
fewer than two boundary vertices in two-ended mode, and a layer that
leaves no vertex at all, which only a finite graph allows.  The joiner runs
under an explicit :class:`~tlaction.errors.Fuel` budget and raises
:class:`~tlaction.errors.FuelExhausted` rather than loop forever on invalid
declarations.  :func:`witness_pair` supplies the other half of
bi-extensibility: unvisited vertices near both ends of a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ConfigError, EndsDeclarationError, Fuel
from .graph import ball, components_of
from .paths import ThreePath


def _boundary_vertices(graph, deleted: frozenset[int]) -> list[int]:
    """∂V by a full scan: complement vertices adjacent to the deleted set,
    sorted.  The reference that the carried boundaries are tested against."""
    out: set[int] = set()
    for v in deleted:
        for u in graph.neighbors(v):
            if u not in deleted:
                out.add(u)
    return sorted(out)


def _root(parent: dict, x: int) -> int:
    """The root of x's class in the union-find forest ``parent``, halving
    the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


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
) -> Iterator[tuple[int, ...] | str | None]:
    """The full joiner: yields None per layer until the boundary vertices
    ``v0`` of V = ``deleted ∪ extra`` have merged into exactly
    ``target_classes`` connectivity classes, then ``"full"``, or until a
    layer leaves a class closed, then that finite component.

    Classes merge when breadth-first regions grown from the boundary
    vertices inside the complement meet.  The count starts above the
    target and drops by one per merge, so it meets the target before it
    could fall below it.  After a full layer, a class none of whose
    vertices entered the next layer is closed; the one with the least root
    is yielded as its sorted vertices.  Fewer boundary vertices than two
    in two-ended mode, and a layer that leaves no vertex at all, are
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
    while True:
        nxt: list[int] = []
        classes -= _join_layer(
            graph, layer, parent, color, deleted, extra, fuel, nxt, classes - target_classes
        )
        if classes == target_classes:
            yield "full"
            return
        if not nxt:
            # Every class closed at once: the complement is finite, so the
            # graph behind the oracle is not infinite as required.
            raise EndsDeclarationError(
                "complement exploration exhausted a finite graph; oracle does not "
                "present an infinite connected graph"
            )
        live = {_root(parent, color[y]) for y in nxt}
        if len(live) < classes:
            closed = min(x for x in parent if parent[x] == x and x not in live)
            yield tuple(sorted(y for y, c in color.items() if _root(parent, c) == closed))
            return
        layer = nxt
        yield None


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
    return all(len({_root(parent, b) for b in side}) <= 1 for side in sides)


@dataclass(frozen=True)
class Certified:
    """A vertex set whose complement the decider certified to have no
    finite component, as :meth:`EndsDecider.find_finite_component` returns it.

    ``image`` is the set V the queries named, without the separator;
    ``boundary`` is ∂V, the complement vertices adjacent to V or to the
    separator, which seeds the joiner of a query made on top of it.
    """

    image: frozenset[int]
    boundary: frozenset[int]


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
        if self.mode == "one" and _local_certificate(self.graph, base.image, extra, self.fuel):
            self.local += 1
        else:
            target = 1 if self.mode == "one" else 2
            joiner = _connectivity_steps(
                self.graph, sorted(boundary), base.image, extra, target, self.fuel
            )
            found = next(step for step in joiner if step is not None)
            if isinstance(found, tuple):
                return found
            self.full += 1
        return Certified(base.image | deleted, boundary)

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
