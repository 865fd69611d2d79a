"""Deciding whether a finite vertex set leaves a finite complement component.

Removing a finite vertex set V from an infinite connected locally finite
graph leaves finitely many components, of which some may be finite.
:class:`EndsDecider` answers "does the complement of V have no finite
component?" for a graph with a declared end count, one or two.  Each
query dovetails two searches:

- a growing-ball search that halts exactly when a finite component
  exists, producing it as a witness;
- a connectivity search that halts once the vertices around V have
  merged into as many complement-connected classes as the graph has ends
  (in two-ended mode V always contains a declared separator whose removal
  leaves the two infinite sides).

The connectivity search starts from V0, the complement vertices adjacent
to V, in sorted order.  A caller that grows V stage by stage carries the
boundary of the set it had certified (:meth:`EndsDecider.boundary`) and
passes it with the new vertices: the boundary of the grown set is then
(old boundary ∖ V) ∪ (neighbours of the new vertices ∖ V), so a query
scans the new vertices and the old boundary instead of all of V.  The
growing-ball search likewise starts its scan for the least vertex outside
V at a given floor.  Nothing is cached between queries: the carried sets
belong to the caller.

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

from .errors import ConfigError, EndsDeclarationError, Fuel, default_fuel
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

    The deleted set V is ``deleted ∪ extra``.  Round n compares the
    components of (ball of radius n around the least vertex outside V)
    minus V against those of the radius-(n+1) ball: a component with
    identical vertex set in both is closed under adjacency in the full
    graph, hence a finite component of the complement.
    """
    v0 = _least_outside(deleted, extra, floor)
    n = 0
    while True:
        n += 1
        inner = ball(graph, v0, n) - deleted - extra
        outer = ball(graph, v0, n + 1) - deleted - extra
        fuel.tick(len(outer) + 1)
        comps_inner = components_of(graph, inner)
        comps_outer = set(components_of(graph, outer))
        witness = next((c for c in comps_inner if c in comps_outer), None)
        yield witness


def _boundary_vertices(graph, deleted: frozenset[int]) -> list[int]:
    """V0 by a full scan: complement vertices adjacent to the deleted set,
    sorted.  The reference that the carried boundaries are tested against."""
    out: set[int] = set()
    for v in deleted:
        for u in graph.neighbors(v):
            if u not in deleted:
                out.add(u)
    return sorted(out)


def _connectivity_steps(
    graph, v0: list[int], deleted, extra: frozenset[int], target_classes: int, fuel: Fuel
) -> Iterator[bool]:
    """Generator yielding False per step until the boundary vertices ``v0``
    of V = ``deleted ∪ extra`` have merged into exactly ``target_classes``
    connectivity classes, then True.

    Classes merge when breadth-first regions grown from the boundary
    vertices inside the complement meet.  The count starts above the
    target and drops by one per merge, so it meets the target before it
    could fall below it; fewer boundary vertices than two in two-ended
    mode, and a complement exhausted before the target is met, are
    impossible for the declared end count.  ``parent`` is a union-find
    forest over ``v0`` whose roots are the least vertices of their
    classes, and ``color`` maps each reached complement vertex to a vertex
    of its class.
    """
    classes = len(v0)
    if classes < target_classes:
        if target_classes == 2:
            raise EndsDeclarationError(
                f"two-ended declaration inconsistent: only {classes} boundary "
                "class(es) around the deleted set"
            )
        yield True
        return
    if classes == target_classes:
        yield True
        return
    parent = {x: x for x in v0}
    color = dict(parent)
    layer = v0
    while layer:
        nxt: list[int] = []
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
                classes -= 1
                if classes == target_classes:
                    yield True
                    return
        layer = nxt
        yield False
    # The complement region was exhausted without reaching the target: the
    # graph behind the oracle is not infinite as required.
    raise EndsDeclarationError(
        "complement exploration exhausted a finite graph; oracle does not "
        "present an infinite connected graph"
    )


def _dovetail_query(
    graph,
    v0: list[int],
    deleted,
    extra: frozenset[int],
    floor: int,
    target_classes: int,
    fuel: Fuel,
) -> tuple[int, ...] | None:
    """Fair 1:1 interleaving of the finite-component and connectivity searches.

    Returns the finite-component witness, or None when connectivity halts
    (certifying no finite component).  Both halting in the same round is
    impossible for a correct declaration and raises EndsDeclarationError.
    """
    finder = _finite_component_steps(graph, deleted, fuel, extra, floor)
    joiner = _connectivity_steps(graph, v0, deleted, extra, target_classes, fuel)
    while True:
        witness = next(finder)
        joined = next(joiner)
        if witness is not None and joined:
            raise EndsDeclarationError(
                "both the finite-component search and the connectivity search "
                "halted; the declared end count cannot be correct"
            )
        if witness is not None:
            return witness
        if joined:
            return None


@dataclass
class EndsDecider:
    """Mode-aware decider for "the complement of V has no finite component".

    In two-ended mode every query is augmented with the separator before
    deciding, so callers need not thread the certificate along.  The fuel
    meter is shared across queries.
    """

    graph: object
    mode: str  # "one" | "two"
    separator: frozenset[int] = frozenset()
    fuel: Fuel = field(default_factory=lambda: Fuel(default_fuel()))

    def __post_init__(self) -> None:
        if self.mode not in ("one", "two"):
            raise ConfigError(f"decider mode must be 'one' or 'two', got {self.mode!r}")
        if self.mode == "two" and not self.separator:
            raise ConfigError("two-ended decider requires a nonempty separator")

    def augmented(self, deleted: Iterable[int]) -> frozenset[int]:
        base = frozenset(deleted)
        return base | self.separator if self.mode == "two" else base

    def boundary(
        self,
        deleted: Iterable[int],
        image: frozenset[int] = frozenset(),
        image_boundary: frozenset[int] = frozenset(),
    ) -> frozenset[int]:
        """∂V: the complement vertices adjacent to V = image ∪ deleted,
        augmented.

        ``image_boundary`` must be ``self.boundary(image)``.  Then ∂V is
        (∂image ∖ V) ∪ (N(V ∖ image) ∖ V), so only the vertices V adds to
        the image are scanned; with the default empty image every vertex
        of V is.
        """
        extra = self.augmented(deleted)
        out = {b for b in image_boundary if b not in extra}
        for v in extra:
            if v in image:
                continue
            for u in self.graph.neighbors(v):
                if u not in image and u not in extra:
                    out.add(u)
        return frozenset(out)

    def find_finite_component(
        self,
        deleted: Iterable[int],
        image: frozenset[int] = frozenset(),
        boundary: frozenset[int] | None = None,
        floor: int = 0,
    ) -> tuple[int, ...] | None:
        """Witness component of the complement of V = image ∪ deleted,
        augmented, or None if it has none.

        ``boundary`` is ∂V when the caller has it from :meth:`boundary`;
        without it V is scanned in full.  Every vertex below ``floor`` must
        lie in ``image``: the growing-ball search starts from the least
        vertex outside V and looks for it from ``floor`` up.
        """
        extra = self.augmented(deleted)
        if boundary is None:
            boundary = self.boundary(image | extra)
        target = 2 if self.mode == "two" else 1
        return _dovetail_query(
            self.graph, sorted(boundary), image, extra, floor, target, self.fuel
        )

    def no_finite_component(self, deleted: Iterable[int]) -> bool:
        return self.find_finite_component(deleted) is None


def witness_pair(
    graph, path: ThreePath, image: frozenset[int] | None = None
) -> tuple[int, int] | None:
    """Canonical unvisited witnesses near the path's endpoints, or None.

    Start-side candidates are the unvisited vertices within distance 3 of
    the first path vertex, end-side likewise for the last vertex, both in
    sorted order; the returned pair is the first (start, end) combination
    with distinct members, scanning start candidates in the outer loop.
    ``image`` is the path's image when the caller has it.
    """
    if image is None:
        image = path.image
    start_cands = sorted(ball(graph, path.first, 3) - image)
    end_cands = sorted(ball(graph, path.last, 3) - image)
    for ws in start_cands:
        for we in end_cands:
            if ws != we:
                return (ws, we)
    return None
