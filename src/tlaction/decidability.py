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


def _least_outside(graph, deleted: frozenset[int]) -> int:
    v = 0
    while v in deleted:
        v += 1
    return v


def _finite_component_steps(graph, deleted: frozenset[int], fuel: Fuel) -> Iterator[tuple | None]:
    """Generator yielding None per round; yields the witness component when found.

    Round n compares the components of (ball of radius n around the least
    vertex outside V) minus V against those of the radius-(n+1) ball: a
    component with identical vertex set in both is closed under adjacency
    in the full graph, hence a finite component of the complement.
    """
    v0 = _least_outside(graph, deleted)
    n = 0
    while True:
        n += 1
        inner = ball(graph, v0, n) - deleted
        outer = ball(graph, v0, n + 1) - deleted
        fuel.tick(len(outer) + 1)
        comps_inner = components_of(graph, inner)
        comps_outer = set(components_of(graph, outer))
        witness = next((c for c in comps_inner if c in comps_outer), None)
        yield witness


class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}
        self.classes = len(self.parent)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.classes -= 1
        return True


def _boundary_vertices(graph, deleted: frozenset[int]) -> list[int]:
    """V0: complement vertices adjacent to the deleted set, sorted."""
    out: set[int] = set()
    for v in deleted:
        for u in graph.neighbors(v):
            if u not in deleted:
                out.add(u)
    return sorted(out)


def _connectivity_steps(
    graph, deleted: frozenset[int], target_classes: int, fuel: Fuel
) -> Iterator[bool]:
    """Generator yielding False per step until the boundary vertices have
    merged into exactly ``target_classes`` connectivity classes, then True.

    Classes merge when breadth-first regions grown from the boundary
    vertices inside the complement meet; the class count can only shrink,
    and shrinking strictly below the target is reported as an impossible
    state for the declared end count.
    """
    v0 = _boundary_vertices(graph, deleted)
    uf = _UnionFind(v0)
    if uf.classes < target_classes:
        if target_classes == 2:
            raise EndsDeclarationError(
                f"two-ended declaration inconsistent: only {uf.classes} boundary "
                "class(es) around the deleted set"
            )
        yield True
        return
    if uf.classes == target_classes:
        yield True
        return
    color: dict[int, int] = {x: x for x in v0}
    layer = list(v0)
    while layer:
        nxt: list[int] = []
        for x in layer:
            fuel.tick()
            cx = uf.find(color[x])
            for y in graph.neighbors(x):
                if y in deleted:
                    continue
                if y not in color:
                    color[y] = cx
                    nxt.append(y)
                elif uf.union(cx, color[y]):
                    if uf.classes == target_classes:
                        yield True
                        return
                    if uf.classes < target_classes:
                        raise EndsDeclarationError(
                            "declared end count inconsistent: boundary classes "
                            f"merged below {target_classes}"
                        )
        layer = nxt
        yield False
    # The complement region was exhausted without reaching the target: the
    # graph behind the oracle is not infinite as required.
    raise EndsDeclarationError(
        "complement exploration exhausted a finite graph; oracle does not "
        "present an infinite connected graph"
    )


def _dovetail_query(
    graph, deleted: frozenset[int], target_classes: int, fuel: Fuel
) -> tuple[int, ...] | None:
    """Fair 1:1 interleaving of the finite-component and connectivity searches.

    Returns the finite-component witness, or None when connectivity halts
    (certifying no finite component).  Both halting in the same round is
    impossible for a correct declaration and raises EndsDeclarationError.
    """
    finder = _finite_component_steps(graph, deleted, fuel)
    joiner = _connectivity_steps(graph, deleted, target_classes, fuel)
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

    def find_finite_component(self, deleted: Iterable[int]) -> tuple[int, ...] | None:
        """Witness component of the (augmented) complement, or None if none."""
        dele = self.augmented(deleted)
        target = 2 if self.mode == "two" else 1
        return _dovetail_query(self.graph, dele, target, self.fuel)

    def no_finite_component(self, deleted: Iterable[int]) -> bool:
        return self.find_finite_component(deleted) is None


def witness_pair(graph, path: ThreePath) -> tuple[int, int] | None:
    """Canonical unvisited witnesses near the path's endpoints, or None.

    Start-side candidates are the unvisited vertices within distance 3 of
    the first path vertex, end-side likewise for the last vertex, both in
    sorted order; the returned pair is the first (start, end) combination
    with distinct members, scanning start candidates in the outer loop.
    """
    image = path.image
    start_cands = sorted(ball(graph, path.first, 3) - image)
    end_cands = sorted(ball(graph, path.last, 3) - image)
    for ws in start_cands:
        for we in end_cands:
            if ws != we:
                return (ws, we)
    return None
