"""The Cayley graph of a group, and finite patches cut out of it.

:class:`CayleyGraph` presents the Cayley graph of a
:class:`~tlaction.groups.GroupOracle` on its canonical numbering: vertices
are numbering indices, and two indices are adjacent when their canonical
words differ by one generator letter on the right.  It is the only
infinite graph in the package.

Finite fragments are materialised as :class:`FinitePatch` values:
immutable induced subgraphs with DOT/JSON export.  The breadth-first
searches (:func:`ball`, :func:`distance`, :func:`shortest_path`,
:func:`reachable`, :func:`components_of`) read only ``neighbors`` and so
run on either kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .errors import Fuel, InvariantError
from .groups import GroupOracle, Numbering, canonical_numbering


class CayleyGraph:
    """Cayley graph of a group oracle on its canonical numbering.

    Each vertex ``v`` has a labelled row: the indices of ``word(v) * s``
    for every generator letter ``s`` (inverses included), in
    ``oracle.letters`` order.  :meth:`step` reads one entry, so right
    multiplication by a letter is a table read; :meth:`neighbors` is the
    row's distinct entries other than ``v``, sorted.  One cache miss fills
    both from :meth:`~tlaction.groups.Numbering.neighbour_row`, which steps
    ``v``'s normal key once per letter when the oracle has a ``key_step``
    (and no ``fast_index``) and builds no word.  The graph is
    vertex-transitive and has degree at most twice the generator count
    everywhere.
    """

    def __init__(
        self,
        oracle: GroupOracle,
        numbering: Numbering | None = None,
        fuel: Fuel | None = None,
    ):
        self.oracle = oracle
        self.numbering = numbering if numbering is not None else canonical_numbering(oracle, fuel)
        self.fuel = fuel
        self._slot = {lt: i for i, lt in enumerate(oracle.letters)}
        self._rows: dict[int, tuple[int, ...]] = {}
        self._cache: dict[int, tuple[int, ...]] = {}

    def neighbors(self, v: int) -> tuple[int, ...]:
        if self.fuel is not None:
            self.fuel.tick()
        cached = self._cache.get(v)
        if cached is not None:
            return cached
        self._rows[v] = row = self.numbering.neighbour_row(v)
        seen = set(row)
        seen.discard(v)
        self._cache[v] = result = tuple(sorted(seen))
        return result

    def step(self, v: int, s: int) -> int:
        """The index of ``word(v) * s`` for one generator letter ``s``."""
        row = self._rows.get(v)
        if row is None:
            self.neighbors(v)
            row = self._rows[v]
        return row[self._slot[s]]


# ---------------------------------------------------------------------------
# breadth-first searches against an oracle
# ---------------------------------------------------------------------------


def ball(
    graph, center: int, radius: int, avoid: frozenset[int] | set[int] = frozenset()
) -> set[int]:
    """All vertices at distance <= radius from ``center``, by paths that
    enter no vertex of ``avoid`` (the center is kept regardless)."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in seen and u not in avoid:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            break
    return seen


def distance(graph, u: int, v: int, cap: int | None = None) -> int | None:
    """Graph distance from u to v; ``None`` when it exceeds ``cap``.

    Without a cap this is a semi-decision: it halts iff u and v are in the
    same component.
    """
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    d = 0
    while frontier:
        d += 1
        if cap is not None and d > cap:
            return None
        nxt: list[int] = []
        for w in frontier:
            for x in graph.neighbors(w):
                if x == v:
                    return d
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return None


def shortest_path(
    graph,
    start: int,
    goal: int | Callable[[int], bool],
    avoid: frozenset[int] | set[int] = frozenset(),
    cap: int | None = None,
) -> tuple[int, ...] | None:
    """A shortest path from ``start`` to ``goal`` spelled as a vertex tuple.

    ``goal`` may be a vertex or a predicate.  Vertices in ``avoid`` are not
    entered (the start is allowed regardless).  Ties are broken by visiting
    neighbours in sorted order, so the result is deterministic.
    """
    hit = goal if callable(goal) else (lambda v: v == goal)
    if hit(start):
        return (start,)
    parent: dict[int, int] = {start: start}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        if cap is not None and d > cap:
            return None
        nxt: list[int] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u in parent or u in avoid:
                    continue
                parent[u] = v
                if hit(u):
                    out = [u]
                    while out[-1] != start:
                        out.append(parent[out[-1]])
                    return tuple(reversed(out))
                nxt.append(u)
        frontier = nxt
    return None


def reachable(
    graph, a: int, b: int, avoid: frozenset[int] | set[int], cap: int
) -> bool:
    """Whether ``shortest_path(graph, a, b, avoid=avoid, cap=cap)`` finds a path.

    Meets in the middle (Pohl, "Bi-directional search", 1971): grows
    ⌈cap/2⌉ layers from ``a`` and ⌊cap/2⌋ from ``b``, neither entering
    ``avoid``, and tests whether the two balls meet.  Requires symmetric
    adjacency, as in Cayley graphs and patches.  Where no path exists this
    explores two balls of half the radius instead of one of the full radius.
    """
    if a == b:
        return True
    if b in avoid:
        return False
    near_b = ball(graph, b, cap // 2, avoid)
    return not ball(graph, a, cap - cap // 2, avoid).isdisjoint(near_b)


def components_of(graph, vertices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subgraph induced on a finite vertex set.

    Returned as a tuple of sorted vertex tuples, sorted by least vertex.
    """
    todo = set(vertices)
    comps: list[tuple[int, ...]] = []
    while todo:
        seed = min(todo)
        comp = {seed}
        stack = [seed]
        todo.discard(seed)
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if u in todo:
                    todo.discard(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return tuple(comps)


# ---------------------------------------------------------------------------
# finite patches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePatch:
    """An immutable finite induced subgraph.

    ``vertices`` is sorted; ``edges`` holds each edge once as ``(u, v)``
    with ``u < v``, sorted.  All queries run against this data alone.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise InvariantError("patch vertices must be distinct")
        for u, v in self.edges:
            if not (u < v):
                raise InvariantError(f"patch edge ({u}, {v}) not normalised")
            if u not in vs or v not in vs:
                raise InvariantError(f"patch edge ({u}, {v}) leaves the vertex set")

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def _adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def induced(self, subset: Iterable[int]) -> "FinitePatch":
        keep = set(subset)
        missing = keep - set(self.vertices)
        if missing:
            raise InvariantError(f"subset leaves the patch: {sorted(missing)}")
        return FinitePatch(
            vertices=tuple(sorted(keep)),
            edges=tuple(e for e in self.edges if e[0] in keep and e[1] in keep),
        )


def induced_patch(graph, vertices: Iterable[int]) -> FinitePatch:
    """Materialise the subgraph induced on a finite vertex set."""
    vs = sorted(set(vertices))
    vset = set(vs)
    edges = set()
    for v in vs:
        for u in graph.neighbors(v):
            if u in vset and u != v:
                edges.add((min(u, v), max(u, v)))
    return FinitePatch(vertices=tuple(vs), edges=tuple(sorted(edges)))


def patch_to_json(patch: FinitePatch, labels: Mapping[int, str] | None = None) -> str:
    doc: dict = {
        "vertices": list(patch.vertices),
        "edges": [list(e) for e in patch.edges],
    }
    if labels is not None:
        doc["labels"] = {str(v): labels[v] for v in patch.vertices if v in labels}
    return json.dumps(doc, sort_keys=True, indent=2)


def patch_to_dot(patch: FinitePatch, labels: Mapping[int, str] | None = None) -> str:
    lines = ["graph patch {"]
    for v in patch.vertices:
        if labels is not None and v in labels:
            lines.append(f'  n{v} [label="{labels[v]}"];')
        else:
            lines.append(f"  n{v};")
    for u, v in patch.edges:
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines)
