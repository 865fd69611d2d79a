"""Finite paths with bounded jumps, and Hamiltonian such paths in finite patches.

A :class:`ThreePath` is an injective map from an integer interval into the
vertices of a graph in which consecutive values are at distance at most 3.
These are the finite approximations out of which the translation action is
built; the interval endpoints matter, so paths carry their own indexing.

:func:`karaganis_path` produces, in any connected finite patch and for any
choice of entry and exit vertex, a Hamiltonian path whose consecutive
vertices are at patch-distance at most 3 — with the sharper guarantees
that the first and last jumps are at most 2 and no two consecutive jumps
both exceed 2.  Those extras are exactly what makes concatenations of such
paths stay within jump bound 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .graph import FinitePatch, components_of, distance


@dataclass(frozen=True)
class ThreePath:
    """An injective vertex sequence indexed by an integer interval.

    ``vertices[k]`` sits at index ``start + k``; the domain is the interval
    ``[start, start + len(vertices) - 1]``.  Jump bounds are a property of
    the path *in a graph* and are checked by :func:`check_jumps`, not here.
    """

    start: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InvariantError("a path visits at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvariantError("path vertices must be distinct")

    # -- indexing

    @property
    def lo(self) -> int:
        return self.start

    @property
    def hi(self) -> int:
        return self.start + len(self.vertices) - 1

    @property
    def domain(self) -> range:
        return range(self.lo, self.hi + 1)

    def at(self, i: int) -> int:
        if not self.lo <= i <= self.hi:
            raise KeyError(f"index {i} outside path domain [{self.lo}, {self.hi}]")
        return self.vertices[i - self.start]

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def visits(self, v: int) -> bool:
        return v in self.vertices

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def invert_path(f: ThreePath) -> ThreePath:
    """The reversed path, reindexed so position i maps to old position -i."""
    return ThreePath(start=-f.hi, vertices=tuple(reversed(f.vertices)))


def shift_path(f: ThreePath, k: int) -> ThreePath:
    return ThreePath(start=f.start + k, vertices=f.vertices)


def check_jumps(graph, path: ThreePath, max_jump: int = 3) -> None:
    """Verify jump bounds, raising :class:`InvariantError` on the first failure."""
    for i in range(path.lo, path.hi):
        u, v = path.at(i), path.at(i + 1)
        if distance(graph, u, v, cap=max_jump) is None:
            raise InvariantError(
                f"jump at index {i} (from vertex {u} to {v}) exceeds {max_jump}"
            )


# ---------------------------------------------------------------------------
# Hamiltonian 3-paths in finite patches
# ---------------------------------------------------------------------------


def _components_ordered(patch: FinitePatch, removed: int, anchor: int):
    """Components of patch minus ``removed``: anchor's first, rest by least vertex."""
    rest = [v for v in patch.vertices if v != removed]
    comps = list(components_of(patch, rest))
    comps.sort(key=lambda c: (anchor not in c, c[0]))
    return comps


def karaganis_path(patch: FinitePatch, u: int, v: int) -> tuple[int, ...]:
    """A Hamiltonian sequence of ``patch`` from ``u`` to ``v`` with small jumps.

    Guarantees, with distances measured in ``patch`` (so they can only
    shrink in any supergraph):

    - consecutive vertices are at distance at most 3;
    - when the sequence has at least two vertices, the first and the last
      jump are at most 2;
    - no two consecutive jumps both exceed 2.

    Requires ``patch`` connected and ``u != v`` unless the patch is a
    single vertex.  The construction removes ``v``, orders the remaining
    components (the one holding ``u`` first, then by least vertex), walks
    each between chosen entry/exit vertices recursively, and appends ``v``.
    The output is re-validated against the patch metric before returning.
    """
    vset = patch.vertex_set
    if u not in vset or v not in vset:
        raise InvariantError("endpoints must be patch vertices")
    if len(patch.vertices) == 1:
        if u != v:
            raise InvariantError("two endpoints in a one-vertex patch")
        return (u,)
    if u == v:
        raise InvariantError("distinct endpoints required in a multi-vertex patch")
    if len(components_of(patch, patch.vertices)) != 1:
        raise InvariantError("patch must be connected")

    out: list[int] = []
    # Work items processed in order; ("emit", x) appends x, ("walk", p, a, b)
    # expands to the Hamiltonian walk of sub-patch p from a to b.
    stack: list[tuple] = [("walk", patch, u, v)]
    while stack:
        item = stack.pop()
        if item[0] == "emit":
            out.append(item[1])
            continue
        _, p, a, b = item
        n = len(p.vertices)
        if n <= 3:
            middle = sorted(set(p.vertices) - {a, b})
            out.append(a)
            out.extend(middle)
            if b != a:
                out.append(b)
            continue
        comps = _components_ordered(p, b, a)
        entries_exits: list[tuple[FinitePatch, int, int]] = []
        for k, comp in enumerate(comps):
            sub = p.induced(comp)
            if k == 0:
                entry = a
                candidates = [x for x in comp if x != entry and p.adjacent(x, b)]
                if candidates:
                    exit_ = min(candidates)
                elif len(comp) == 1:
                    exit_ = entry
                else:
                    exit_ = min(sub.neighbors(entry))
            else:
                entry = min(x for x in comp if p.adjacent(x, b))
                nbrs = sub.neighbors(entry)
                exit_ = min(nbrs) if nbrs else entry
            entries_exits.append((sub, entry, exit_))
        stack.append(("emit", b))
        for sub, entry, exit_ in reversed(entries_exits):
            stack.append(("walk", sub, entry, exit_))

    _check_constrained(patch, tuple(out), u, v)
    return tuple(out)


def karaganis_constrained(patch: FinitePatch, u: int, v: int) -> ThreePath:
    """Hamiltonian 3-path on ``patch`` from ``u`` to ``v``, domain starting at 0.

    Jumps are at most 3 in the patch metric; the first and last jumps are
    at most 2 when the path has length >= 2; no two consecutive jumps both
    exceed 2.  Requires a nonempty connected patch and ``u != v``.
    """
    if not patch.vertices:
        raise InvariantError("empty patch has no Hamiltonian path")
    if u == v:
        raise InvariantError("endpoints must be distinct")
    return ThreePath(0, karaganis_path(patch, u, v))


def _check_constrained(patch: FinitePatch, seq: tuple[int, ...], u: int, v: int) -> None:
    """Validate the guarantees of :func:`karaganis_path` against the patch metric."""
    if set(seq) != set(patch.vertices) or len(seq) != len(patch.vertices):
        raise InvariantError("sequence is not a Hamiltonian ordering of the patch")
    if seq[0] != u or seq[-1] != v:
        raise InvariantError("sequence endpoints do not match the request")
    jumps = [distance(patch, seq[k], seq[k + 1], cap=4) for k in range(len(seq) - 1)]
    for k, d in enumerate(jumps):
        if d is None or d > 3:
            raise InvariantError(f"jump {k} of the Hamiltonian sequence exceeds 3")
    if jumps:
        if jumps[0] > 2:
            raise InvariantError("first jump exceeds 2")
        if jumps[-1] > 2:
            raise InvariantError("last jump exceeds 2")
        for k in range(len(jumps) - 1):
            if jumps[k] > 2 and jumps[k + 1] > 2:
                raise InvariantError(f"consecutive jumps {k}, {k + 1} both exceed 2")
