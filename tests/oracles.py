"""Independent oracles used to compute expected test values.

Everything here is deliberately written *against different algorithms* than
the package: expectations produced by these functions are either frozen
into tests as literals or compared live.  No oracle may call into the
package for the quantity it is checking.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# word-problem-only shortlex enumeration (numbering oracle)
# ---------------------------------------------------------------------------


def shortlex_words(n_gens: int, max_len: int):
    """All words over 2*n_gens letters in shortlex order, up to max_len."""
    alphabet = []
    for i in range(n_gens):
        alphabet.append(i + 1)
        alphabet.append(-(i + 1))
    out = [()]
    level = [()]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for lt in alphabet:
                nxt.append(w + (lt,))
        out.extend(nxt)
        level = nxt
    return out


def wp_shortlex_enumerate(wp, n_gens: int, count: int, max_len: int = 12):
    """First `count` canonical words: shortlex-least of each wp-class.

    Quadratic brute force: walk the shortlex stream, keep a word iff it is
    not wp-equal to any kept word.
    """

    def inv(w):
        return tuple(-l for l in reversed(w))

    kept: list[tuple] = []
    for w in shortlex_words(n_gens, max_len):
        if all(not wp(k + inv(w)) for k in kept):
            kept.append(w)
            if len(kept) >= count:
                return kept
    raise AssertionError(f"needed longer enumeration (got {len(kept)}/{count})")


# ---------------------------------------------------------------------------
# rewriting oracles for the free-product-like groups (fixpoint iteration,
# unlike the package's single-pass stack)
# ---------------------------------------------------------------------------


def rewrite_fixpoint(word, rules):
    """Apply string-rewriting rules (tuples lhs->rhs over letters) to fixpoint."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        # free reduction
        for k in range(len(w) - 1):
            if w[k] == -w[k + 1]:
                del w[k : k + 2]
                changed = True
                break
        if changed:
            continue
        for lhs, rhs in rules:
            L = len(lhs)
            for k in range(len(w) - L + 1):
                if tuple(w[k : k + L]) == lhs:
                    w[k : k + L] = list(rhs)
                    changed = True
                    break
            if changed:
                break
    return tuple(w)


# letter conventions: a = 1, b/t = 2 (matching declaration order a < b)
Z2_Z3_RULES = (
    ((-1,), (1,)),      # a^-1 -> a
    ((1, 1), ()),        # a a -> e
    ((2, 2), (-2,)),     # b b -> b^-1
    ((-2, -2), (2,)),    # b^-1 b^-1 -> b
)

Z2_Z_RULES = (
    ((-1,), (1,)),      # a^-1 -> a
    ((1, 1), ()),        # a a -> e
)


def z2z3_reduce(word):
    return rewrite_fixpoint(word, Z2_Z3_RULES)


def z2z_reduce(word):
    return rewrite_fixpoint(word, Z2_Z_RULES)


def free_reduce(word):
    return rewrite_fixpoint(word, ())


def f2_cyclic_a_member(word) -> bool:
    """Reduced-word membership in <a> for the free group on a, b (a = 1)."""
    red = free_reduce(word)
    return all(abs(l) == 1 for l in red)


def bs12_element(word):
    """BS(1,2) element as (dyadic x, n) under a=(1,0), t=(0,1)."""
    x, n = Fraction(0), 0
    for l in word:
        if abs(l) == 1:
            x += Fraction(2) ** n if l > 0 else -(Fraction(2) ** n)
        else:
            n += 1 if l > 0 else -1
    return (x, n)


def bs12_ball_elements(max_len: int):
    """Every word over a, a^-1, t, t^-1 of length <= max_len, in shortlex
    order, paired with its :func:`bs12_element`, each computed from its
    prefix's element by one multiplication."""
    out = [((), (Fraction(0), 0))]
    level = out[:]
    for _ in range(max_len):
        nxt = []
        for w, (x, n) in level:
            nxt.append((w + (1,), (x + Fraction(2) ** n, n)))
            nxt.append((w + (-1,), (x - Fraction(2) ** n, n)))
            nxt.append((w + (2,), (x, n + 1)))
            nxt.append((w + (-2,), (x, n - 1)))
        out.extend(nxt)
        level = nxt
    return out


# ---------------------------------------------------------------------------
# brute-force cyclic-subgroup membership
# ---------------------------------------------------------------------------


def brute_cyclic_member(equal, c, w, bound=None) -> bool:
    """Whether w = c^n for some |n| <= bound (default: len(w)).

    `equal(u, v)` decides group equality of two words.  The default bound
    is valid whenever |c^n| grows at least linearly in n with unit slope,
    which holds for every shipped instance (the designated c has geodesic
    length >= 1 and no distortion).
    """
    if bound is None:
        bound = max(1, len(w))

    def inv(u):
        return tuple(-l for l in reversed(u))

    for n in range(-bound, bound + 1):
        cn = c * n if n >= 0 else inv(c) * (-n)
        if equal(w, cn):
            return True
    return False


# ---------------------------------------------------------------------------
# small-graph models, trees, and the permutation oracle for 3-paths
# ---------------------------------------------------------------------------


class SmallGraph:
    """Adjacency-set graph on arbitrary hashable vertices (test-side model)."""

    def __init__(self, vertices, edges):
        self.vertices = sorted(vertices)
        self.adj = {v: set() for v in self.vertices}
        self.edges = set()
        for u, v in edges:
            if u == v:
                continue
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.edges.add((min(u, v), max(u, v)))

    def distances(self):
        """All-pairs BFS distance dict; missing pairs are unreachable."""
        dist = {}
        for s in self.vertices:
            dist[(s, s)] = 0
            frontier, seen, d = [s], {s}, 0
            while frontier:
                d += 1
                nxt = []
                for x in frontier:
                    for y in self.adj[x]:
                        if y not in seen:
                            seen.add(y)
                            dist[(s, y)] = d
                            nxt.append(y)
                frontier = nxt
        return dist

    def connected(self):
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self.vertices)


def constrained_hamiltonian_order(graph: SmallGraph, u, v):
    """Brute-force search for a Hamiltonian ordering from u to v such that
    consecutive vertices are at distance <= 3, the first and last jumps are
    <= 2 (when there is at least one jump), and no two consecutive jumps
    both exceed 2.  Returns one such ordering or None.

    Pruned depth-first search over orderings with incremental condition
    checks; independent of the package's recursive construction.
    """
    n = len(graph.vertices)
    if n == 1:
        return (u,) if u == v else None
    if u == v:
        return None
    dist = graph.distances()

    def jump(x, y):
        return dist.get((x, y))

    best = None

    def dfs(seq, used):
        nonlocal best
        if best is not None:
            return
        if len(seq) == n:
            if seq[-1] != v:
                return
            if jump(seq[-2], seq[-1]) is None or jump(seq[-2], seq[-1]) > 2:
                return
            best = tuple(seq)
            return
        last = seq[-1]
        prev_jump = jump(seq[-2], seq[-1]) if len(seq) >= 2 else None
        for x in graph.vertices:
            if x in used:
                continue
            # v must come last
            if x == v and len(seq) != n - 1:
                continue
            d = jump(last, x)
            if d is None or d > 3:
                continue
            if len(seq) == 1 and d > 2:  # first jump
                continue
            if prev_jump is not None and prev_jump > 2 and d > 2:
                continue
            if len(seq) == n - 1 and d > 2:  # last jump
                continue
            seq.append(x)
            used.add(x)
            dfs(seq, used)
            seq.pop()
            used.discard(x)
            if best is not None:
                return

    dfs([u], {u})
    return best


def check_constrained_order(graph: SmallGraph, seq, u, v) -> bool:
    """Independent validity check of an ordering against all conditions."""
    if set(seq) != set(graph.vertices) or len(seq) != len(graph.vertices):
        return False
    if seq[0] != u or seq[-1] != v:
        return False
    dist = graph.distances()
    jumps = []
    for k in range(len(seq) - 1):
        d = dist.get((seq[k], seq[k + 1]))
        if d is None or d > 3:
            return False
        jumps.append(d)
    if jumps:
        if jumps[0] > 2 or jumps[-1] > 2:
            return False
        for k in range(len(jumps) - 1):
            if jumps[k] > 2 and jumps[k + 1] > 2:
                return False
    return True


def all_labeled_trees(n: int):
    """All labeled trees on vertices 0..n-1 via Prüfer sequences."""
    if n == 1:
        yield SmallGraph([0], [])
        return
    if n == 2:
        yield SmallGraph([0, 1], [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        edges = []
        leaves = [i for i in range(n) if deg[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            deg[leaf] -= 1
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(leaves, x)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((u, w))
        yield SmallGraph(range(n), edges)


def random_connected_graph(rng: random.Random, n: int) -> SmallGraph:
    """Random connected graph: random spanning tree + random extra edges."""
    vertices = list(range(n))
    edges = []
    for k in range(1, n):
        edges.append((rng.randrange(k), k))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return SmallGraph(vertices, set((min(a, b), max(a, b)) for a, b in edges))


# ---------------------------------------------------------------------------
# window oracle for finite complement components on Z and Z^d grids
# ---------------------------------------------------------------------------


def grid_no_finite_component(deleted, dim: int) -> bool:
    """Ground-truth 'no finite component' verdict for Z^dim, the deleted
    points given as coordinate tuples (or as ints when dim = 1).

    Works on the bounding box of the deleted points grown by one layer.  A
    point outside the bounding box leaves along a coordinate ray that meets
    no deleted point, so it lies in an infinite component, and so does every
    free point that a walk inside the window links to the outer layer; a
    walk out of the window crosses that layer.
    """
    pts = {p if isinstance(p, tuple) else (p,) for p in deleted}
    if not pts:
        return True
    lo = [min(p[i] for p in pts) - 1 for i in range(dim)]
    hi = [max(p[i] for p in pts) + 1 for i in range(dim)]
    free = set(product(*(range(a, b + 1) for a, b in zip(lo, hi)))) - pts
    stack = [p for p in free if any(c in (a, b) for c, a, b in zip(p, lo, hi))]
    free.difference_update(stack)
    while stack:
        p = stack.pop()
        for i in range(dim):
            for s in (-1, 1):
                q = p[:i] + (p[i] + s,) + p[i + 1 :]
                if q in free:
                    free.discard(q)
                    stack.append(q)
    return not free


def z2_ball_count(r: int) -> int:
    """|{(x, y) : |x| + |y| <= r}| computed directly from coordinates."""
    return sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1) if abs(x) + abs(y) <= r)


# ---------------------------------------------------------------------------
# the comb: a two-ended graph that is not a Cayley graph
# ---------------------------------------------------------------------------


class Comb:
    """ℤ with a whisker of ``length`` vertices hanging from each integer.

    The point (x, 0) is on the spine and (x, k), 1 ≤ k ≤ ``length``, on x's
    whisker.  Vertices are numbered lazily in breadth-first order from
    (0, 0), each point's neighbours in sorted order.  Removing the spine
    vertex 0 and its whisker, :attr:`separator`, leaves the two infinite
    sides.
    """

    def __init__(self, length: int):
        self.length = length
        self.points = [(0, 0)]
        self.index = {(0, 0): 0}
        self.done = 0  # points[:done] have their neighbours numbered
        self.separator = frozenset(self._number((0, k)) for k in range(length + 1))

    def _point_neighbours(self, p):
        x, k = p
        out = [(x, k - 1)] if k else [(x - 1, 0), (x + 1, 0)]
        if k < self.length:
            out.append((x, k + 1))
        return sorted(out)

    def _number(self, p) -> int:
        while p not in self.index:
            self.neighbors(self.done)
        return self.index[p]

    def neighbors(self, v: int) -> tuple[int, ...]:
        while self.done <= v:
            for q in self._point_neighbours(self.points[self.done]):
                if q not in self.index:
                    self.index[q] = len(self.points)
                    self.points.append(q)
            self.done += 1
        return tuple(sorted(self.index[q] for q in self._point_neighbours(self.points[v])))

    def distance(self, u: int, v: int) -> int:
        (x, k), (y, j) = self.points[u], self.points[v]
        return abs(k - j) if x == y else k + abs(x - y) + j

    def has_finite_component(self, vertices) -> bool:
        """Whether the complement of a finite vertex set has a finite
        component: a free point of the box around it that no free walk
        links to a spine point outside the box."""
        deleted = {self.points[v] for v in vertices}
        lo = min(x for x, _ in deleted) - 1
        hi = max(x for x, _ in deleted) + 1
        free = {(x, k) for x in range(lo, hi + 1) for k in range(self.length + 1)} - deleted
        stack = [(lo, 0), (hi, 0)]
        free -= set(stack)
        while stack:
            for q in self._point_neighbours(stack.pop()):
                if q in free:
                    free.discard(q)
                    stack.append(q)
        return bool(free)


# ---------------------------------------------------------------------------
# orbit keys by pairwise membership (subgroup-mode engines)
# ---------------------------------------------------------------------------


def _orbit_exponent(engine, rep: int, g: int) -> int:
    """The n with rep * n = g, found by trying n = 0, ±1, ±2, ... up to
    len(word(rep)) + len(word(g)), which bounds |n| because cⁿ is no
    shorter than |n| in the shipped instances."""
    bound = len(engine.numbering.to_word(rep)) + len(engine.numbering.to_word(g))
    for n in range(bound + 1):
        for m in (n, -n):
            if engine.act(rep, m) == g:
                return m
    raise AssertionError(f"{rep} and {g} share an orbit but no |n| <= {bound} joins them")


def pairwise_orbit_keys(engine, region) -> dict:
    """Reference orbit keys g -> (rep, n) with g = rep * n, from pairwise
    orbit membership alone: rep is the first u in 0, 1, ..., g with
    ``same_orbit(u, g)`` (every earlier representative found is tried
    first; each is least in its own orbit), so rep is least in g's orbit
    by construction, and n comes from scanning ``act(rep, ±n)``."""
    keys = {}
    reps: list[int] = []
    for g in sorted(set(region)):
        rep = next((r for r in reps if engine.same_orbit(r, g)), None)
        if rep is None:
            rep = next(u for u in range(g + 1) if engine.same_orbit(u, g))
            reps.append(rep)
        keys[g] = (rep, _orbit_exponent(engine, rep, g))
    return keys


# ---------------------------------------------------------------------------
# arrow walks and arrow patches by word round trips (reference for the
# labelled neighbour rows)
# ---------------------------------------------------------------------------


def round_trip_step(graph, patch, v: int, sign: int) -> int:
    """One arrow from v: the index of word(v) followed by the whole offset."""
    value = patch.values[v]
    arrow = value[1] if isinstance(value, tuple) else value
    num = graph.numbering
    return num.to_index(num.to_word(v) + (arrow.r if sign > 0 else arrow.l))


def round_trip_star_walk(graph, patch, g: int, m: int):
    """``g * m`` along the patch's arrows, or None once an arrow is read
    outside the patch."""
    cur = g
    for _ in range(abs(m)):
        if cur not in patch.values:
            return None
        cur = round_trip_step(graph, patch, cur, 1 if m > 0 else -1)
    return cur


def round_trip_arrows(engine, region) -> dict:
    """g -> (l, r), the canonical words of word(g)⁻¹·word(g * ∓1), one
    vertex at a time."""
    num = engine.numbering
    arrows = {}
    for g in sorted(set(region)):
        inv_g = tuple(-x for x in reversed(num.to_word(g)))
        arrows[g] = tuple(
            num.to_word(num.to_index(inv_g + num.to_word(engine.act(g, n)))) for n in (-1, 1)
        )
    return arrows


# ---------------------------------------------------------------------------
# SL(2, Z) = C4 *_{C2} C6 on 2x2 integer matrices
# ---------------------------------------------------------------------------

SL2Z_A = ((0, -1), (1, 0))  # order 4
SL2Z_B = ((0, -1), (1, 1))  # order 6; a² = b³ = -1 spans the edge group C2
_SL2Z_ONE = ((1, 0), (0, 1))


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _mat_inv(x):
    (p, q), (r, s) = x
    return ((s, -q), (-r, p))


def sl2z_matrix(word):
    """The matrix a word over a = letter 1, b = letter 2 spells."""
    m = _SL2Z_ONE
    for lt in word:
        g = SL2Z_A if abs(lt) == 1 else SL2Z_B
        m = _mat_mul(m, g if lt > 0 else _mat_inv(g))
    return m


def sl2z_instance():
    """SL(2, Z) as the amalgam C4 *_{C2} C6 of <a> and <b> over <a²> = <b³>,
    with designated generator c = ab.  Its edge group is nontrivial, unlike
    the shipped instances'.  The word problem multiplies matrices."""
    from tlaction import AmalgamData, GroupOracle, ZSubgroupInstance, cyclic_group

    ext = GroupOracle(
        name="SL2Z",
        generator_names=("a", "b"),
        wp=lambda w: sl2z_matrix(w) == _SL2Z_ONE,
        declared_ends="many",
        normal_key=sl2z_matrix,
    )
    data = AmalgamData(
        left=cyclic_group(4, "a"),
        right=cyclic_group(6, "b"),
        subgroup_a=((), (1, 1)),
        subgroup_b=((), (1, 1, 1)),
        iso=(((), ()), ((1, 1), (1, 1, 1))),
        extension=ext,
        left_letter_map={1: 1},
        right_letter_map={1: 2},
    )
    return ZSubgroupInstance(data=data, designated_u=(1,), designated_v=(2,))


def sl2z_orbit_exponent(u_word, v_word):
    """The n with u·cⁿ = v for c = ab, or None when v is not in u<c>.
    c = -[[1, 1], [0, 1]], so cⁿ = (-1)ⁿ [[1, n], [0, 1]]."""
    (p, q), (r, s) = _mat_mul(_mat_inv(sl2z_matrix(u_word)), sl2z_matrix(v_word))
    if r != 0 or p != s or p not in (1, -1):
        return None
    n = p * q
    return n if (-1) ** (n % 2) == p else None
