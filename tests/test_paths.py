"""3-paths and the constrained Hamiltonian construction on finite patches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlaction import (
    FinitePatch,
    InvariantError,
    ThreePath,
    distance,
    invert_path,
    karaganis_constrained,
    karaganis_path,
    shift_path,
)
from tlaction.paths import check_jumps

from oracles import (
    SmallGraph,
    all_labeled_trees,
    check_constrained_order,
    constrained_hamiltonian_order,
    random_connected_graph,
)


def patch_of(graph: SmallGraph) -> FinitePatch:
    return FinitePatch(tuple(graph.vertices), tuple(sorted(graph.edges)))


def p4() -> FinitePatch:
    return FinitePatch((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))


def jumps(patch: FinitePatch, path: ThreePath) -> tuple[int | None, ...]:
    vs = path.vertices
    return tuple(distance(patch, a, b) for a, b in zip(vs, vs[1:]))


# -- construction: frozen examples --------------------------------------------


def test_two_vertex_edge():
    patch = FinitePatch((0, 1), ((0, 1),))
    path = karaganis_constrained(patch, 0, 1)
    assert tuple(path.vertices) == (0, 1)


def test_p4_inner_pair():
    # brute-force search over all orderings gives (1, 0, 3, 2): out to one
    # end, a 3-jump across, back in from the other end
    path = karaganis_constrained(p4(), 1, 2)
    assert tuple(path.vertices) == (1, 0, 3, 2)
    assert jumps(p4(), path) == (1, 3, 1)


def test_triangle():
    patch = FinitePatch((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    path = karaganis_constrained(patch, 0, 1)
    assert tuple(path.vertices) == (0, 2, 1)


def test_rejects_bad_inputs():
    patch = FinitePatch((0, 1), ((0, 1),))
    with pytest.raises(InvariantError):
        karaganis_constrained(patch, 0, 0)
    with pytest.raises(InvariantError):
        karaganis_constrained(FinitePatch((), ()), 0, 1)
    disconnected = FinitePatch((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(InvariantError):
        karaganis_constrained(disconnected, 0, 3)


# -- construction: oracle cross-check corpus -----------------------------------


def _check_against_oracle(graph: SmallGraph):
    patch = patch_of(graph)
    for u in graph.vertices:
        for v in graph.vertices:
            if u == v:
                continue
            seq = tuple(karaganis_path(patch, u, v))
            assert check_constrained_order(graph, seq, u, v), (graph.edges, u, v, seq)
            # the brute-force search must agree the instance is feasible
            assert constrained_hamiltonian_order(graph, u, v) is not None


def test_all_trees_up_to_5():
    for n in range(2, 6):
        for tree in all_labeled_trees(n):
            _check_against_oracle(tree)


def test_random_connected_graphs(rng):
    for _ in range(30):
        n = rng.randrange(2, 8)
        _check_against_oracle(random_connected_graph(rng, n))


def test_star_graph_center_to_leaf():
    star = SmallGraph(range(6), [(0, k) for k in range(1, 6)])
    _check_against_oracle(star)


# -- path algebra --------------------------------------------------------------


def test_singleton_and_shift():
    p = ThreePath(0, (7,))
    assert p.start == 0 and tuple(p.vertices) == (7,)
    q = shift_path(p, 5)
    assert q.start == 5 and tuple(q.vertices) == (7,)


def test_invert_involution_and_domain():
    p = ThreePath(0, (10, 11, 12))
    q = invert_path(p)
    assert q.start == -2
    assert tuple(q.vertices) == (12, 11, 10)
    assert invert_path(q) == p


def test_invert_two_vertex_domain():
    p = ThreePath(0, (3, 4))
    q = invert_path(p)
    assert (q.start, tuple(q.vertices)) == (-1, (4, 3))


def test_concat_reindexing():
    # a grown path is a concatenation: the appended path keeps the order of
    # its vertices, not its indices
    f = ThreePath(0, (0, 1))
    g = ThreePath(5, (3, 2))
    h = ThreePath(f.start, f.vertices + g.vertices)
    assert (h.lo, h.hi) == (0, 3)
    assert tuple(h.vertices) == (0, 1, 3, 2)
    check_jumps(p4(), h)


def test_concat_singletons():
    patch = FinitePatch((0, 1), ((0, 1),))
    h = ThreePath(0, (0,) + (1,))
    assert tuple(h.vertices) == (0, 1)
    check_jumps(patch, h, max_jump=1)


def test_concat_rejects_overlap_and_long_jump():
    # growing a path is concatenation: overlap breaks injectivity, and a
    # junction jump over 3 fails the jump check
    with pytest.raises(InvariantError):
        ThreePath(0, (0, 1) + (1, 2))
    wide = FinitePatch(tuple(range(6)), tuple((k, k + 1) for k in range(5)))
    with pytest.raises(InvariantError):
        check_jumps(wide, ThreePath(0, (0,) + (5,)))


def test_three_path_rejects_repeats():
    with pytest.raises(InvariantError):
        ThreePath(0, (1, 2, 1))


def test_check_jumps():
    path = ThreePath(0, (1, 0, 3, 2))
    check_jumps(p4(), path)
    with pytest.raises(InvariantError):
        check_jumps(p4(), path, max_jump=2)


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_karaganis_valid_on_random_trees(seed, n):
    import random as _random

    rng = _random.Random(seed)
    tree = random_connected_graph(rng, n)
    u = rng.choice(tree.vertices)
    v = rng.choice([x for x in tree.vertices if x != u])
    seq = tuple(karaganis_path(patch_of(tree), u, v))
    assert check_constrained_order(tree, seq, u, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_concat_preserves_validity(seed):
    import random as _random

    rng = _random.Random(seed)
    chain = FinitePatch(tuple(range(8)), tuple((k, k + 1) for k in range(7)))
    cut = rng.randrange(1, 6)
    f = ThreePath(0, tuple(range(cut)))
    offset = rng.randrange(cut, min(cut + 3, 8))
    g = ThreePath(9, tuple(range(offset, 8)))
    if offset == cut or offset - (cut - 1) <= 3:
        h = ThreePath(f.start, f.vertices + g.vertices)
        assert h.domain == range(0, len(f) + len(g))
        check_jumps(chain, h)
