"""The benchmark's own group arithmetic, written apart from ``tlaction``.

Words use the package's convention: letter ``+(i+1)`` is generator ``i``
and ``-(i+1)`` its inverse; shortlex order ranks letters
``s1 < s1^-1 < s2 < s2^-1 < ...``.  Nothing here imports ``tlaction``:
the output checks compare the package against these functions.
"""

from __future__ import annotations

from typing import Callable, Hashable

Word = tuple[int, ...]


def inverse(word: Word) -> Word:
    return tuple(-lt for lt in reversed(word))


def alphabet(generators: int) -> tuple[int, ...]:
    """All letters in shortlex alphabet order."""
    return tuple(s * (i + 1) for i in range(generators) for s in (1, -1))


# ---------------------------------------------------------------------------
# one-ended and two-ended groups: elements as integer tuples
# ---------------------------------------------------------------------------


def zd_element(word: Word, d: int) -> tuple[int, ...]:
    """Exponent-sum vector of a word in Z^d."""
    vec = [0] * d
    for lt in word:
        vec[abs(lt) - 1] += 1 if lt > 0 else -1
    return tuple(vec)


def zd_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Word distance between two elements of Z^d (the L1 norm of a⁻¹b)."""
    return sum(abs(x - y) for x, y in zip(a, b))


# BS(1,2) = <a, t | t a t^-1 = a^2>: the element (x, n) with x a dyadic
# rational acts as y -> 2^n y + x.  x is held as the integer x * 2^SCALE, so
# every element spelled by a word with t-exponents inside [-SCALE, SCALE]
# is an exact pair of integers.
BS_SCALE = 64


def _bs_shift(x: int, n: int) -> int:
    """x * 2^n for an integer-scaled dyadic, refusing an inexact result."""
    if n >= 0:
        return x << n
    if x % (1 << -n):
        raise ArithmeticError("dyadic denominator exceeds the fixed scale")
    return x >> -n


def bs_mul(g: tuple[int, int], h: tuple[int, int]) -> tuple[int, int]:
    return (g[0] + _bs_shift(h[0], g[1]), g[1] + h[1])


def bs_inv(g: tuple[int, int]) -> tuple[int, int]:
    return (-_bs_shift(g[0], -g[1]), -g[1])


_BS_LETTER = {1: (1 << BS_SCALE, 0), -1: (-(1 << BS_SCALE), 0), 2: (0, 1), -2: (0, -1)}


def bs_element(word: Word) -> tuple[int, int]:
    g = (0, 0)
    for lt in word:
        g = bs_mul(g, _BS_LETTER[lt])
    return g


def bs_ball(radius: int) -> set[tuple[int, int]]:
    """Every element of BS(1,2) spelled by a word of length <= radius."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for gen in _BS_LETTER.values():
                h = bs_mul(g, gen)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# shortlex numbering from an element map
# ---------------------------------------------------------------------------


def shortlex_words(
    element: Callable[[Word], Hashable], generators: int, count: int
) -> list[Word]:
    """The first ``count`` shortlex-least representatives, in shortlex order.

    Level by level: each canonical word of length L, in order, is extended
    by every letter in alphabet order, and a candidate is kept when its
    element is new.  Least representatives are closed under prefixes, so
    this lists them in shortlex order.
    """
    letters = alphabet(generators)
    words: list[Word] = [()]
    seen = {element(())}
    level = [()]
    while len(words) < count and level:
        nxt = []
        for parent in level:
            for lt in letters:
                cand = parent + (lt,)
                key = element(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        words.extend(nxt)
        level = nxt
    return words[:count]


# ---------------------------------------------------------------------------
# many-ended groups: canonical (shortlex-least) words by rewriting
# ---------------------------------------------------------------------------


def free_canon(word: Word) -> Word:
    """Free reduction in F2 = <a, b>."""
    out: list[int] = []
    for lt in word:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def z2hnn_canon(word: Word) -> Word:
    """Least word in Z2 * Z = <a, t | a^2>: a^-1 is a, a a cancels, t free."""
    out: list[int] = []
    for lt in word:
        if abs(lt) == 1:
            if out and out[-1] == 1:
                out.pop()
            else:
                out.append(1)
        elif out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def z2z3_canon(word: Word) -> Word:
    """Least word in Z2 * Z3 = <a, b | a^2, b^3>: b b is b^-1, b^-1 b^-1 is b."""
    out: list[int] = []
    for lt in word:
        if abs(lt) == 1:
            if out and out[-1] == 1:
                out.pop()
            else:
                out.append(1)
        elif out and abs(out[-1]) == 2:
            top = out.pop()
            if top == lt:
                out.append(-lt)  # b b = b^-1 and b^-1 b^-1 = b
        else:
            out.append(lt)
    return tuple(out)


class ManyEnded:
    """A many-ended built-in group with its designated cyclic subgroup <c>."""

    def __init__(self, name: str, canon: Callable[[Word], Word], c: Word):
        self.name = name
        self.canon = canon
        self.c = c

    def next_letters(self, word: Word) -> tuple[int, ...]:
        """Letters that keep ``word`` canonical.  In these three groups a word
        is canonical exactly when each letter and each adjacent pair is."""
        tail = word[-1:]
        return tuple(x for x in alphabet(2) if self.canon(tail + (x,)) == tail + (x,))

    def power(self, k: int) -> Word:
        return self.canon(self.c * k if k >= 0 else inverse(self.c) * -k)

    def in_subgroup(self, word: Word) -> bool:
        """Whether ``word`` spells an element of <c>.  Every nonzero power
        of c has a canonical word at least |k| long, so |k| <= len(word)."""
        w = self.canon(word)
        return any(self.power(k) == w for k in range(-len(w), len(w) + 1))

    def ball_size(self, radius: int) -> int:
        """How many elements have a word of length <= radius."""
        seen = {()}
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for lt in alphabet(2):
                    x = self.canon(w + (lt,))
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return len(seen)


MANY_ENDED = {
    "FreeF2": ManyEnded("FreeF2", free_canon, (1,)),
    "Z2HNN": ManyEnded("Z2HNN", z2hnn_canon, (2,)),
    "Z2starZ3": ManyEnded("Z2starZ3", z2z3_canon, (1, 2)),
}


def common_prefix(u: Word, v: Word) -> int:
    k = 0
    while k < len(u) and k < len(v) and u[k] == v[k]:
        k += 1
    return k
