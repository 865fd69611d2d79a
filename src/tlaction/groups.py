"""Finitely generated groups presented through word-problem oracles.

A group is handed to the rest of the package as a :class:`GroupOracle`:
a finite generating set plus a total decision procedure ``wp`` for the
word problem ("does this word spell the identity?").  On top of any such
oracle we build the canonical *shortlex numbering*: elements are named by
natural numbers, the n-th name belonging to the n-th canonical word in
the shortlex enumeration of least representatives.  All graph vertices in
this package are numbering indices.

Words are tuples of signed, 1-based generator letters: letter ``+(i+1)``
is generator ``i`` and ``-(i+1)`` its inverse.  The shortlex order uses
the alphabet order ``s1 < s1^-1 < s2 < s2^-1 < ...``.

The built-in keys: Z^d counts coordinates and BS(1,2) tracks exponents,
both one letter at a time.  FreeF2, Z2starZ3, Z2HNN and the cyclic
groups are free products of cyclic groups, and one reduction,
:func:`_free_product_key`, gives each element's shortlex-least word; that
word is their key and, for the three many-ended ones, the input of a
closed-form numbering (:class:`_PairLanguageIndex`).  Z keeps a closed
form of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice
from typing import Callable, Hashable, Iterable

from .errors import ConfigError, Fuel

Word = tuple[int, ...]

EPSILON: Word = ()


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def letter(generator_index: int, sign: int = 1) -> int:
    """The word letter for generator ``generator_index`` (0-based) or its inverse."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    return sign * (generator_index + 1)


def inverse_word(word: Word) -> Word:
    return tuple(-lt for lt in reversed(word))


def concat_words(*words: Word) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def power_word(word: Word, n: int) -> Word:
    """The word ``word^n`` (with ``word^-1`` spelled by :func:`inverse_word`)."""
    if n >= 0:
        return word * n
    return inverse_word(word) * (-n)


def word_to_str(word: Word, generator_names: Iterable[str]) -> str:
    """Render a word as ``a*b^-1*a``; the empty word renders as ``e``."""
    names = tuple(generator_names)
    if not word:
        return "e"
    parts = []
    for lt in word:
        name = names[abs(lt) - 1]
        parts.append(name if lt > 0 else f"{name}^-1")
    return "*".join(parts)


def word_from_str(text: str, generator_names: Iterable[str]) -> Word:
    """Parse ``a*b^-1`` (or whitespace-separated) back into a word."""
    names = list(generator_names)
    text = text.strip()
    if text in ("", "e", "1"):
        return EPSILON
    tokens = [t for chunk in text.split("*") for t in chunk.split()]
    out = []
    for tok in tokens:
        sign = 1
        name = tok
        if tok.endswith("^-1"):
            sign = -1
            name = tok[: -len("^-1")]
        elif tok.endswith("'"):
            sign = -1
            name = tok[:-1]
        try:
            idx = names.index(name)
        except ValueError as exc:
            raise ConfigError(f"unknown generator {name!r} in word {text!r}") from exc
        out.append(letter(idx, sign))
    return tuple(out)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndsCertificate:
    """Finite witness for a declared two-ended Cayley graph.

    ``separator`` is a finite set of elements (as canonical words) whose
    removal leaves exactly two infinite components; ``side_a``/``side_b``
    name elements known to lie in the two distinct infinite components.
    """

    separator: tuple[Word, ...]
    side_a: tuple[Word, ...]
    side_b: tuple[Word, ...]


@dataclass(frozen=True)
class GroupOracle:
    """A finitely generated group given by generators and a word-problem oracle.

    ``wp(word)`` decides whether a word represents the identity; it is the
    semantic authority.  ``normal_key``, when present, maps a word to a
    hashable canonical form of the element it spells (used to make element
    deduplication fast; ``wp`` remains the contract).  ``key_step``, when
    present, maps the key of a word and a letter to the key of the word
    followed by that letter; construction checks it against ``normal_key``
    on every word of length at most 2.  Instances are immutable and safe
    to share between threads.
    """

    name: str
    generator_names: tuple[str, ...]
    wp: Callable[[Word], bool]
    declared_ends: int | str  # 1, 2, or "many"
    ends_certificate: EndsCertificate | None = None
    normal_key: Callable[[Word], Hashable] | None = None
    # Optional closed-form evaluation of the canonical shortlex numbering:
    # fast_index(word) is the index of the element spelled by word, and
    # fast_word(n) the n-th canonical word.  Both must agree with the lazy
    # enumeration; they let the numbering answer far beyond the enumerated
    # frontier (exponential-growth groups would otherwise need enumeration
    # of the whole ball).  Z has its own; FreeF2, Z2starZ3 and Z2HNN share
    # one pair language.
    fast_index: Callable[[Word], int] | None = None
    fast_word: Callable[[int], Word] | None = None
    key_step: Callable[[Hashable, int], Hashable] | None = None

    def __post_init__(self) -> None:
        step, key = self.key_step, self.normal_key
        if step is None:
            return
        if key is None:
            raise ConfigError(f"group {self.name!r} has a key_step but no normal_key")
        letters = self.letters
        for word in (EPSILON, *((lt,) for lt in letters)):
            start = key(word)
            for lt in letters:
                if step(start, lt) != key(word + (lt,)):
                    raise ConfigError(
                        f"group {self.name!r}: key_step disagrees with normal_key "
                        f"on the word {word + (lt,)!r}"
                    )

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    @property
    def letters(self) -> tuple[int, ...]:
        """All 2g letters in alphabet order."""
        out = []
        for i in range(self.generator_count):
            out.append(letter(i, 1))
            out.append(letter(i, -1))
        return tuple(out)

    def equal(self, u: Word, v: Word) -> bool:
        """Whether two words spell the same element."""
        if self.normal_key is not None:
            return self.normal_key(u) == self.normal_key(v)
        return self.wp(concat_words(u, inverse_word(v)))


# ---------------------------------------------------------------------------
# built-in word-problem strategies
# ---------------------------------------------------------------------------


def _not_a_letter(lt: int) -> ConfigError:
    return ConfigError(f"letter {lt} is not in the group's alphabet")


def _zd_key(d: int) -> Callable[[Word], Hashable]:
    # counts letters in place: the fold of _zd_step, without a tuple per
    # letter; slot 0 counts the letter 0, which no group has
    def key(word: Word) -> tuple[int, ...]:
        coords = [0] * (d + 1)
        try:
            for lt in word:
                coords[abs(lt)] += 1 if lt > 0 else -1
        except IndexError:
            raise _not_a_letter(lt) from None
        if coords[0]:
            raise _not_a_letter(0)
        return tuple(coords[1:])

    return key


def _zd_step(key: tuple[int, ...], lt: int) -> tuple[int, ...]:
    """Coordinates in Z^d step by +-e_i for the letter of generator i."""
    coords = list(key)
    coords[abs(lt) - 1] += 1 if lt > 0 else -1
    return tuple(coords)


def _free_product_key(orders: tuple[int, ...]) -> Callable[[Word], Word]:
    """The shortlex-least word of an element of a free product of cyclic
    groups, generator i of order ``orders[i]`` (0 for infinite order).

    By the normal form theorem for free products (Lyndon and Schupp, Ch.
    IV.1) the least word is the element's syllables, each spelled by its
    least block: g^k with 0 < k <= n/2 as k letters g, and k > n/2 as
    n - k letters g^-1 (g^k for every k in an infinite factor).  A letter
    that does not cancel the top of the stack is pushed when its generator
    has infinite order; otherwise it pops its generator's trailing block
    (at most n/2 letters) and pushes the block of the summed exponent.
    """
    # the order of generator |lt| - 1, read at slot |lt|; slot 0 is the
    # letter 0, which no group has (a dict keyed by letters would be
    # slower: hash(-1) == hash(-2))
    order = (None, *orders)

    def key(word: Word) -> Word:
        out: list[int] = []
        for lt in word:
            if out and out[-1] == -lt:
                out.pop()
                continue
            g = abs(lt)
            try:
                n = order[g]
            except IndexError:
                raise _not_a_letter(lt) from None
            if n == 0:
                out.append(lt)
            elif n is None:
                raise _not_a_letter(lt)
            else:
                # a block has one sign and -lt cancelled above, so lt's
                # generator ends the stack only in a run of lt itself
                run = 1
                while out and out[-1] == lt:
                    out.pop()
                    run += 1
                e = (run if lt > 0 else -run) % n
                out.extend((g,) * e if 2 * e <= n else (-g,) * (n - e))
        return tuple(out)

    return key


def _bs12_step(key: tuple[int, int, int], lt: int) -> tuple[int, int, int]:
    """Exponent tracking in BS(1,2) = <a, t | t a t^-1 = a^2>, one letter.

    Elements are pairs (x, n) with x a dyadic rational and n an integer:
    a = (1, 0), t = (0, 1) and (x, n)(y, m) = (x + 2^n y, n + m).  The key
    is (p, s, n) with x = p / 2^s in lowest terms (p odd or s = 0), so two
    words get equal keys exactly when they spell the same element.
    """
    p, s, n = key
    if lt != 1 and lt != -1:
        if lt != 2 and lt != -2:
            raise _not_a_letter(lt)
        return (p, s, n + (1 if lt > 0 else -1))
    # x + lt*2^n = (p + lt*2^(n+s)) / 2^s
    shift = n + s
    if shift > 0:
        return (p + (lt << shift), s, n)  # adds an even number: p stays odd if s > 0
    if shift < 0:
        return ((p << -shift) + lt, -n, n)  # rewritten over 2^-n, now odd
    p += lt
    if p == 0:
        return (0, 0, n)
    if s:
        tz = min((p & -p).bit_length() - 1, s)
        return (p >> tz, s - tz, n)
    return (p, s, n)


def _bs12_key(word: Word) -> tuple[int, int, int]:
    return reduce(_bs12_step, word, (0, 0, 0))


class _PairLanguageIndex:
    """Closed-form shortlex numbering of a free product of C2, C3 and Z.

    Its least words (see :func:`_free_product_key`) form a language defined
    by allowed adjacent letter pairs: every letter but g^-1 of an order-2
    generator g occurs, and a letter may follow any letter of another
    generator, or itself when its generator has infinite order.  The
    numbering index is a mixed-radix numeral computed by counting
    admissible completions, and the inverse decodes a numeral back into a
    word.  Both agree with the lazy level-by-level enumeration (which is
    how they are tested).
    """

    def __init__(self, orders: tuple[int, ...]):
        if not set(orders) <= {0, 2, 3}:
            raise ConfigError(f"pair languages need orders 0, 2 or 3, got {orders}")
        self.letters = letters = tuple(
            letter(i, sign) for i, n in enumerate(orders) for sign in (1, -1) if n != 2 or sign > 0
        )
        self.allowed_after = {
            x: tuple(y for y in letters if abs(y) != abs(x) or (y == x and not orders[abs(x) - 1]))
            for x in letters
        }
        self.canonical_of = _free_product_key(orders)
        # _completions[j][l] = number of admissible j-letter continuations after l
        self._completions: list[dict[int, int]] = [{l: 1 for l in letters}]
        self._level_start = [0, 1]  # index of the first word of each length

    def _completion(self, j: int) -> dict[int, int]:
        while len(self._completions) <= j:
            prev = self._completions[-1]
            self._completions.append(
                {l: sum(prev[x] for x in self.allowed_after[l]) for l in self.letters}
            )
        return self._completions[j]

    def _start_of_length(self, k: int) -> int:
        while len(self._level_start) <= k:
            j = len(self._level_start) - 1  # adding the count of length-j words
            level = sum(self._completion(j - 1)[l] for l in self.letters)
            self._level_start.append(self._level_start[-1] + level)
        return self._level_start[k]

    def index_of(self, word: Word) -> int:
        w = self.canonical_of(word)
        k = len(w)
        if k == 0:
            return 0
        idx = self._start_of_length(k)
        choices = self.letters
        for i, lt in enumerate(w):
            remaining = self._completion(k - 1 - i)
            for x in choices:
                if x == lt:
                    break
                idx += remaining[x]
            choices = self.allowed_after[lt]
        return idx

    def word_of(self, n: int) -> Word:
        if n < 0:
            raise ValueError(f"index must be a natural number, got {n}")
        if n == 0:
            return EPSILON
        k = 1
        while self._start_of_length(k + 1) <= n:
            k += 1
        rest = n - self._start_of_length(k)
        out: list[int] = []
        choices = self.letters
        for i in range(k):
            remaining = self._completion(k - 1 - i)
            for x in choices:
                if rest < remaining[x]:
                    out.append(x)
                    choices = self.allowed_after[x]
                    break
                rest -= remaining[x]
            else:
                raise ValueError(f"index {n} exceeds the language")
        return tuple(out)


def _z_index(word: Word) -> int:
    """Shortlex index in Z: a^k is 2k - 1 and a^-k is 2k."""
    up, down = word.count(1), word.count(-1)
    if up + down != len(word):
        raise _not_a_letter(next(lt for lt in word if lt != 1 and lt != -1))
    x = up - down
    return 2 * x - 1 if x > 0 else -2 * x


def _z_word(n: int) -> Word:
    if n < 0:
        raise ValueError(f"index must be a natural number, got {n}")
    return (1,) * ((n + 1) // 2) if n % 2 else (-1,) * (n // 2)


def _wp_from_key(key: Callable[[Word], Hashable]) -> Callable[[Word], bool]:
    identity = key(EPSILON)

    def wp(word: Word) -> bool:
        return key(word) == identity

    return wp


_GENERIC_LETTERS = ("a", "b", "c", "d", "f", "g", "h")


def _zd_oracle(d: int, names: tuple[str, ...] | None = None) -> GroupOracle:
    if d < 1:
        raise ConfigError(f"Zd needs d >= 1, got {d}")
    if names is None:
        if d <= len(_GENERIC_LETTERS):
            names = _GENERIC_LETTERS[:d]
        else:
            names = tuple(f"x{i}" for i in range(d))
    elif len(names) != d:
        raise ConfigError(
            f"Zd({d}) needs {d} generator names, got {len(names)}"
        )
    key = _zd_key(d)
    cert = None
    ends: int | str = 1
    if d == 1:
        ends = 2
        cert = EndsCertificate(
            separator=(EPSILON,), side_a=((1,),), side_b=((-1,),)
        )
    return GroupOracle(
        name="Z" if d == 1 else f"Z{d}",
        generator_names=tuple(names),
        wp=_wp_from_key(key),
        declared_ends=ends,
        ends_certificate=cert,
        normal_key=key,
        fast_index=_z_index if d == 1 else None,
        fast_word=_z_word if d == 1 else None,
        key_step=_zd_step,
    )


# the many-ended built-ins: free products of cyclic groups (order 0 is Z)
_FREE_PRODUCTS = {
    "FreeF2": (("a", "b"), (0, 0)),
    "Z2starZ3": (("a", "b"), (2, 3)),
    "Z2HNN": (("a", "t"), (2, 0)),
}


def _free_product_oracle(
    name: str, generator_names: tuple[str, ...], orders: tuple[int, ...]
) -> GroupOracle:
    lang = _PairLanguageIndex(orders)
    return GroupOracle(
        name=name,
        generator_names=generator_names,
        wp=_wp_from_key(lang.canonical_of),
        declared_ends="many",
        normal_key=lang.canonical_of,
        fast_index=lang.index_of,
        fast_word=lang.word_of,
    )


def _bs12_oracle() -> GroupOracle:
    return GroupOracle(
        name="BS12",
        generator_names=("a", "t"),
        wp=_wp_from_key(_bs12_key),
        declared_ends=1,
        normal_key=_bs12_key,
        key_step=_bs12_step,
    )


def builtin_group(name: str) -> GroupOracle:
    """Construct one of the built-in groups by name.

    Recognised names: ``Z``, ``Z2``, ``Z3`` ... (or ``Zd(d)``), ``FreeF2``,
    ``Z2starZ3``, ``Z2HNN`` (the free product Z2 * Z), ``BS12``.
    """
    text = name.strip()
    if text == "Z":
        return _zd_oracle(1)
    if text.startswith("Zd(") and text.endswith(")"):
        try:
            d = int(text[3:-1])
        except ValueError as exc:
            raise ConfigError(f"bad dimension in {name!r}") from exc
        return _zd_oracle(d)
    if text.startswith("Z") and text[1:].isdigit():
        return _zd_oracle(int(text[1:]))
    if text in _FREE_PRODUCTS:
        return _free_product_oracle(text, *_FREE_PRODUCTS[text])
    if text == "BS12":
        return _bs12_oracle()
    raise ConfigError(f"unknown group {name!r}")


_STRATEGIES: dict[str, Callable[..., GroupOracle]] = {
    "z": lambda **kw: _zd_oracle(1, kw.get("generators")),
    "zd": lambda **kw: _zd_oracle(kw.get("d", 2), kw.get("generators")),
    "free": lambda **kw: builtin_group("FreeF2"),
    "z2_star_z3": lambda **kw: builtin_group("Z2starZ3"),
    "z2_star_z": lambda **kw: builtin_group("Z2HNN"),
    "bs12": lambda **kw: _bs12_oracle(),
}


def _is_word_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(w, str) for w in value)


def group_from_config(config: dict | str) -> GroupOracle:
    """Load a group from a config mapping or a JSON file path.

    The config names a word-problem strategy (one of the fixed built-in
    strategies), generator names, a declared end count, and optionally a
    two-ended certificate whose entries are words over the generators::

        {"strategy": "zd", "d": 2, "generators": ["a", "b"],
         "declared_ends": 1}
    """
    if isinstance(config, str):
        with open(config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("group config must be a JSON object")
    strategy = config.get("strategy")
    if strategy not in _STRATEGIES:
        raise ConfigError(
            f"unknown wp strategy {strategy!r}; expected one of {sorted(_STRATEGIES)}"
        )
    kwargs = {}
    if "d" in config:
        if strategy != "zd":
            raise ConfigError(f"'d' applies only to the 'zd' strategy, not {strategy!r}")
        if type(config["d"]) is not int:
            raise ConfigError(f"'d' must be an integer, got {config['d']!r}")
        kwargs["d"] = config["d"]
    if "generators" in config:
        if not isinstance(config["generators"], list):
            raise ConfigError("'generators' must be a list of names")
        gens = tuple(str(g) for g in config["generators"])
        kwargs["generators"] = gens
    base = _STRATEGIES[strategy](**kwargs)
    names = kwargs.get("generators", base.generator_names)
    if len(names) != base.generator_count:
        raise ConfigError(
            f"strategy {strategy!r} has {base.generator_count} generators, "
            f"config names {len(names)}"
        )
    ends = config.get("declared_ends", base.declared_ends)
    if ends != "many" and (type(ends) is not int or ends not in (1, 2)):
        raise ConfigError(f"declared_ends must be 1, 2 or 'many', got {ends!r}")
    cert = base.ends_certificate
    if "certificate" in config:
        raw = config["certificate"]
        parts = ("separator", "side_a", "side_b")
        if not isinstance(raw, dict) or not all(_is_word_list(raw.get(k)) for k in parts):
            raise ConfigError(f"certificate must map {', '.join(parts)} to lists of words")
        cert = EndsCertificate(
            separator=tuple(word_from_str(w, names) for w in raw["separator"]),
            side_a=tuple(word_from_str(w, names) for w in raw["side_a"]),
            side_b=tuple(word_from_str(w, names) for w in raw["side_b"]),
        )
    if ends == 2 and cert is None:
        raise ConfigError("a group declared two-ended needs a certificate")
    return replace(
        base,
        name=str(config.get("name", base.name)),
        generator_names=tuple(names),
        declared_ends=ends,
        ends_certificate=cert,
    )


# ---------------------------------------------------------------------------
# the canonical shortlex numbering
# ---------------------------------------------------------------------------


class Numbering:
    """Bijective naming of group elements by natural numbers.

    Index ``n`` names the element whose shortlex-least representative is
    the n-th canonical word; ``to_word(0)`` is the empty word (identity).
    The enumeration is lazy: canonical words are produced level by level
    (level = word length), exploiting that shortlex-least representatives
    are closed under prefixes.

    With a ``normal_key`` on the oracle, deduplication is a hash lookup and
    each enumerated word's key is kept next to it; with a ``key_step`` as
    well, a candidate's key is its parent's key stepped by one letter, and
    its word is built only when the key is new.  Otherwise each candidate
    runs a bounded search over the already enumerated canonical words of
    compatible length using ``wp`` alone.

    With ``fuel``, each level ticks its candidate count before it is built,
    and on the ``wp``-only path every enumerated word a search compares
    against ticks one step; running out leaves only whole levels behind.
    """

    def __init__(self, oracle: GroupOracle, fuel: Fuel | None = None):
        self.oracle = oracle
        self.fuel = fuel
        self._letters = oracle.letters
        self._words: list[Word] = [EPSILON]
        self._level_start = [0, 1]  # _words[_level_start[L]: _level_start[L+1]] has length L
        if oracle.normal_key is not None:
            identity = oracle.normal_key(EPSILON)
            self._keys: list[Hashable] | None = [identity]  # the key of each of _words
            self._by_key: dict[Hashable, int] | None = {identity: 0}
        else:
            self._keys = self._by_key = None

    # -- enumeration machinery

    def _advance_level(self) -> None:
        """Generate all canonical words of the next length."""
        oracle, letters = self.oracle, self._letters
        lo, hi = self._level_start[-2], self._level_start[-1]
        if self.fuel is not None:
            self.fuel.tick((hi - lo) * len(letters))
        words, keys, by_key = self._words, self._keys, self._by_key
        step, normal_key = oracle.key_step, oracle.normal_key
        level: list[Word] = []
        for i in range(lo, hi):
            parent = words[i]
            for lt in letters:
                if by_key is None:
                    if not self._wp_seen(parent + (lt,), level):
                        level.append(parent + (lt,))
                    continue
                key = step(keys[i], lt) if step is not None else normal_key(parent + (lt,))
                if key not in by_key:
                    by_key[key] = hi + len(level)
                    keys.append(key)
                    level.append(parent + (lt,))
        words.extend(level)
        self._level_start.append(len(words))

    def _wp_seen(self, cand: Word, level: list[Word]) -> bool:
        """wp-only deduplication: is cand's element already enumerated?

        A candidate has length L = len(parent) + 1 and its element has
        geodesic length at least L - 2, so only canonical words of length
        L-2, L-1 and the current ``level`` can collide with it.
        """
        lo = self._level_start[max(0, len(cand) - 2)]
        return self._wp_find(self._words[lo:] + level, cand) is not None

    def _wp_find(self, words: Iterable[Word], word: Word) -> int | None:
        """Position of the first of ``words`` spelling ``word``'s element, by ``wp``."""
        wp = self.oracle.wp
        fuel = self.fuel
        inv = inverse_word(word)
        for i, prev in enumerate(words):
            if fuel is not None:
                fuel.tick()
            if wp(concat_words(prev, inv)):
                return i
        return None

    def _grown_to_index(self, n: int) -> None:
        while len(self._words) <= n:
            before = len(self._words)
            self._advance_level()
            if len(self._words) == before:
                raise ConfigError(
                    f"group has only {before} elements; index {n} does not exist"
                )

    def _grown_to_length(self, length: int) -> None:
        while len(self._level_start) - 2 < length:
            self._advance_level()

    # -- public interface

    def to_word(self, n: int) -> Word:
        """The n-th canonical word (shortlex enumeration of least reps)."""
        if n < 0:
            raise ValueError(f"index must be a natural number, got {n}")
        if self.oracle.fast_word is not None and n >= len(self._words):
            return self.oracle.fast_word(n)
        self._grown_to_index(n)
        return self._words[n]

    def to_index(self, word: Word) -> int:
        """Index of the element spelled by ``word``.

        Total for valid oracles: the element's canonical representative is
        no longer than ``word``, so the enumeration is grown to that level
        and then searched.  A normal key reads the word first, so a word it
        refuses leaves the enumeration as it was.
        """
        if self.oracle.fast_index is not None:
            return self.oracle.fast_index(word)
        if self._by_key is not None:
            key = self.oracle.normal_key(word)  # type: ignore[misc]
            self._grown_to_length(len(word))
            idx = self._by_key.get(key)
        else:
            self._grown_to_length(len(word))
            idx = self._wp_find(islice(self._words, self._level_start[len(word) + 1]), word)
        if idx is None:
            raise ConfigError(
                "word problem oracle is inconsistent: element missing from its "
                "own shortlex ball"
            )
        return idx

    def neighbour_row(self, n: int) -> tuple[int, ...]:
        """The indices of ``to_word(n) * s`` for every letter s, in
        ``oracle.letters`` order.

        With a ``key_step`` and no ``fast_index`` this steps n's key once
        per letter and builds no word; the numbering grows exactly as
        ``to_word(n)`` and then ``to_index`` on words one letter longer
        would grow it.
        """
        if n < 0:
            raise ValueError(f"index must be a natural number, got {n}")
        oracle = self.oracle
        if oracle.key_step is None or oracle.fast_index is not None:
            word = self.to_word(n)
            return tuple([self.to_index(word + (lt,)) for lt in self._letters])
        self._grown_to_index(n)
        self._grown_to_length(len(self._words[n]) + 1)
        key, step, by_key = self._keys[n], oracle.key_step, self._by_key
        row = tuple([by_key.get(step(key, lt)) for lt in self._letters])
        if None in row:
            raise ConfigError(
                "word problem oracle is inconsistent: element missing "
                "from its own shortlex ball"
            )
        return row

    def known_count(self) -> int:
        """How many canonical words have been enumerated so far."""
        return len(self._words)


def canonical_numbering(oracle: GroupOracle, fuel: Fuel | None = None) -> Numbering:
    """The canonical shortlex numbering of ``oracle``'s elements.

    A word is canonical iff it is the shortlex-least word in its
    wp-equivalence class; ``to_word(n)`` is the n-th canonical word.
    ``fuel``, when given, meters the enumeration (see :class:`Numbering`).
    """
    return Numbering(oracle, fuel)
