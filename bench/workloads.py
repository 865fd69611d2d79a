"""The four workloads: set-up from a seed, one round of timed ops, checks.

A workload's set-up (``__init__``) builds every input from the seed.  A
round runs the same fixed list of ops every time: each op is one call into
the public API of ``tlaction``, passed through ``timed``, which times it.
The outputs are checked after the round, outside the timed region, by
:mod:`checks` against the benchmark's own arithmetic in :mod:`arith`.
``timed`` returns None for an op that raised; the checks pass over it.
``run_round`` returns the fuel the round consumed and the numbering words
its engines hold at the end, for the per-layer counts.
"""

from __future__ import annotations

import random

import arith
import checks

FUEL = 10**12  # large enough that no op runs out; fuel is counted, not limited


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Grow:
    """Stage growth in transitive mode on Z (two-ended), Z2 and Z3 (one-ended)."""

    PLAN = (("Z", 400), ("Z2", 400), ("Z3", 300))

    def __init__(self, tl, seed: int):
        self.tl = tl
        self.plan = list(self.PLAN)
        _rng("grow", seed).shuffle(self.plan)  # the seed orders the groups
        self.engines = [tl.engine_for(name, tl.Fuel(FUEL)) for name, _ in self.plan]

    def run_round(self, timed) -> tuple[int, int]:
        fuel = words = 0
        for k, (name, last) in enumerate(self.plan):
            engine = self.engines[k] or self.tl.engine_for(name, self.tl.Fuel(FUEL))
            self.engines[k] = None
            stages = [timed(engine.build_stage, i) for i in range(last + 1)]
            fuel += engine.fuel.consumed
            words += engine.numbering.known_count()
            checks.check_stages(name, [None if f is None else (f.lo, f.vertices) for f in stages])
        return fuel, words


class Bs12(Grow):
    """Stage growth on BS(1,2): the shortlex numbering does most of the work.

    Stage 73 needs numbering levels 14 to 19 and over 50 s, so a round stops
    at stage 72.  The op list does not depend on the seed.
    """

    PLAN = (("BS12", 72),)


class Orbits:
    """Subgroup-mode ``same_orbit(u, v)`` on the three many-ended groups.

    A query is u = P·s and v = P·t, where P is the common prefix of the two
    canonical words, of length p from 0 to ``MAX_PREFIX``.  For members
    t is the canonical tail of s·c^k (so v = u·c^k); for non-members s⁻¹t
    lies outside <c> (so v = u·y·c^k with y = s⁻¹t·c^-k outside <c>).  The
    cost of a query depends on its tail shape (s, t) much more than on P, so
    each (group, p) holds as many members as non-members, at least
    ``PER_CELL`` of each and every shortest shape at least once, cycling
    through the shapes in a fixed order; the seed picks the letters of P
    and the order of the queries.
    """

    MAX_PREFIX = {"FreeF2": 5, "Z2HNN": 8, "Z2starZ3": 12}
    PER_CELL = 8
    EXPONENTS = (-2, -1, 1, 2)

    def __init__(self, tl, seed: int):
        rng = _rng("orbits", seed)
        self.engines = {g: tl.engine_for(g, tl.Fuel(FUEL)) for g in self.MAX_PREFIX}
        queries = []
        for group, top in self.MAX_PREFIX.items():
            G = arith.MANY_ENDED[group]
            for p in range(top + 1):
                shapes = {member: self._shapes(G, p, member) for member in (True, False)}
                count = max(self.PER_CELL, *map(len, shapes.values()))
                for member, cell in shapes.items():
                    for j in range(count):
                        u, v = self._pair(rng, G, p, *cell[j % len(cell)])
                        queries.append((group, u, v, member))
        rng.shuffle(queries)
        self.queries = []
        self.truth = []
        for group, u, v, member in queries:
            if checks.orbit_truth(group, u, v) is not member:
                raise checks.CheckFailed(f"{group}: constructed pair {u}, {v} has the wrong truth")
            num = self.engines[group].numbering
            iu, iv = num.to_index(u), num.to_index(v)
            if num.to_word(iu) != u or num.to_word(iv) != v:
                raise checks.CheckFailed(f"{group}: numbering does not name {u} or {v} canonically")
            self.queries.append((group, iu, iv))
            self.truth.append(member)

    @staticmethod
    def _random_canonical(rng, G, length: int) -> arith.Word:
        w: arith.Word = ()
        for _ in range(length):
            w += (rng.choice(G.next_letters(w)),)
        return w

    @staticmethod
    def _tail(G, P: arith.Word, s: arith.Word, t) -> arith.Word | None:
        """v's word for u = P·s, or None when u is not canonical."""
        u = P + s
        if G.canon(u) != u:
            return None
        v = G.canon(u + G.power(t)) if isinstance(t, int) else P + t
        return v if G.canon(v) == v else None

    def _shapes(self, G, p: int, member: bool) -> list[tuple]:
        """The shortest tail shapes (s, k) or (s, t) that give some prefix of
        length p a pair with common prefix exactly p, in a fixed order."""
        ends = [()] if p == 0 else [(x,) for x in arith.alphabet(2) if G.canon((x,)) == (x,)]
        for length in (1, 2, 3):
            tails = sorted({w[1:] for e in ends for w in self._words(G, e, length)})
            options = [(s, k) for s in tails for k in self.EXPONENTS] if member else [
                (s, t) for s in tails for t in tails if not G.in_subgroup(arith.inverse(s) + t)]
            shapes = []
            for s, t in options:
                for e in ends:
                    v = self._tail(G, e, s, t)
                    if v is not None and v != e + s and arith.common_prefix(e + s, v) == len(e):
                        shapes.append((s, t))
                        break
            if shapes:
                return shapes
        raise RuntimeError(f"no {G.name} pair shape for common prefix {p}")

    @staticmethod
    def _words(G, start: arith.Word, length: int) -> list[arith.Word]:
        out = [start]
        for _ in range(length):
            out = [w + (x,) for w in out for x in G.next_letters(w)]
        return out

    def _pair(self, rng, G, p: int, s: arith.Word, t) -> tuple[arith.Word, arith.Word]:
        """A random prefix P of length p that carries the shape (s, t)."""
        for _ in range(10_000):
            P = self._random_canonical(rng, G, p)
            v = self._tail(G, P, s, t)
            if v is not None and v != P + s and arith.common_prefix(P + s, v) == p:
                return P + s, v
        raise RuntimeError(f"no {G.name} prefix of length {p} carries the shape {s}, {t}")

    def run_round(self, timed) -> tuple[int, int]:
        before = sum(e.fuel.consumed for e in self.engines.values())
        answers = [timed(self.engines[g].same_orbit, iu, iv) for g, iu, iv in self.queries]
        checks.check_answers(answers, self.truth)
        fuel = sum(e.fuel.consumed for e in self.engines.values()) - before
        return fuel, sum(e.numbering.known_count() for e in self.engines.values())


def _overlay_round_trip(tl, engine, z, region):
    """One overlay op: psi, phi back, then both forbidden-pattern rules."""
    patch = tl.psi_map(engine, z, region)
    back = tl.phi_map(engine.graph, patch)
    xj = tl.xj_forbidden(engine.graph, 3, tl.arrow_projection(patch))
    yxj = tl.yxj_forbidden(engine.graph, 3, tl.period3_enumerator(), patch, 6)
    return patch, back, xj, yxj


class Overlay:
    """The subshift round trip on three subgroup-mode groups and on Z2.

    Each (group, radius) of ``PLAN`` appears ``REPEATS`` times, with the
    phase of the period-3 sequence drawn from the seed; the seed also
    orders the ops.  Subgroup-mode engines are made fresh for each round.
    The Z2 engine is built once in set-up: one untimed round trip over its
    largest ball grows every stage the timed ops read.
    """

    PLAN = {"FreeF2": (1, 2, 3), "Z2HNN": (2, 3, 4), "Z2starZ3": (3, 4, 5), "Z2": (5, 8, 11)}
    REPEATS = 4
    REACH = 5000

    def __init__(self, tl, seed: int):
        self.tl = tl
        rng = _rng("overlay", seed)
        self.segments = [tl.period3_segment(-self.REACH, self.REACH, shift) for shift in range(3)]
        self.z2 = tl.engine_for("Z2", tl.Fuel(FUEL))
        self.regions = {}
        for group, radii in self.PLAN.items():
            graph = self.z2.graph if group == "Z2" else tl.engine_for(group).graph
            for r in radii:
                region = tuple(sorted(tl.ball(graph, 0, r)))
                want = 2 * r * r + 2 * r + 1 if group == "Z2" else arith.MANY_ENDED[group].ball_size(r)
                if len(region) != want:
                    raise checks.CheckFailed(f"{group} ball of radius {r} has {len(region)} vertices, not {want}")
                self.regions[group, r] = region
        _overlay_round_trip(tl, self.z2, self.segments[0], self.regions["Z2", max(self.PLAN["Z2"])])
        self.ops = [(g, r, rng.randrange(3)) for g, radii in self.PLAN.items() for r in radii for _ in range(self.REPEATS)]
        rng.shuffle(self.ops)
        self._z2_elements = None

    def run_round(self, timed) -> tuple[int, int]:
        tl = self.tl
        engines = {g: tl.engine_for(g, tl.Fuel(FUEL)) for g in self.PLAN if g != "Z2"}
        z2_before = self.z2.fuel.consumed
        outputs = []
        for group, r, shift in self.ops:
            engine = self.z2 if group == "Z2" else engines[group]
            outputs.append(timed(_overlay_round_trip, tl, engine, self.segments[shift], self.regions[group, r]))
        for (group, r, shift), out in zip(self.ops, outputs):
            if out is not None:
                self._check(group, r, shift, *out)
        fuel = self.z2.fuel.consumed - z2_before + sum(e.fuel.consumed for e in engines.values())
        words = self.z2.numbering.known_count() + sum(e.numbering.known_count() for e in engines.values())
        return fuel, words

    def _check(self, group, r, shift, patch, back, xj, yxj) -> None:
        z = self.segments[shift]
        recovered = [(n, back.at(n)) for n in back.domain]
        if group == "Z2":
            orbit_length, arrows = self._z2_expectations(r, patch)
        else:
            G = arith.MANY_ENDED[group]
            reach = 0
            while len(G.power(reach + 1)) <= r:
                reach += 1
            orbit_length = 2 * reach + 1  # the powers c^n inside the ball
            arrows = [(G.canon(patch.values[g][1].r), G.canon(G.c)) for g in patch.domain]
        checks.check_overlay(z.at, recovered, orbit_length, arrows, xj, yxj)

    def _z2_expectations(self, r, patch):
        """For Z2 the action is the engine's realized path: the identity's
        orbit inside the ball is the run of path positions around it whose
        vertices lie in the ball, and g∗1 is the next vertex on the path."""
        f = self.z2.current_path()
        vs = f.vertices
        if self._z2_elements is None or len(self._z2_elements) <= max(vs):
            self._z2_elements = checks.vertex_elements("Z2", max(vs) + 1)
        elem = self._z2_elements
        norm = lambda v: abs(elem[v][0]) + abs(elem[v][1])  # noqa: E731
        at0 = vs.index(0)
        lo = at0
        while lo > 0 and norm(vs[lo - 1]) <= r:
            lo -= 1
        hi = at0
        while hi + 1 < len(vs) and norm(vs[hi + 1]) <= r:
            hi += 1
        step = {vs[i]: vs[i + 1] for i in range(len(vs) - 1)}
        arrows = []
        for g in patch.domain:
            got = arith.zd_element(patch.values[g][1].r, 2)
            nxt = elem[step[g]]
            arrows.append((got, (nxt[0] - elem[g][0], nxt[1] - elem[g][1])))
        return hi - lo + 1, arrows


WORKLOADS = {"grow": Grow, "bs12": Bs12, "orbits": Orbits, "overlay": Overlay}
