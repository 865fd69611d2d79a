"""Self-contained invariant suites with machine-readable reports.

Each suite runs a fixed list of named checks against the library and
returns a JSON-serialisable report ``{checks, passes, failures, runtime}``.
All sampling flows from the single seed, and ``runtime`` counts oracle
work steps (fuel consumed) rather than wall-clock time, so identical
seed and configuration produce byte-identical reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .action import engine_for
from .errors import ConfigError, Fuel
from .graph import FinitePatch, ball, distance
from .groups import (
    builtin_group,
    concat_words,
    inverse_word,
    power_word,
    word_from_str,
)
from .paths import ThreePath, invert_path, karaganis_constrained, shift_path
from .stallings import (
    amalgam_normal_form,
    coset_representatives,
    cyclic_group,
    free_f2_instance,
    hnn_normal_form,
    z2_z3_instance,
    z2hnn_instance,
    z_subgroup_membership,
)
from .subshift import (
    FALSE_SO_FAR,
    ArrowLetter,
    PatternCoding,
    PatternPatch,
    action_patch,
    coding_to_pattern,
    period3_enumerator,
    period3_segment,
    phi_map,
    psi_map,
    orbit_positions,
    recenter,
    star_walk,
    xj_forbidden,
    yxj_forbidden,
)

SUITES = ("paths", "action", "stallings", "subshift", "all")


@dataclass
class _Ctx:
    """Shared state for one suite run: the seeded RNG and the fuel ledger."""

    group: str
    seed: int
    J: int
    budget: int | None  # None: the default budget
    rng: random.Random = field(init=False)
    fuels: list[Fuel] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def new_fuel(self) -> Fuel:
        fuel = Fuel(self.budget)
        self.fuels.append(fuel)
        return fuel

    def engine(self, group: str | None = None):
        return engine_for(group or self.group, self.new_fuel())

    @property
    def runtime(self) -> int:
        return sum(f.consumed for f in self.fuels)


# ---------------------------------------------------------------------------
# paths suite
# ---------------------------------------------------------------------------


def _chain_patch(n: int) -> FinitePatch:
    return FinitePatch(
        vertices=tuple(range(n)), edges=tuple((i, i + 1) for i in range(n - 1))
    )


def _random_connected_patch(rng: random.Random, n: int) -> FinitePatch:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.25:
                edges.add((u, v))
    return FinitePatch(vertices=tuple(range(n)), edges=tuple(sorted(edges)))


def _check_karaganis_corpus(ctx: _Ctx) -> str:
    corpus: list[FinitePatch] = [_chain_patch(n) for n in range(2, 7)]
    corpus.append(  # 6-cycle
        FinitePatch(
            vertices=tuple(range(6)),
            edges=tuple(sorted({(i, (i + 1) % 6) if i < (i + 1) % 6 else ((i + 1) % 6, i) for i in range(6)})),
        )
    )
    corpus.append(  # star on 5 vertices
        FinitePatch(vertices=(0, 1, 2, 3, 4), edges=((0, 1), (0, 2), (0, 3), (0, 4)))
    )
    corpus.append(  # complete graph K4
        FinitePatch(vertices=(0, 1, 2, 3), edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    )
    for _ in range(25):
        corpus.append(_random_connected_patch(ctx.rng, ctx.rng.randint(5, 8)))
    produced = 0
    for patch in corpus:
        for u in patch.vertices:
            for v in patch.vertices:
                if u == v:
                    continue
                path = karaganis_constrained(patch, u, v)  # self-validating
                if path.first != u or path.last != v:
                    raise AssertionError("endpoints moved")
                produced += 1
    return f"{produced} constrained Hamiltonian paths over {len(corpus)} patches"


def _check_path_algebra(ctx: _Ctx) -> str:
    rng = ctx.rng
    for _ in range(20):
        n = rng.randint(1, 9)
        start = rng.randint(-5, 5)
        f = ThreePath(start, tuple(range(100, 100 + n)))
        if invert_path(invert_path(f)) != f:
            raise AssertionError("invert is not an involution")
        k = rng.randint(-4, 4)
        g = shift_path(f, k)
        if g.lo != f.lo + k or g.vertices != f.vertices:
            raise AssertionError("shift changed content")
    return "invert/shift identities on 20 sampled paths"


def _check_path_rejects_repeats(ctx: _Ctx) -> str:
    try:
        ThreePath(0, (1, 2, 1))
    except Exception:
        return "repeated vertex rejected"
    raise AssertionError("repeated vertex accepted")


# ---------------------------------------------------------------------------
# action suite
# ---------------------------------------------------------------------------

_STAGE_DEPTH = 30


def _check_stage_nesting(ctx: _Ctx) -> str:
    eng = ctx.engine()
    if eng.mode != "transitive":
        reps = eng.orbit_representatives(3)
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                if eng.same_orbit(u, v):
                    raise AssertionError("orbit representatives collide")
        return f"subgroup mode: first orbit representatives {list(reps)} pairwise distinct"
    stages = [eng.build_stage(i) for i in range(_STAGE_DEPTH + 1)]
    for i in range(_STAGE_DEPTH):
        small, big = stages[i], stages[i + 1]
        for pos in small.domain:
            if big.at(pos) != small.at(pos):
                raise AssertionError(f"stage {i + 1} moved position {pos}")
    return f"stages 0..{_STAGE_DEPTH} nest exactly"


def _check_visited_coverage(ctx: _Ctx) -> str:
    eng = ctx.engine()
    if eng.mode != "transitive":
        reps = eng.orbit_representatives(2)
        if eng.same_orbit(reps[0], reps[1]):
            raise AssertionError("distinct representatives share an orbit")
        return "subgroup mode: representative orbits are disjoint"
    eng.build_stage(_STAGE_DEPTH)
    positions = [eng.ensure_visited(v) for v in range(_STAGE_DEPTH + 1)]
    if len(set(positions)) != len(positions):
        raise AssertionError("visited positions collide")
    return f"vertices 0..{_STAGE_DEPTH} visited at distinct positions"


def _check_jump_bound(ctx: _Ctx) -> str:
    eng = ctx.engine()
    pool = _STAGE_DEPTH if eng.mode == "transitive" else 60
    if eng.mode == "transitive":
        eng.build_stage(_STAGE_DEPTH)
    for _ in range(60):
        v = ctx.rng.randrange(0, pool + 1)
        w = eng.act(v, 1)
        if distance(eng.graph, v, w, cap=3) is None:
            raise AssertionError(f"act({v}, 1) jumps farther than 3")
    return "d(v, v*1) <= 3 on 60 sampled vertices"


def _check_action_axioms(ctx: _Ctx) -> str:
    eng = ctx.engine()
    pool = _STAGE_DEPTH if eng.mode == "transitive" else 60
    for _ in range(60):
        v = ctx.rng.randrange(0, pool + 1)
        n = ctx.rng.randint(-8, 8)
        m = ctx.rng.randint(-8, 8)
        if eng.act(eng.act(v, n), m) != eng.act(v, n + m):
            raise AssertionError(f"axiom fails at v={v}, n={n}, m={m}")
        if eng.act(v, 0) != v:
            raise AssertionError(f"act({v}, 0) != {v}")
    return "act(act(v,n),m) = act(v,n+m) on 60 samples"


def _check_freeness(ctx: _Ctx) -> str:
    eng = ctx.engine()
    pool = _STAGE_DEPTH if eng.mode == "transitive" else 60
    for _ in range(40):
        v = ctx.rng.randrange(0, pool + 1)
        n = ctx.rng.randint(-12, 12)
        fixed = eng.act(v, n) == v
        if fixed != (n == 0):
            raise AssertionError(f"freeness fails at v={v}, n={n}")
    return "act(v,n) = v only at n = 0 on 40 samples"


# ---------------------------------------------------------------------------
# stallings suite
# ---------------------------------------------------------------------------


def _random_word(rng: random.Random, letters: tuple[int, ...], max_len: int) -> tuple[int, ...]:
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def _check_hnn_roundtrip(ctx: _Ctx) -> str:
    total = 0
    for inst in (z2hnn_instance(), free_f2_instance()):
        ext = inst.data.extension
        for _ in range(60):
            w = _random_word(ctx.rng, ext.letters, 8)
            nf = hnn_normal_form(inst.data, w, ctx.new_fuel())
            if not ext.equal(nf.product(), w):
                raise AssertionError(f"normal form of {w} spells a different element")
            again = hnn_normal_form(inst.data, nf.product(), ctx.new_fuel())
            if again.parts != nf.parts:
                raise AssertionError(f"normal form of {w} is not idempotent")
            total += 1
    return f"{total} HNN round trips"


def _check_amalgam_roundtrip(ctx: _Ctx) -> str:
    inst = z2_z3_instance()
    ext = inst.data.extension
    for _ in range(60):
        w = _random_word(ctx.rng, ext.letters, 8)
        nf = amalgam_normal_form(inst.data, w, ctx.new_fuel())
        if not ext.equal(nf.product(), w):
            raise AssertionError(f"normal form of {w} spells a different element")
        again = amalgam_normal_form(inst.data, nf.product(), ctx.new_fuel())
        if again.parts != nf.parts:
            raise AssertionError(f"normal form of {w} is not idempotent")
    return "60 amalgam round trips"


def _check_membership_brute(ctx: _Ctx) -> str:
    total = 0
    for inst in (z2hnn_instance(), z2_z3_instance(), free_f2_instance()):
        ext = inst.data.extension
        c = inst.generator_word
        for _ in range(40):
            w = _random_word(ctx.rng, ext.letters, 6)
            got = z_subgroup_membership(inst, w, ctx.new_fuel())
            brute = any(
                ext.equal(w, power_word(c, n))
                for n in range(-len(w) - 1, len(w) + 2)
            )
            if got != brute:
                raise AssertionError(f"membership disagrees on {w}")
            total += 1
    return f"{total} membership comparisons against the exponent search"


def _check_coset_reps(ctx: _Ctx) -> str:
    c2 = cyclic_group(2, "a")
    reps = coset_representatives(c2, ((),), 2, ctx.new_fuel())
    if reps != ((), (1,)):
        raise AssertionError(f"C2 trivial-subgroup representatives wrong: {reps}")
    c3 = cyclic_group(3, "b")
    reps3 = coset_representatives(c3, ((),), 3, ctx.new_fuel())
    if len(reps3) != 3 or reps3[0] != ():
        raise AssertionError(f"C3 trivial-subgroup representatives wrong: {reps3}")
    return "cyclic coset representatives match"


# ---------------------------------------------------------------------------
# subshift suite
# ---------------------------------------------------------------------------


def _check_xj_sound(ctx: _Ctx) -> str:
    eng = ctx.engine()
    graph = eng.graph
    for _ in range(12):
        center = ctx.rng.randrange(0, 30)
        radius = ctx.rng.randint(0, 2)
        patch = action_patch(eng, ball(graph, center, radius), J=ctx.J)
        shifted = recenter(graph, patch, center)
        if xj_forbidden(graph, ctx.J, shifted) is not False:
            raise AssertionError(f"valid ball at center {center} flagged forbidden")
    return "12 engine ball patches never forbidden"


def _check_xj_flags_violations(ctx: _Ctx) -> str:
    eng = ctx.engine()
    graph = eng.graph
    base = action_patch(eng, ball(graph, 0, 2), J=ctx.J)
    fixed = dict(base.values)
    fixed[0] = ArrowLetter(l=fixed[0].l, r=())
    if xj_forbidden(graph, ctx.J, PatternPatch(base.domain, fixed)) is not True:
        raise AssertionError("fixed-point arrow not flagged")
    broken = dict(base.values)
    out = star_walk(graph, base, 0, 1)
    arrow = broken[out]
    for candidate in graph.neighbors(out):
        offset_word = eng.numbering.to_word(
            eng.numbering.to_index(
                concat_words(
                    inverse_word(eng.numbering.to_word(out)),
                    eng.numbering.to_word(candidate),
                )
            )
        )
        if candidate != 0:
            broken[out] = ArrowLetter(l=offset_word, r=arrow.r)
            break
    if xj_forbidden(graph, ctx.J, PatternPatch(base.domain, broken)) is not True:
        raise AssertionError("incoherent adjacent arrows not flagged")
    return "fixed-point and incoherence violations both flagged"


def _check_period3_roundtrip(ctx: _Ctx) -> str:
    eng = ctx.engine()
    graph = eng.graph
    for _ in range(8):
        radius = ctx.rng.randint(0, 3)
        region = sorted(ball(graph, 0, radius))
        positions = orbit_positions(eng, region)
        lo, hi = min(positions.values()), max(positions.values())
        z = period3_segment(lo - 2, hi + 2, shift=ctx.rng.randrange(3))
        patch = psi_map(eng, z, region, J=ctx.J)
        seg = phi_map(graph, patch)
        for n in seg.domain:
            if seg.at(n) != z.at(n):
                raise AssertionError(f"round trip diverges at position {n}")
    return "8 overlay round trips reproduce the input segment"


def _check_yxj_false_so_far(ctx: _Ctx) -> str:
    eng = ctx.engine()
    graph = eng.graph
    for radius in (0, 1, 2):
        region = sorted(ball(graph, 0, radius))
        positions = orbit_positions(eng, region)
        lo, hi = min(positions.values()), max(positions.values())
        patch = psi_map(eng, period3_segment(lo - 1, hi + 1), region, J=ctx.J)
        verdict = yxj_forbidden(graph, ctx.J, period3_enumerator(), patch, 10_000)
        if verdict != FALSE_SO_FAR:
            raise AssertionError(f"overlay patch at radius {radius} flagged: {verdict}")
    return "overlay patches false-so-far at budget 10000"


def _check_coding_consistency(ctx: _Ctx) -> str:
    oracle = builtin_group(ctx.group)
    names = oracle.generator_names
    w = word_from_str(names[0], names)
    padded = concat_words(w, (2, -2)) if oracle.generator_count > 1 else concat_words(w, (1, -1))
    good = PatternCoding(((w, "x"), (padded, "x"), ((), "y")))
    patch = coding_to_pattern(oracle, good)
    if len(patch.domain) != 2:
        raise AssertionError("coded pattern has the wrong domain")
    try:
        coding_to_pattern(oracle, PatternCoding(((w, "x"), (padded, "y"))))
    except ConfigError:
        return "consistency accepted and violation rejected"
    raise AssertionError("inconsistent coding accepted")


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

_CHECKS: dict[str, tuple[tuple[str, object], ...]] = {
    "paths": (
        ("karaganis-corpus", _check_karaganis_corpus),
        ("path-algebra", _check_path_algebra),
        ("path-injectivity", _check_path_rejects_repeats),
    ),
    "action": (
        ("stage-nesting", _check_stage_nesting),
        ("visited-coverage", _check_visited_coverage),
        ("thm-t2-bound-3", _check_jump_bound),
        ("action-axioms", _check_action_axioms),
        ("action-freeness", _check_freeness),
    ),
    "stallings": (
        ("hnn-roundtrip", _check_hnn_roundtrip),
        ("amalgam-roundtrip", _check_amalgam_roundtrip),
        ("membership-vs-exponent-search", _check_membership_brute),
        ("coset-representatives", _check_coset_reps),
    ),
    "subshift": (
        ("xj-soundness", _check_xj_sound),
        ("xj-flags-violations", _check_xj_flags_violations),
        ("period3-roundtrip", _check_period3_roundtrip),
        ("yxj-false-so-far", _check_yxj_false_so_far),
        ("coding-consistency", _check_coding_consistency),
    ),
}


def run_suite(
    suite: str,
    group: str = "Z2",
    seed: int = 0,
    J: int = 3,
    fuel: int | None = None,
) -> dict:
    """Run one named suite (or ``all``) and return its report dict.

    The report is ``{suite, group, seed, J, checks, passes, failures,
    runtime}`` where ``checks`` lists ``{name, pass, detail}`` records in
    a fixed order and ``runtime`` totals the oracle steps consumed.
    Raises :class:`ConfigError` when the suite name selects no checks.
    """
    if suite == "all":
        selected = [item for name in ("paths", "action", "stallings", "subshift") for item in _CHECKS[name]]
    else:
        selected = list(_CHECKS.get(suite, ()))
    if not selected:
        raise ConfigError(
            f"suite {suite!r} selects zero checks; known suites: {', '.join(SUITES)}"
        )
    ctx = _Ctx(group=group, seed=seed, J=J, budget=fuel)
    records = []
    passes = 0
    for name, fn in selected:
        try:
            detail = fn(ctx)
            records.append({"name": name, "pass": True, "detail": detail})
            passes += 1
        except AssertionError as exc:
            records.append({"name": name, "pass": False, "detail": str(exc)})
    return {
        "suite": suite,
        "group": group,
        "seed": seed,
        "J": J,
        "checks": records,
        "passes": passes,
        "failures": len(records) - passes,
        "runtime": ctx.runtime,
    }


def report_to_json(report: dict) -> str:
    """Serialise a report with stable key order (byte-identical per seed)."""
    return json.dumps(report, indent=2, sort_keys=True)
