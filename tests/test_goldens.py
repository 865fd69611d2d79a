"""Goldens: the realized stage paths, act tables, verify checks, the
numbering of the free products of cyclic groups, the normal forms of short
words in the shipped cyclic-subgroup instances, the orbit positions of
their radius-4 balls, the period-3 overlay round trip on those balls and
on Z2's radius-5 ball, and the rule verdicts on corrupted copies of those
overlays.

Each digest is the SHA-256 of a canonical ``repr`` of values the package
computes.  They pin that a refactor of the construction keeps every
realized path, every ``act`` value and every verify check; a change that
alters one on purpose re-pins it and says so.  The verify report's
``runtime`` (fuel consumed) is left out: it counts work, which a
refactor may legitimately remove.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from tlaction import (
    PERIOD3_ALPHABET,
    ArrowLetter,
    Fuel,
    HnnData,
    PatternPatch,
    amalgam_normal_form,
    arrow_projection,
    ball,
    builtin_group,
    canonical_numbering,
    cyclic_group,
    engine_for,
    group_from_config,
    hnn_normal_form,
    instance_for,
    orbit_positions,
    period3_enumerator,
    period3_segment,
    phi_map,
    psi_map,
    report_to_json,
    run_suite,
    xj_forbidden,
    yxj_forbidden,
    z_subgroup_membership,
)

LAST_STAGE = {"Z": 200, "Z2": 200, "Z3": 200, "BS12": 50}
ACT_SHIFTS = (-3, -1, 1, 3)

STAGE_DIGESTS = {
    "Z": "52ee53462f4dfaed844cbac6d197d5a5331b5f7cd8f7b73afbbe23d6d152c541",
    "Z2": "6b2e98f8b98c41304a4b6169d1f7af9f262bff4591178888c90b847f843297c8",
    "Z3": "7f9a03a61b1703e0ce1294e402df32297b00b1bcc16b46c75bebdf7f9c354a3e",
    "BS12": "fa395f0ae2d51ffcb7565b4bcf0fcd81fa565f6f4a3ddf2f8a80db8752b2404b",
}

# Stage paths no golden above reaches, built ascending on a fresh engine:
# Zd(4) leans most on the split extension, BS12 to 72 passes stage 51 (its
# only search at radius 8), and Z with a three-vertex separator seeds from
# (0, 1, 2), where the built-in Z seeds from (0,).
Z_SEPARATOR_CONFIG = {
    "strategy": "z",
    "declared_ends": 2,
    "certificate": {"separator": ["a^-1", "e", "a"], "side_a": ["a*a"], "side_b": ["a^-1*a^-1"]},
}
MORE_STAGE_DIGESTS = {
    "Zd(4)": (150, "0d22cd8c5dbb9f9c2e7f474b2d35c8915c73ac078c4e7c3bdc1f8bb54b153ab8"),
    "BS12": (72, "47c5caf610d019075aa6fb2f12bf45c21a0a3bdfd3c06b32573066efa73a0738"),
    "Z-separator": (100, "a5101f931d0e3645ffe951b1e28382b8162c0313db100465e4724236e502f35b"),
}

ACT_DIGESTS = {
    "Z": "0f5653402f56f3ef9775a1fe4f35f57741b7ee3460f09e151c003a8cf557332b",
    "Z2": "fe39fc2301984c4bd7aae527295a591d9edf7509776d466aa7cb56ab9b94d9ec",
    "Z3": "9a90b522e2c979fa5d9346d1274272512646f8e30bc092cf0897c0e81dca74d5",
    "BS12": "57c4b2e27cb8cd4800892c46f4a3cca06b401d30ff1a13c5196b49e9628953ca",
}

# the first NUMBERING_COUNT canonical words and fast_word at 10^9 and 10^18
NUMBERING_COUNT = 5000
NUMBERING_DIGESTS = {
    "FreeF2": "c37c140a6e623607f100a9a83ddc99e04fb1e07bdc49110171e906f877b77abe",
    "Z2HNN": "8feec1cda0696f253d32cd578444e5e804073770754a6cac0a9476207d1a37b3",
    "Z2starZ3": "a03761fb217ede39be4fd76ebfa63284eedfe3061ffb4cb5e86fe922bc9be107",
}
# the canonical words of every element of cyclic_group(n), n = 2..7
CYCLIC_ELEMENTS_DIGEST = "e731a098c1caae8ccf16e77fd1b1cf7355664a331f29a7964956cbd4131399fe"

VERIFY_ALL_SEED7_DIGEST = "e33750b912c91982330577ed15671937f18aa87f60acd62ed3e0e85eb0851da7"

# every word of length <= NF_MAX_LEN over the extension's four letters
# (1,365 words), with its normal-form parts and its cyclic-subgroup membership
NF_MAX_LEN = 5
NORMAL_FORM_DIGESTS = {
    "FreeF2": "60d8d9bbc1397b4624d871fbf6af4c8fd5891ea5db01f3c1bd0aa21833519c63",
    "Z2HNN": "568e25599a2aa74fba2b5e49433e6c4b822cceccf65fc121bb87292bb19a3761",
    "Z2starZ3": "e1bfa366d5f7c1b0d90066019f7cd08549df852b7b4162b59976f4539894ef04",
}

# subgroup mode on the ball of radius ORBIT_RADIUS: every vertex's orbit
# position
ORBIT_RADIUS = 4
ORBIT_POSITION_DIGESTS = {
    "FreeF2": "3363bc16871a1d68ada9e2b12cb22adc97e72da7bb32298d03ae3d66e72f9dbf",
    "Z2HNN": "7d368c478555ad0dc3fa31458525bdb4aab450d012a3a48eb0a31b3ab288c830",
    "Z2starZ3": "5c9f0ba82a90f920e8a53a172dacf93b2244d0df8c2584eff774582cacbd50b6",
}

# the overlay on the ball of radius OVERLAY_RADIUS[group]: psi_map of the
# period-3 point with phase OVERLAY_SHIFT on positions -OVERLAY_REACH ..
# OVERLAY_REACH, and the round trip: that patch, the phi_map segment read
# back, and the xj_forbidden and yxj_forbidden verdicts (J = 3, budget 6),
# as scripts/overlay_roundtrip.py --digest prints it
OVERLAY_RADIUS = {"FreeF2": ORBIT_RADIUS, "Z2HNN": ORBIT_RADIUS, "Z2starZ3": ORBIT_RADIUS, "Z2": 5}
OVERLAY_SHIFT = 1
OVERLAY_REACH = 5000
PSI_MAP_DIGESTS = {
    "FreeF2": "ab456a6f12d6a675deef66efcd533f57cf885cd91a0bd9b720f9dfc24e7d14f9",
    "Z2HNN": "29586132559748a58a52407cd0e9da89c01dc3dadd56219732612da59ebfcfec",
    "Z2starZ3": "d87a42965817d90d671166a42d2d2dfee5bae769dc3c0c4ad7408c1c93156717",
    "Z2": "a493608a8a615c03d382caffd142ebf92b2648dad18cf9ed9c0950198887b679",
}
OVERLAY_ROUND_TRIP_DIGESTS = {
    "FreeF2": "084d9f3b37f81d938a05d40d44d58d461a1697ada28cfaf7572a9c8a4dca5933",
    "Z2HNN": "5eb7a04417a8ee7b3a3470a0cd3f2472df6d2a3ff8e53ec8a4e55419868a8677",
    "Z2starZ3": "2164c9b4655d774d7ad26189bedc01c1262c2e310061f230ef3eb8afbd661954",
    "Z2": "b9d23b654e978359b38ae2639e5542a31085f77b06efb0eac91d6a6825fe584f",
}

# corrupted overlays: VERDICT_PATCHES copies per group of the overlay above
# (and of Z's on its radius-5 ball), each with one to three vertices changed
# at random, mostly near the identity: an arrow offset becomes another of the
# patch's offsets or one of VERDICT_WORDS, or the overlay letter changes.
# Per copy: the xj_forbidden verdict on the arrow projection, the
# yxj_forbidden verdict (J = 3, budget 6), and phi_map's segment, each as the
# exception type when one is raised; then the fuel all copies consumed.
VERDICT_RADIUS = {**OVERLAY_RADIUS, "Z": 5}
VERDICT_SEED = 24
VERDICT_PATCHES = 150
VERDICT_WORDS = ((), (1,), (-1,), (1, 1))
VERDICT_DIGESTS = {
    "FreeF2": "ad122548a167bde1f42f2f51e6e32777030341cabceaba12b24aa1a0f9c55883",
    "Z": "f75e589eb9db3597fea88a384c6d3bad19aefc32837f2bfa8ae17eaa14e722b3",
    "Z2": "fbba3c88b4ac20e10dc29f05cd94bf7b4eb420a75b6123aa0b0a17be12bb1299",
    "Z2HNN": "7278ac88012ae06384f82100289ad4af4d44d165cf20b00350e83ca5a1bfb071",
    "Z2starZ3": "9c75b610020ee53329df49349581c1da8e1f5fffa37a8f2f3b5cc3e9bfc08e72",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def grown():
    engines = {}

    def get(group: str):
        if group not in engines:
            engine = engine_for(group, Fuel(10**12))
            engine.build_stage(LAST_STAGE[group])
            engines[group] = engine
        return engines[group]

    return get


def stage_list(engine, last: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(f.lo, f.vertices) for f in map(engine.build_stage, range(last + 1))]


def act_table(engine) -> list[int]:
    return [engine.act(v, k) for v in range(20) for k in ACT_SHIFTS]


def verify_checks_json() -> str:
    report = json.loads(report_to_json(run_suite("all", seed=7)))
    del report["runtime"]
    return report_to_json(report)


# Two build orders: stages read back after growing (an older stage is a
# slice of the newest path), and stages built in ascending order on a fresh
# engine (each one returned as the newest path).
@pytest.mark.parametrize(
    "group, order",
    [pytest.param(g, "grown", id=g) for g in sorted(LAST_STAGE)]
    + [pytest.param(g, "ascending", id=f"{g}-ascending") for g in sorted(LAST_STAGE)],
)
def test_stage_paths_golden(grown, group, order):
    engine = grown(group) if order == "grown" else engine_for(group, Fuel(10**12))
    assert _digest(stage_list(engine, LAST_STAGE[group])) == STAGE_DIGESTS[group]


@pytest.mark.parametrize("name", sorted(MORE_STAGE_DIGESTS))
def test_more_stage_paths_golden(name):
    group = group_from_config(Z_SEPARATOR_CONFIG) if name == "Z-separator" else name
    last, digest = MORE_STAGE_DIGESTS[name]
    assert _digest(stage_list(engine_for(group, Fuel(10**12)), last)) == digest


@pytest.mark.parametrize("group", sorted(LAST_STAGE))
def test_act_table_golden(grown, group):
    assert _digest(act_table(grown(group))) == ACT_DIGESTS[group]


@pytest.mark.parametrize("name", sorted(NUMBERING_DIGESTS))
def test_numbering_golden(name):
    oracle = builtin_group(name)
    words = [canonical_numbering(oracle).to_word(n) for n in range(NUMBERING_COUNT)]
    # the lazy enumeration, deduplicated by the key, lists the same words
    lazy = canonical_numbering(dataclasses.replace(oracle, fast_index=None, fast_word=None))
    assert [lazy.to_word(n) for n in range(NUMBERING_COUNT)] == words
    far = (oracle.fast_word(10**9), oracle.fast_word(10**18))
    assert _digest((words, *far)) == NUMBERING_DIGESTS[name]


def test_cyclic_elements_golden():
    elements = [
        [canonical_numbering(cyclic_group(n)).to_word(i) for i in range(n)] for n in range(2, 8)
    ]
    assert _digest(elements) == CYCLIC_ELEMENTS_DIGEST


def test_verify_all_seed7_golden():
    assert _digest(verify_checks_json()) == VERIFY_ALL_SEED7_DIGEST


@pytest.mark.parametrize("name", sorted(NORMAL_FORM_DIGESTS))
def test_normal_forms_golden(name):
    inst = instance_for(name)
    d = inst.data
    normal_form = hnn_normal_form if isinstance(d, HnnData) else amalgam_normal_form
    fuel = Fuel(10**12)
    rows = [
        (w, normal_form(d, w, fuel).parts, z_subgroup_membership(inst, w, fuel))
        for n in range(NF_MAX_LEN + 1)
        for w in itertools.product(d.extension.letters, repeat=n)
    ]
    assert len(rows) == 1365
    assert _digest(rows) == NORMAL_FORM_DIGESTS[name]


def _subgroup_ball(name: str):
    engine = engine_for(name, Fuel(10**12))
    return engine, sorted(ball(engine.graph, 0, ORBIT_RADIUS))


@pytest.mark.parametrize("name", sorted(ORBIT_POSITION_DIGESTS))
def test_orbit_positions_golden(name):
    engine, region = _subgroup_ball(name)
    positions = orbit_positions(engine, region)
    assert _digest(sorted(positions.items())) == ORBIT_POSITION_DIGESTS[name]


def _overlay(name: str):
    engine = engine_for(name, Fuel(10**12))
    region = ball(engine.graph, 0, OVERLAY_RADIUS[name])
    z = period3_segment(-OVERLAY_REACH, OVERLAY_REACH, shift=OVERLAY_SHIFT)
    patch = psi_map(engine, z, region)
    return engine.graph, patch, [(g, patch.values[g]) for g in patch.domain]


@pytest.mark.parametrize("name", sorted(PSI_MAP_DIGESTS))
def test_psi_map_golden(name):
    _, _, rows = _overlay(name)
    assert _digest(rows) == PSI_MAP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(OVERLAY_ROUND_TRIP_DIGESTS))
def test_overlay_round_trip_golden(name):
    graph, patch, rows = _overlay(name)
    back = phi_map(graph, patch)
    xj = xj_forbidden(graph, 3, arrow_projection(patch))
    yxj = yxj_forbidden(graph, 3, period3_enumerator(), patch, 6)
    assert _digest((rows, (back.start, back.letters), xj, yxj)) == OVERLAY_ROUND_TRIP_DIGESTS[name]


def _outcome(rule, *args):
    try:
        return rule(*args)
    except Exception as exc:
        return type(exc).__name__


def _corrupted(rng: random.Random, patch: PatternPatch) -> PatternPatch:
    domain = patch.domain
    offsets = sorted({w for _, arrow in patch.values.values() for w in (arrow.l, arrow.r)})
    values = dict(patch.values)
    for _ in range(rng.randint(1, 3)):
        v = domain[int(len(domain) * rng.random() ** 3)]
        letter, arrow = values[v]
        change = rng.randrange(3)
        if change == 2:
            letter = rng.choice([a for a in PERIOD3_ALPHABET if a != letter])
        else:
            w = rng.choice(offsets + list(VERDICT_WORDS))
            arrow = ArrowLetter(w, arrow.r) if change == 0 else ArrowLetter(arrow.l, w)
        values[v] = (letter, arrow)
    return PatternPatch(domain, values)


@pytest.mark.parametrize("name", sorted(VERDICT_DIGESTS))
def test_rule_verdicts_golden(name):
    engine = engine_for(name, Fuel(10**12))
    graph = engine.graph
    z = period3_segment(-OVERLAY_REACH, OVERLAY_REACH, shift=OVERLAY_SHIFT)
    patch = psi_map(engine, z, ball(graph, 0, VERDICT_RADIUS[name]))
    rng = random.Random(VERDICT_SEED)
    before = engine.fuel.consumed
    rows = []
    for _ in range(VERDICT_PATCHES):
        p = _corrupted(rng, patch)
        back = _outcome(phi_map, graph, p)
        rows.append((
            _outcome(xj_forbidden, graph, 3, arrow_projection(p)),
            _outcome(yxj_forbidden, graph, 3, period3_enumerator(), p, 6),
            back if isinstance(back, str) else (back.start, back.letters),
        ))
    xj, yxj, _ = zip(*rows)
    assert True in xj and False in xj and True in yxj and "false-so-far" in yxj
    assert _digest((rows, engine.fuel.consumed - before)) == VERDICT_DIGESTS[name]
