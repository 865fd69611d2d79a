"""Command-line entry point wiring groups, engines, and subshift tools.

Subcommands
-----------

``act``
    Print the realized translation ``v0 * n`` for ``n`` in ``[-steps, steps]``
    on the chosen group, one ``n<TAB>vertex-word`` line each.
``verify``
    Run a named invariant suite and print its JSON report.  Check failures
    are report content, not process failures.
``export``
    Write an artifact: ``patch`` (ball around the identity as patch JSON),
    ``dot`` (the same ball in DOT format), or ``visited`` (the visited-index
    map after a number of stages).
``subshift-check``
    Judge a pattern patch (from a JSON file, or the engine's own translation
    pattern on a ball): is it excluded from the arrow subshift, and — when it
    carries an overlay layer — from the period-3 overlay subshift?
``psi``
    Encode a period-3 sequence as an overlaid pattern patch on a ball and
    print its JSON.

Exit codes: 0 success, 2 configuration error, 3 fuel exhausted,
4 invariant failure.  All randomness flows from ``--seed``; identical
seed and configuration give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os.path
import sys
from dataclasses import dataclass

from .action import engine_for
from .errors import (
    ConfigError,
    EndsDeclarationError,
    Fuel,
    FuelExhausted,
    InvariantError,
    default_fuel,
)
from .graph import ball, induced_patch, patch_to_dot, patch_to_json
from .groups import GroupOracle, builtin_group, group_from_config, word_to_str
from .subshift import (
    _kind,
    action_patch,
    pattern_patch_from_json,
    pattern_patch_to_json,
    period3_enumerator,
    period3_segment,
    psi_map,
    xj_forbidden,
    yxj_forbidden,
)
from .verify import SUITES, report_to_json, run_suite

_CHECK_BUDGET = 10_000  # enumeration budget for overlay-forbidden checks


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters: group, step budget, ball radius bound, seed."""

    group: str
    fuel: int
    J: int
    seed: int
    output: str | None

    def __post_init__(self):
        if self.fuel <= 0:
            raise ConfigError(f"fuel must be positive, got {self.fuel}")
        if self.J < 1:
            raise ConfigError(f"J must be at least 1, got {self.J}")

    def oracle(self) -> GroupOracle:
        if os.path.exists(self.group):
            return group_from_config(self.group)
        return builtin_group(self.group)

    def engine(self):
        return engine_for(self.oracle(), Fuel(self.fuel))


def _config(args: argparse.Namespace) -> RunConfig:
    fuel = args.fuel if args.fuel is not None else default_fuel()
    return RunConfig(
        group=args.group, fuel=fuel, J=args.J, seed=args.seed, output=args.out
    )


def _emit(cfg: RunConfig, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _labels(engine, vertices) -> dict[int, str]:
    names = engine.oracle.generator_names
    return {
        v: word_to_str(engine.numbering.to_word(v), names) for v in vertices
    }


# -- subcommands ------------------------------------------------------------


def cmd_act(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.steps < 0:
        raise ConfigError(f"steps must be a natural number, got {args.steps}")
    engine = cfg.engine()
    names = engine.oracle.generator_names
    lines = []
    for n in range(-args.steps, args.steps + 1):
        v = engine.act(0, n)
        lines.append(f"{n}\t{word_to_str(engine.numbering.to_word(v), names)}")
    _emit(cfg, "\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = run_suite(
        args.suite, group=cfg.group, seed=cfg.seed, J=cfg.J, fuel=cfg.fuel
    )
    _emit(cfg, report_to_json(report))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.radius < 0:
        raise ConfigError(f"radius must be a natural number, got {args.radius}")
    engine = cfg.engine()
    if args.what == "visited":
        if engine.mode != "transitive":
            raise ConfigError(
                "the visited index exists only in transitive mode "
                "(one- or two-ended groups)"
            )
        if args.stages < 0:
            raise ConfigError(f"stages must be a natural number, got {args.stages}")
        engine.build_stage(args.stages)
        labels = _labels(engine, engine.visited_index)
        table = {labels[v]: pos for v, pos in engine.visited_index.items()}
        _emit(cfg, json.dumps(table, indent=2, sort_keys=True))
        return 0
    patch = induced_patch(engine.graph, ball(engine.graph, 0, args.radius))
    labels = _labels(engine, patch.vertices)
    if args.what == "patch":
        _emit(cfg, patch_to_json(patch, labels))
    else:
        _emit(cfg, patch_to_dot(patch, labels))
    return 0


def cmd_subshift_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    engine = cfg.engine()
    if args.patch is not None:
        with open(args.patch, "r", encoding="utf-8") as fh:
            patch = pattern_patch_from_json(engine.graph, fh.read())
    else:
        if args.radius < 0:
            raise ConfigError(f"radius must be a natural number, got {args.radius}")
        region = ball(engine.graph, 0, args.radius)
        patch = action_patch(engine, region, J=cfg.J)
    kind = _kind(patch.values[patch.domain[0]])
    if kind == "letter":
        raise ConfigError(
            "the patch carries only overlay letters; arrow data is required"
        )
    verdict: dict[str, object] = {
        "J": cfg.J,
        "kind": kind,
        "vertices": len(patch.domain),
        "xj_forbidden": xj_forbidden(engine.graph, cfg.J, patch),
    }
    if kind == "pair":
        verdict["yxj_forbidden"] = yxj_forbidden(
            engine.graph, cfg.J, period3_enumerator(), patch, _CHECK_BUDGET
        )
    _emit(cfg, json.dumps(verdict, indent=2, sort_keys=True))
    return 0


def cmd_psi(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.range < 0:
        raise ConfigError(f"range must be a natural number, got {args.range}")
    if args.radius < 0:
        raise ConfigError(f"radius must be a natural number, got {args.radius}")
    engine = cfg.engine()
    z = period3_segment(-args.range, args.range)
    region = ball(engine.graph, 0, args.radius)
    patch = psi_map(engine, z, region, J=cfg.J)
    _emit(cfg, pattern_patch_to_json(engine.graph, patch))
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--group",
        default="Z2",
        help="built-in group name or group-config JSON path (default Z2)",
    )
    common.add_argument(
        "--fuel",
        type=int,
        default=None,
        help="step budget for oracle-consulting loops "
        "(default: the TLACTION_FUEL environment variable, else 10^7)",
    )
    common.add_argument(
        "--J", type=int, default=3, help="arrow reach bound (default 3)"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for randomized sampling"
    )
    common.add_argument(
        "--out", default=None, help="output file (default stdout)"
    )

    parser = argparse.ArgumentParser(
        prog="tlaction",
        description="translation-like actions by Z on graphs and groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_act = sub.add_parser(
        "act", parents=[common], help="print v0 * n for n in [-steps, steps]"
    )
    p_act.add_argument(
        "--steps", type=int, default=5, help="half-width of the step range"
    )
    p_act.set_defaults(func=cmd_act)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run an invariant suite, print the report"
    )
    p_verify.add_argument(
        "--suite", default="all", choices=SUITES, help="suite name (default all)"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export", parents=[common], help="write a patch/DOT/visited-index artifact"
    )
    p_export.add_argument("what", choices=("patch", "dot", "visited"))
    p_export.add_argument(
        "--radius", type=int, default=2, help="ball radius for patch/dot (default 2)"
    )
    p_export.add_argument(
        "--stages", type=int, default=10, help="stage to build for visited (default 10)"
    )
    p_export.set_defaults(func=cmd_export)

    p_check = sub.add_parser(
        "subshift-check",
        parents=[common],
        help="judge a pattern patch against the arrow/overlay subshifts",
    )
    p_check.add_argument(
        "patch", nargs="?", default=None, help="pattern-patch JSON file (default: the engine's own pattern)"
    )
    p_check.add_argument(
        "--radius", type=int, default=2, help="ball radius for the default pattern"
    )
    p_check.set_defaults(func=cmd_subshift_check)

    p_psi = sub.add_parser(
        "psi",
        parents=[common],
        help="encode a period-3 sequence as an overlaid pattern patch",
    )
    p_psi.add_argument(
        "--range", type=int, default=64, help="the sequence covers [-range, range]"
    )
    p_psi.add_argument(
        "--radius", type=int, default=2, help="ball radius of the encoded region"
    )
    p_psi.set_defaults(func=cmd_psi)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"tlaction: config error: {exc}", file=sys.stderr)
        return 2
    except FuelExhausted as exc:
        print(f"tlaction: fuel exhausted: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, EndsDeclarationError) as exc:
        print(f"tlaction: invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
