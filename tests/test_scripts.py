"""The demo scripts run to completion with their default arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import (
    LAST_STAGE,
    OVERLAY_RADIUS,
    OVERLAY_REACH,
    OVERLAY_ROUND_TRIP_DIGESTS,
    OVERLAY_SHIFT,
    STAGE_DIGESTS,
)

ROOT = Path(__file__).resolve().parent.parent


def run_script(script: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script",
    [
        ["build_stages.py"],
        ["ends_demo.py"],
        ["overlay_roundtrip.py"],
        # subgroup mode end to end: orbit keys on the FreeF2 ball of radius 5
        ["overlay_roundtrip.py", "--group", "FreeF2", "--radius", "5"],
    ],
    ids=" ".join,
)
def test_script_runs(script):
    assert run_script(script).strip()


def test_build_stages_digest_is_the_golden():
    out = run_script(["build_stages.py", "--group", "Z2", "--stages", str(LAST_STAGE["Z2"]), "--digest"])
    assert f"sha256 {STAGE_DIGESTS['Z2']}\n" in out
    assert "fuel consumed: " in out
    assert "numbering words: " in out


@pytest.mark.parametrize("group", ["Z2", "Z2starZ3"])
def test_overlay_roundtrip_digest_is_the_golden(group):
    out = run_script(
        [
            "overlay_roundtrip.py",
            "--group", group,
            "--radius", str(OVERLAY_RADIUS[group]),
            "--shift", str(OVERLAY_SHIFT),
            "--range", str(OVERLAY_REACH),
            "--digest",
        ]
    )
    assert f"sha256 {OVERLAY_ROUND_TRIP_DIGESTS[group]}\n" in out
    assert "fuel consumed: " in out


@pytest.mark.parametrize("script", ["build_stages.py", "ends_demo.py", "overlay_roundtrip.py"])
def test_script_runs_from_a_checkout_without_pythonpath(script, tmp_path):
    # run as the README gives it, from a directory that holds no package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
