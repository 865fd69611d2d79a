"""The demo scripts run to completion with their default arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    assert proc.stdout.strip()
