"""The package namespace."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import tlaction

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_all_names_resolve_once():
    names = tlaction.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(tlaction, name)]
    assert missing == []


def test_bench_traced_names_resolve():
    # the per-layer tracer wraps public, non-generator functions and
    # methods by "layer.name" or "layer.Class.method"; bench/run.py reads
    # its counts by those names, so a rename must not leave one behind
    names = sorted(set(re.findall(r'(?:calls|self_s)\["([^"]+)"\]', BENCH_RUN.read_text())))
    assert len(names) == 11
    for name in names:
        layer, *path = name.split(".")
        owner = importlib.import_module(f"tlaction.{layer}")
        for part in path:
            assert not part.startswith("_"), name
            owner = vars(owner).get(part)
            assert owner is not None, name
        assert inspect.isfunction(owner) and not inspect.isgeneratorfunction(owner), name
        assert owner.__module__ == f"tlaction.{layer}", name
