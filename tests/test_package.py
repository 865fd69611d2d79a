"""The package namespace."""

from __future__ import annotations

import tlaction


def test_all_names_resolve_once():
    names = tlaction.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(tlaction, name)]
    assert missing == []
