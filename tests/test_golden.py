"""Every plan, trace and sweep CSV of the golden corpus is byte for byte what it was.

The corpus and how to rewrite its digests are described in ``tests/golden/make.py``.
"""

from __future__ import annotations

import collections
import importlib.util
import json
from pathlib import Path

_MAKE = Path(__file__).resolve().parent / "golden" / "make.py"
_spec = importlib.util.spec_from_file_location("golden_make", _MAKE)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_golden_digest_is_unchanged():
    tables = collections.Counter()
    new = golden.digests(tables)
    old = json.loads(golden.DIGESTS.read_text())
    moved = [f"{key}\n  old {old.get(key)}\n  new {new.get(key)}"
             for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    if moved:
        print(f"{len(moved)} golden entries moved:", *moved, sep="\n")
    assert not moved, f"{len(moved)} golden entries moved, first: {moved[0]}"
    # Each DP table filled at least one plan of the corpus.
    assert set(tables) == {"bits", "grid", "value"}, tables
