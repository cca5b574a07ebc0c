"""Report, construction and sparsity bits pinned against tests/golden.txt.

tests/golden.txt is the output of `python3 tools/digest.py src`.  These tests
recompute its cheaper parts in process; the tool runs them all.  A change
that moves bits on purpose regenerates the file in the same commit and names
the parts that moved.
"""

import importlib.util
from pathlib import Path

import pytest

import sparsedom

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "digest", ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

LINES = (ROOT / "tests" / "golden.txt").read_text().splitlines()
GOLDEN = dict(line.split() for line in LINES if "/" in line)
PARTS = dict(digest.PARTS)


def pinned(name: str) -> bool:
    """The parts recomputed here: every config but the construction
    acceptance corpora and the slow weighted one, which
    tests/test_acceptance.py's criterion 10 checks on the run it already
    makes; constructions on 1-d K <= 10 and 2-d K = 4, and on the power
    inputs at K = 11, whose 49 recursing non-root nodes outnumber the 30
    of the other pinned constructions; sparsity on 1-d K <= 7 (up to the
    128-cell root of K = 7) and 2-d K <= 3."""
    panel, part = name.split("/", 1)
    if panel == "config":
        return part != "weighted" and \
            not part.startswith("acceptance/construction_")
    boundary, d, k = part.split("-")[:3]
    levels = int(k[1:])
    if panel == "construction":
        if boundary == "power":
            return levels == 11
        return levels <= (10 if d == "d1" else 4)
    return levels <= (7 if d == "d1" else 3)


GROUPS = {panel: [name for name in PARTS
                  if name.startswith(panel + "/") and pinned(name)]
          for panel in ("config", "construction", "sparsity")}


def test_golden_was_made_under_these_versions():
    assert LINES[0] == digest.versions(), (
        f"tests/golden.txt was made under {LINES[0]!r} and this run is "
        f"{digest.versions()!r}; its hashes need not hold here, so "
        "regenerate it with `python3 tools/digest.py src` and check the "
        "parts that moved")


def test_golden_lists_every_part_in_order():
    assert list(GOLDEN) == list(PARTS)
    assert [len(names) for names in GROUPS.values()] == [15, 9, 24]


@pytest.mark.parametrize("panel", GROUPS)
def test_parts_match_golden(panel):
    moved = [name for name in GROUPS[panel]
             if PARTS[name](sparsedom)[0] != GOLDEN[name]]
    assert not moved, f"parts whose bits moved: {moved}"
