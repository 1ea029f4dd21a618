"""Derive the stored generator moves with the BFS oracle and freeze them.

Writes src/fanoweb/standard_moves.py.  Run from the repository root:

    python3 tools/freeze_moves.py
"""

import pprint
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = ROOT / "src" / "fanoweb" / "standard_moves.py"
sys.path.insert(0, str(ROOT / "src"))

from fanoweb.genset import from_polytope
from fanoweb.jsonio import sequence_to_json
from fanoweb.links import Constituent, sequence_from_steps, validate_sequence
from fanoweb.polytopes import hull
from fanoweb.web import TOKENS, _bfs_pairs, standard_pairs

NEEDED = [
    ("T", "P2", "terminal"),
    ("T", "F0", "terminal"),
    ("T", "F1", "terminal"),
    ("T", "F2", "canonical"),
    ("U", "F1", "terminal"),
    ("U", "F2", "canonical"),
]

HEADER = '''"""Frozen link sequences for generator moves the closed forms do not cover.

Each entry connects a standard Mori fiber polygon to its image under one
GL(2,Z) generator.  The sequences were found once by the breadth-first
search oracle over class-constrained link moves and are re-validated on
every use (and in the test suite); see tools/freeze_moves.py.
"""

from __future__ import annotations

_DERIVED = '''

FOOTER = '''

def derived_forward_sequence(token, key):
    from .jsonio import sequence_from_json

    data = _DERIVED.get(f"{token}:{key}")
    if data is None:
        raise KeyError(f"no stored move for generator {token} on {key}")
    return sequence_from_json(data)
'''


def derive(token, key, cls, box):
    g = TOKENS[token]
    std, fiber = standard_pairs()[key]
    a = from_polytope(std)
    source = Constituent(a, fiber)
    moved = hull(g.apply_all(std.vertices))
    target = Constituent(from_polytope(moved), g.apply_all(fiber))
    steps = _bfs_pairs([source], [target], cls, box)
    if steps is None:
        return None
    seq = sequence_from_steps(steps, cls)
    rep = validate_sequence(seq)
    assert rep.ok, rep.failures
    return seq


def module_text():
    """The text of src/fanoweb/standard_moves.py, derived afresh."""
    out = {}
    for token, key, cls in NEEDED:
        t0 = time.time()
        seq = None
        for box in (2, 3, 4):
            seq = derive(token, key, cls, box)
            if seq is not None:
                break
        assert seq is not None, (token, key)
        print(f"{token} on {key}: {len(seq.steps)} links, box {box}, {time.time()-t0:.1f}s")
        out[f"{token}:{key}"] = sequence_to_json(seq)
    return HEADER + pprint.pformat(out, width=100, sort_dicts=True) + FOOTER


def main():
    MODULE.write_text(module_text())
    print(f"wrote {MODULE}")


if __name__ == "__main__":
    main()
