"""SHA-256 of the stopping-time constructions of one source tree.

    python3 tools/construction_digest.py SRC_DIR

Imports sparsedom from SRC_DIR only and runs build_sparse_collection over a
fixed panel: periodic and clipped grids, 1-d K = 8..12 and 2-d K = 4, 5,
two `mixed` corpus items of two slots and two components from each of
seeds 0-2, plus two-slot power inputs on periodic 1-d K = 11, 12 (the
circular distance d to a seeded cell, plus 0.5, raised to -alpha with
alpha 0.5 and 0.8); every item in variant 1 (eps 0.5) and variant 2, each
with the default c0 and budget, with (c0 1, budget 0.25) and with (c0 1,
budget 0.4).  ps are (1, 1) and rs (2, 2).  Each build feeds lhs, rhs,
the repr of every StoppingNode, the cubes and the major-set bytes into
the hash (a build that raises feeds its error).  The script prints the
number of builds, cubes and non-root nodes with children, then the hex
digest.  Running it on two source trees and comparing the output shows
whether a change kept every construction bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

SETTINGS = ({}, {"c0": 1.0, "child_budget": 0.25},
            {"c0": 1.0, "child_budget": 0.4})
GRIDS = ((1, 8), (1, 9), (1, 10), (1, 11), (1, 12), (2, 4), (2, 5))


def power_items(sd):
    """Two-slot inputs with power singularities at a seeded cell."""
    items = []
    for levels in (11, 12):
        spec = sd.GridSpec(1, levels, periodic=True)
        x0 = int(np.random.default_rng(levels).integers(spec.side))
        gap = np.abs(np.arange(spec.side) - x0)
        dist = np.minimum(gap, spec.side - gap) + 0.5
        for alpha in (0.5, 0.8):
            near, far = dist ** -alpha, (dist + 1.0) ** -alpha
            items.append((sd.GridFunction(spec, np.column_stack((near, far))),
                          sd.GridFunction(spec, np.column_stack((far, near)))))
    return items


def panel(sd):
    for periodic in (True, False):
        for d, levels in GRIDS:
            spec = sd.GridSpec(d, levels, periodic)
            for seed in range(3):
                yield from sd.generate_corpus(
                    "mixed", seed, 2, spec, n_slots=2, n_components=2)
    yield from power_items(sd)


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "sparsedom" / "__init__.py").is_file():
        print(f"no sparsedom package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sparsedom as sd

    digest = hashlib.sha256()
    builds = cubes = recursing = 0
    for fs in panel(sd):
        for variant, eps in ((1, 0.5), (2, None)):
            for kwargs in SETTINGS:
                builds += 1
                try:
                    rep = sd.build_sparse_collection(
                        list(fs), (1.0, 1.0), (2.0, 2.0), eps=eps,
                        variant=variant, **kwargs)
                except sd.SparsedomError as err:
                    digest.update(repr(err).encode())
                    continue
                digest.update(repr((rep.lhs, rep.rhs)).encode())
                for node in rep.nodes:
                    digest.update(repr(node).encode())
                digest.update(repr(rep.collection.cubes).encode())
                for major in rep.collection.major_sets:
                    digest.update(major.tobytes())
                cubes += len(rep.collection)
                recursing += sum(n.n_children > 0 for n in rep.nodes[1:])
    print(f"builds {builds} cubes {cubes} recursing non-root nodes "
          f"{recursing}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
