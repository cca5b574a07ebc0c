"""SHA-256 of the sparsity decisions and greedy optima of one source tree.

    python3 tools/sparsity_digest.py SRC_DIR

Imports sparsedom from SRC_DIR only and runs, on every grid of a fixed
panel (1-d K = 4..8 and 2-d K = 2..4, clipped and periodic, the canonical
lattice and all shifted lattices):

- greedy sup_sparse_form on two seeded slots drawn from [0.1, 1), for
  each exponent pair of PS, feeding the value, the cubes and the
  major-set bytes into the hash;
- verify_sparsity on 40 seeded random families of 1 to 24 cubes of the
  same lattices, feeding the verdict, the Hall certificate and, for a
  feasible family, the major-set bytes into the hash.

A call that raises feeds its error.  The script prints the number of greedy
runs, families and feasible families, then the hex digest.  Running it on
two source trees and comparing the output shows whether a change kept every
sparsity decision and greedy optimum bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

GRIDS = ((1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 2), (2, 3), (2, 4))
PS = ((1.0, 1.0), (1.5, 2.0), (3.0, 0.4), (-0.5, np.inf), (-2.0, -np.inf))
FAMILIES = 40
FAMILY_SIZES = (1, 24)


def grids(sd):
    for periodic in (False, True):
        for d, levels in GRIDS:
            for shifts in ("canonical", "all"):
                yield sd.GridSpec(d, levels, periodic), shifts


def families(sd, spec, shifts, rng):
    pool = list(sd.enumerate_cubes(spec, shifts=shifts))
    for _ in range(FAMILIES):
        size = int(rng.integers(FAMILY_SIZES[0], FAMILY_SIZES[1] + 1))
        pick = rng.choice(len(pool), size=min(size, len(pool)),
                          replace=False)
        yield [pool[i] for i in pick]


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

    def feed_collection(collection):
        digest.update(repr(collection.cubes).encode())
        for major in collection.major_sets:
            digest.update(major.tobytes())

    runs = n_families = feasible = 0
    for index, (spec, shifts) in enumerate(grids(sd)):
        rng = np.random.default_rng([index, spec.d, spec.levels])
        inputs = [sd.GridFunction(spec, rng.uniform(0.1, 1.0, spec.ncells))
                  for _ in range(2)]
        for ps in PS:
            runs += 1
            try:
                value, collection = sd.sup_sparse_form(
                    inputs, ps, mode="greedy", shifts=shifts)
            except sd.SparsedomError as err:
                digest.update(repr(err).encode())
                continue
            digest.update(repr(value).encode())
            feed_collection(collection)
        for cubes in families(sd, spec, shifts, rng):
            n_families += 1
            verdict = sd.verify_sparsity(spec, cubes)
            digest.update(repr((verdict.feasible, verdict.violating)).encode())
            if verdict.feasible:
                feasible += 1
                feed_collection(verdict.collection)
    print(f"greedy runs {runs} families {n_families} feasible {feasible}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
