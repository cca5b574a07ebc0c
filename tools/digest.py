"""One SHA-256 per part of everything a change must keep bit for bit.

    python3 tools/digest.py SRC_DIR [PREFIX ...]

Imports sparsedom from SRC_DIR and runs the parts of PARTS in order, in this
process.  Prints `python X numpy Y`, one `name sha256` line per part and a
totals line after each panel.  A call that raises feeds its error.  Given
prefixes, only the parts whose names start with one of them run (for
example `construction/` or `config/maximal`), and the totals count those.

- config/*: run_experiment on one file of configs/ (beside tools/): the
  exit code and every output file's name and bytes.
- construction/*: build_sparse_collection on two `mixed` items from each of
  seeds 0-2, or on two power-singularity inputs, in variants 1 (eps 0.5)
  and 2 under each of SETTINGS: lhs, rhs, node reprs, cubes, major sets.
- sparsity/*: greedy sup_sparse_form for each pair of PS, and
  verify_sparsity on 40 seeded random families of 1 to 24 cubes: values,
  verdicts, Hall certificates, cubes, major sets.

Diff the output of two source trees to see which parts a change moved.
tests/golden.txt holds it for this tree; tests/test_golden.py checks a subset.
"""

import hashlib
import itertools
import platform
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SETTINGS = ({}, {"c0": 1.0, "child_budget": 0.25},
            {"c0": 1.0, "child_budget": 0.4})
PS = ((1.0, 1.0), (1.5, 2.0), (3.0, 0.4), (-0.5, np.inf), (-2.0, -np.inf))
FAMILIES = 40
BOUNDARY = {True: "periodic", False: "clipped"}
TOTALS = {"construction": "builds {} cubes {} recursing non-root nodes {}",
          "sparsity": "greedy runs {} families {} feasible {}"}


def versions() -> str:
    return f"python {platform.python_version()} numpy {np.__version__}"


def run_digest(code, out) -> str:
    """The hash of one run: its exit code (or error repr) and the name and
    bytes of every file under its output directory out."""
    digest = hashlib.sha256()
    digest.update(f"exit {code}\n".encode())
    for file in sorted(Path(out).rglob("*")):
        if file.is_file():
            data = file.read_bytes()
            name = file.relative_to(out).as_posix()
            digest.update(repr((name, len(data))).encode() + data)
    return digest.hexdigest()


def config_part(path: Path, sd):
    with tempfile.TemporaryDirectory() as out:
        try:
            code = sd.run_experiment(sd.ExperimentConfig.from_file(path), out)
        except sd.SparsedomError as err:
            code = repr(err)
        return run_digest(code, out), ()


def power_items(sd, spec):
    """Two-slot inputs with power singularities at a seeded cell."""
    x0 = int(np.random.default_rng(spec.levels).integers(spec.side))
    gap = np.abs(np.arange(spec.side) - x0)
    dist = np.minimum(gap, spec.side - gap) + 0.5
    for alpha in (0.5, 0.8):
        near, far = dist ** -alpha, (dist + 1.0) ** -alpha
        yield (sd.GridFunction(spec, np.column_stack((near, far))),
               sd.GridFunction(spec, np.column_stack((far, near))))


def construction_part(d, levels, periodic, power, sd):
    spec = sd.GridSpec(d, levels, periodic)
    items = power_items(sd, spec) if power else (
        item for seed in range(3) for item in sd.generate_corpus(
            "mixed", seed, 2, spec, n_slots=2, n_components=2))
    digest = hashlib.sha256()
    builds = cubes = recursing = 0
    for fs in items:
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
                digest.update(b"".join(repr(n).encode() for n in rep.nodes))
                feed_collection(digest, rep.collection)
                cubes += len(rep.collection)
                recursing += sum(n.n_children > 0 for n in rep.nodes[1:])
    return digest.hexdigest(), (builds, cubes, recursing)


def feed_collection(digest, collection):
    digest.update(repr(collection.cubes).encode()
                  + b"".join(m.tobytes() for m in collection.major_sets))


def sparsity_part(index, d, levels, periodic, shifts, sd):
    """index is the grid's place in the panel; it seeds the draws."""
    spec = sd.GridSpec(d, levels, periodic)
    rng = np.random.default_rng([index, spec.d, spec.levels])
    inputs = [sd.GridFunction(spec, rng.uniform(0.1, 1.0, spec.ncells))
              for _ in range(2)]
    digest = hashlib.sha256()
    for ps in PS:
        try:
            value, collection = sd.sup_sparse_form(
                inputs, ps, mode="greedy", shifts=shifts)
        except sd.SparsedomError as err:
            digest.update(repr(err).encode())
            continue
        digest.update(repr(value).encode())
        feed_collection(digest, collection)
    pool = list(sd.enumerate_cubes(spec, shifts=shifts))
    feasible = 0
    for _ in range(FAMILIES):
        size = int(rng.integers(1, 25))
        pick = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
        verdict = sd.verify_sparsity(spec, [pool[i] for i in pick])
        digest.update(repr((verdict.feasible, verdict.violating)).encode())
        if verdict.feasible:
            feasible += 1
            feed_collection(digest, verdict.collection)
    return digest.hexdigest(), (len(PS), FAMILIES, feasible)


PARTS = [
    (f"config/{path.relative_to(CONFIGS).with_suffix('').as_posix()}",
     partial(config_part, path))
    for path in sorted(CONFIGS.glob("*.json"))
    + sorted(CONFIGS.glob("acceptance/*.json"))
] + [
    (f"construction/{BOUNDARY[periodic]}-d{d}-k{k}",
     partial(construction_part, d, k, periodic, False))
    for periodic, (d, k) in itertools.product(
        (True, False), ((1, 8), (1, 9), (1, 10), (1, 11), (1, 12), (2, 4),
                        (2, 5)))
] + [
    (f"construction/power-d1-k{k}",
     partial(construction_part, 1, k, True, True)) for k in (11, 12)
] + [
    (f"sparsity/{BOUNDARY[periodic]}-d{d}-k{k}-{shifts}",
     partial(sparsity_part, index, d, k, periodic, shifts))
    for index, (periodic, (d, k), shifts) in enumerate(itertools.product(
        (False, True), ((1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 2),
                        (2, 3), (2, 4)), ("canonical", "all")))
]


def main(argv: list) -> int:
    src = Path(argv[0]).resolve() if argv else None
    if src is None or not (src / "sparsedom" / "__init__.py").is_file():
        print("usage: python3 tools/digest.py SRC_DIR [PREFIX ...], where "
              "SRC_DIR holds the sparsedom package", file=sys.stderr)
        return 2
    prefixes = tuple(argv[1:]) or ("",)
    chosen = [part for part in PARTS if part[0].startswith(prefixes)]
    if not chosen:
        print(f"no part starts with any of {list(prefixes)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sparsedom as sd

    print(versions())
    for panel, parts in itertools.groupby(
            chosen, key=lambda part: part[0].split("/")[0]):
        total = 0
        for name, part in parts:
            value, counts = part(sd)
            print(name, value, flush=True)
            total = total + np.array(counts, dtype=int)
        if panel in TOTALS:
            print(TOTALS[panel].format(*total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
