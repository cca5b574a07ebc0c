"""The four benchmark workloads, built on the package's public functions.

Each workload is made from the run seed (inputs and configs), warmed up,
and then exposes one *round*: a fixed list of trials, each a callable that
returns the output the checks in ``checks.py`` verify after timing stops.
A round does the same operations on every seed, so rounds are whole units
of work that can be repeated for as long as a run lasts.

Each workload also has a calibration loop: a few hundredths of a second of
the benchmark's own code doing the same kind of machine work as its round
(short numpy kernels, large-array reductions, dict updates, or many small
calls).  The runner times rounds against it, so that
the speed of a shared host, which changes by up to a factor 2 over minutes,
cancels; the program never runs inside it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from sparsedom import harness, lattice, sparse
from sparsedom.lattice import GridFunction, GridSpec


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _run_config(doc: dict, out_dir: Path) -> dict:
    """One experiment through the public harness; returns its written report."""
    cfg = harness.ExperimentConfig.from_dict(doc)
    code = harness.run_experiment(cfg, out_dir)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    tables = {p.stem: _read_csv(p) for p in sorted(out_dir.glob("*.csv"))}
    return {"exit_code": code, "report": report, "tables": tables}


# ---------------------------------------------------------------------------
# calibration loops (the benchmark's own code, never the package's)


def roll_kernel_loop():
    """Shifted products of two 4096-cell arrays, as in the singular sum."""
    f = np.linspace(0.5, 1.5, 4096)
    g = f[::-1].copy()
    out = np.zeros_like(f)
    for t in range(1, 257):
        out += (np.roll(f, -t) * np.roll(g, t)
                - np.roll(f, t) * np.roll(g, -t)) / t
    return out


def small_calls_loop():
    """Many small bincounts, masks and list operations, as in a recursion."""
    ids = np.arange(256) >> 2
    g = np.linspace(0.5, 1.5, 256)
    kept = []
    for i in range(1500):
        means = np.bincount(ids, weights=g ** 1.5, minlength=64) / 4.0
        mask = means >= means[i % 64]
        if np.all(mask[i % 60:i % 60 + 4]):
            kept.append(i)
        else:
            kept = kept[-8:]
    return kept


def mixed_loop():
    """Short numpy kernels and dict updates, as in graph search on numpy data."""
    a = np.arange(1024, dtype=np.float64)
    total = 0.0
    for i in range(1000):
        total += float(np.dot(np.roll(a, i), a))
    counts = {}
    for i in range(100000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total


class LargeArrayLoop:
    """Power means over blocks of a 65 536-cell array, by bincount.

    The arrays are made once, and no temporary is large enough to be
    mapped afresh, so the loop's time does not depend on how the program
    left the allocator.
    """

    def __init__(self):
        cells = np.arange(1 << 16)
        self.ids = [cells >> level for level in range(3, 16)]
        self.w = np.linspace(0.5, 2.0, 1 << 16)
        self.buf = np.empty_like(self.w)

    def __call__(self):
        for p in (1.5, 2.0, 0.5, 3.0):
            np.power(self.w, p, out=self.buf)
            for ids in self.ids:
                np.bincount(ids, weights=self.buf)
        return self.buf


# ---------------------------------------------------------------------------
# singular: the weighted experiment (singular-sum kernel, weighted quotient)


class Singular:
    """`weighted` through harness.run_experiment on the full ladder K = 6..12.

    K = 12 is needed for `bad-weight-grows`; two sided-inverse pairs per
    weight keep one round near two seconds while every level is exercised.
    At that corpus size the verdicts depend on the corpus seed, so the
    checks verify them against recomputed quotients instead of requiring
    them to pass.
    """

    LEVELS = (6, 8, 10, 12)
    PAIRS = 2
    PANEL = (-0.5, 0.0, 0.5, 1.5)
    BAD = 1.5
    QS = (2.0, 2.0)
    RS = (4.0, 4.0, 2.0)

    calibrate = staticmethod(roll_kernel_loop)
    CALIBRATION_S = 0.020     # median loop time on the reference box

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir / "singular"
        self.corpus_seed = int(rng_for(seed, 1).integers(1, 2 ** 31))
        self.doc = self._doc(self.LEVELS, self.PAIRS)

    def _doc(self, levels, pairs) -> dict:
        return {
            "kind": "weighted",
            "grid": {"d": 1, "levels": min(levels), "periodic": True},
            "corpus": {"kind": "sided-inverse", "size": pairs,
                       "seed": self.corpus_seed},
            "params": {"levels": list(levels), "qs": list(self.QS),
                       "rs": list(self.RS), "bad_exponent": self.BAD,
                       "panel": list(self.PANEL), "center": "center"},
        }

    def warm_up(self):
        _run_config(self._doc((4, 5), 1), self.out_dir / "warm-up")

    def trials(self) -> list:
        return [lambda: _run_config(self.doc, self.out_dir)]


# ---------------------------------------------------------------------------
# stopping: both stopping-time constructors with a budget that recurses


def symmetry_image(values: np.ndarray, spec: GridSpec,
                   rng: np.random.Generator) -> np.ndarray:
    """A random grid symmetry (axis flips, and a transpose in 2-d) of values.

    Reflections map the canonical lattice to itself and swap the two
    one-third-shifted lattices, and the transpose swaps axes; the maximal
    functions, dilates and the stopping rule all commute with them.
    """
    shape = (spec.side,) * spec.d + (values.shape[1],)
    grid = values.reshape(shape)
    for axis in range(spec.d):
        if rng.random() < 0.5:
            grid = np.flip(grid, axis=axis)
    if spec.d == 2 and rng.random() < 0.5:
        grid = np.swapaxes(grid, 0, 1)
    return np.ascontiguousarray(grid).reshape(values.shape)


class Stopping:
    """build_sparse_collection (both variants, c0 = 1) + lower_direction_check.

    The stopping recursion is data dependent: on inputs drawn afresh per
    seed its node count, and so its run time, varies several-fold.  The
    round therefore uses a fixed base panel (corpus items from fixed seeds,
    chosen so that both variants recurse) and the run seed picks, per
    input, a symmetry image, the order of the two slots, the order of the
    components and a power-of-two scale per slot.  The construction is
    scale free and commutes with all of these, so values and positions
    change with the seed while the amount of work does not.
    """

    # (d, K, corpus seed, corpus item): every item recurses in both variants
    BASE = ((1, 8, 0, 1), (1, 10, 2, 1), (2, 4, 0, 1), (2, 5, 2, 1))
    PS = (1.0, 1.0)
    RS = (2.0, 2.0)
    EPS = 0.5
    BUDGET = 0.25
    C0 = 1.0

    calibrate = staticmethod(small_calls_loop)
    CALIBRATION_S = 0.020     # median loop time on the reference box

    def __init__(self, seed: int, out_dir: Path):
        self.inputs = []
        for index, (d, k, base_seed, item) in enumerate(self.BASE):
            spec = GridSpec(d, k, True)
            base = harness.generate_corpus("mixed", base_seed, item + 1, spec,
                                           n_slots=2, n_components=2)[item]
            self.inputs.append(self.image(base, rng_for(seed, 2, index)))

    @staticmethod
    def image(base, rng) -> list:
        spec = base[0].spec
        # one geometric symmetry for both slots, so their relative layout
        # (which the multilinear construction sees) is preserved
        sym_seed = int(rng.integers(0, 2 ** 31))
        slots = list(base)
        if rng.random() < 0.5:
            slots.reverse()
        comp = rng.permutation(base[0].n_components)
        out = []
        for f in slots:
            scale = 2.0 ** int(rng.integers(-3, 4))
            vals = symmetry_image(f.values[:, comp], spec,
                                  np.random.default_rng(sym_seed))
            out.append(GridFunction(spec, scale * vals))
        return out

    def form_exponents(self, variant: int) -> list:
        return [p + self.EPS for p in self.PS] if variant == 1 \
            else list(self.PS)

    def _trial(self, inputs, variant):
        built = sparse.build_sparse_collection(
            inputs, list(self.PS), list(self.RS),
            eps=self.EPS if variant == 1 else None, variant=variant,
            child_budget=self.BUDGET, c0=self.C0)
        check = sparse.lower_direction_check(
            built.collection, inputs, self.form_exponents(variant),
            rs=list(self.RS))
        return {"inputs": inputs, "variant": variant, "built": built,
                "lower": check}

    def warm_up(self):
        spec = GridSpec(1, 4, True)
        tup = harness.generate_corpus("mixed", 0, 2, spec, n_slots=2,
                                      n_components=2)[1]
        for variant in (1, 2):
            self._trial(list(tup), variant)

    def trials(self) -> list:
        return [lambda inputs=inputs, v=v: self._trial(inputs, v)
                for inputs in self.inputs for v in (1, 2)]


# ---------------------------------------------------------------------------
# feasibility: greedy sparse-form optimisation and random cube families


class Feasibility:
    """Greedy sup_sparse_form over all shifted lattices, plus cube families.

    Greedy inputs are strictly positive, so every candidate cube has a
    positive weight and the greedy loop tests all of them: the number of
    verify_sparsity calls per input is fixed by the grid.  The families
    are drawn per seed from the canonical lattice (laminar) or from all
    shifted lattices, with family sizes on a fixed schedule that straddles
    the feasibility threshold.
    """

    GREEDY_GRIDS = ((1, 4, True), (1, 4, False), (1, 5, True),
                    (2, 2, True), (2, 2, False))
    FAMILY_GRIDS = ((1, 6, True, "canonical"), (1, 6, False, "all"),
                    (2, 3, True, "all"), (2, 3, False, "canonical"))
    FAMILY_SIZES = (3, 5, 7, 9, 11, 13)
    FAMILY_REPEATS = 4
    PS = (1.0, 1.0)

    calibrate = staticmethod(mixed_loop)
    CALIBRATION_S = 0.030     # median loop time on the reference box

    def __init__(self, seed: int, out_dir: Path):
        self.greedy = []
        for index, (d, k, periodic) in enumerate(self.GREEDY_GRIDS):
            spec = GridSpec(d, k, periodic)
            rng = rng_for(seed, 3, index)
            self.greedy.append([GridFunction(spec, rng.uniform(
                0.1, 1.0, size=spec.ncells)) for _ in self.PS])
        self.families = []
        for index, (d, k, periodic, shifts) in enumerate(self.FAMILY_GRIDS):
            spec = GridSpec(d, k, periodic)
            pool = [c for c in lattice.enumerate_cubes(spec, shifts=shifts)
                    if 0 < c.level < k]
            rng = rng_for(seed, 4, index)
            for _ in range(self.FAMILY_REPEATS):
                for size in self.FAMILY_SIZES:
                    pick = rng.choice(len(pool), size=size, replace=False)
                    self.families.append(
                        (spec, [pool[i] for i in sorted(pick)]))

    def _greedy(self, inputs):
        value, collection = sparse.sup_sparse_form(
            inputs, list(self.PS), mode="greedy", shifts="all")
        return {"kind": "greedy", "inputs": inputs, "value": value,
                "collection": collection}

    def _family(self, spec, cubes):
        verdict = sparse.verify_sparsity(spec, cubes)
        return {"kind": "family", "spec": spec, "cubes": cubes,
                "verdict": verdict}

    def warm_up(self):
        spec = GridSpec(1, 3, False)
        self._greedy([GridFunction(spec, np.linspace(0.5, 1.0, spec.ncells))
                      for _ in self.PS])

    def trials(self) -> list:
        out = [lambda inputs=inputs: self._greedy(inputs)
               for inputs in self.greedy]
        out += [lambda spec=spec, cubes=cubes: self._family(spec, cubes)
                for spec, cubes in self.families]
        return out


# ---------------------------------------------------------------------------
# characteristics: the weights experiment on large clipped grids


class Characteristics:
    """`weights` through harness.run_experiment on 1-d and 2-d clipped grids.

    A few calls of maximal.cube_averages over arrays of up to 65 536 cells
    dominate: the opposite use of the averaging layer to `stopping`.  The
    panel always holds the constant weight a = 0; the seed picks three more
    exponents from the repository's default panel.
    """

    GRIDS = ((1, (12, 14, 16)), (2, (6, 7, 8)))
    CHOICES = (-0.9, -0.5, 0.5, 0.9, 1.5)
    CENTERS = ("center", "edge")

    CALIBRATION_S = 0.018     # median loop time on the reference box

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir / "characteristics"
        self.calibrate = LargeArrayLoop()
        rng = rng_for(seed, 5)
        picked = sorted(float(a) for a in rng.choice(self.CHOICES, size=3,
                                                     replace=False))
        self.panel = [0.0] + picked
        self.docs = [self._doc(d, levels, self.panel)
                     for d, levels in self.GRIDS]

    def _doc(self, d, levels, panel) -> dict:
        return {
            "kind": "weights",
            "grid": {"d": d, "levels": min(levels), "periodic": False},
            "corpus": {"kind": "mixed", "size": 0, "seed": 0},
            "params": {"levels": list(levels), "panel": list(panel),
                       "centers": list(self.CENTERS)},
        }

    def warm_up(self):
        for d, levels in ((1, (4, 5, 6)), (2, (2, 3, 4))):
            _run_config(self._doc(d, levels, [0.0, 0.5]),
                        self.out_dir / "warm-up")

    def trials(self) -> list:
        return [lambda doc=doc, i=i: _run_config(doc, self.out_dir / f"d{i}")
                for i, doc in enumerate(self.docs)]


WORKLOADS = {
    "singular": Singular,
    "stopping": Stopping,
    "feasibility": Feasibility,
    "characteristics": Characteristics,
}

