"""Acceptance gate: ten structural criteria, one printed verdict line each.

Each test prints `criterion NN <name>: PASS|FAIL` before asserting, so a full
run (`pytest -s tests/test_acceptance.py`) yields one line per criterion.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from sparsedom import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    OperatorFamily,
    admissible_sparse_tuple,
    build_sparse_collection,
    discrete_bht,
    discrete_bht_reference,
    estimate_sparse_norm_lower_bound,
    generate_corpus,
    holder_dominator,
    integral_of_form,
    lower_direction_check,
    partitioned_maximal,
    sparse_form,
    sup_sparse_form,
    vector_maximal,
    verify_sparsity,
)
from sparsedom.harness import run_theorem11, run_weighted, run_weights
from sparsedom.lattice import enumerate_cubes, holder_aggregate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

REL_TOL = 1e-9


def verdict(number, name, ok):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def report_row(rep, row_id):
    for row in rep.rows:
        if row["id"] == row_id:
            return row
    raise KeyError(row_id)


# ---------------------------------------------------------------------------
# shared 500-trial construction corpus (criteria 1-3)

GRID_PANEL = ((1, 6), (1, 8), (1, 10), (2, 4), (2, 5))
TRIALS_PER_GRID = 100
PS, RS, EPS = (1.0, 1.0), (2.0, 2.0), 0.5


@pytest.fixture(scope="module")
def construction_corpus():
    start = time.monotonic()
    results = []
    for gi, (d, k) in enumerate(GRID_PANEL):
        spec = GridSpec(d, k, periodic=True)
        corpus = generate_corpus("mixed", 1000 + gi, TRIALS_PER_GRID, spec,
                                 n_slots=2, n_components=2)
        for tup in corpus:
            for variant, eps in ((1, EPS), (2, None)):
                rep = build_sparse_collection(list(tup), PS, RS, eps=eps,
                                              variant=variant)
                results.append((rep, tup, variant))
    return results, time.monotonic() - start


def test_criterion_01_sparsity_exactness(construction_corpus):
    results, elapsed = construction_corpus
    ok = len(results) == 2 * TRIALS_PER_GRID * len(GRID_PANEL)
    for rep, _, _ in results:
        ok &= rep.collection.is_valid()
    ok &= elapsed < 300.0
    verdict(1, "sparsity exactness (500 trials, both variants)", ok)


def test_criterion_02_child_measure_budget(construction_corpus):
    results, _ = construction_corpus
    ok = True
    for rep, _, _ in results:
        for node in rep.nodes:
            # exact integer comparison of sum |L| * 2^16 <= |Q|
            ok &= node.child_measure * 2 ** 16 <= node.size
    verdict(2, "stopping-child measure budget 2^-16 (exact)", ok)


def test_criterion_03_factor2_lower_direction(construction_corpus):
    results, _ = construction_corpus
    ok = True
    # every constructed collection
    for rep, tup, variant in results:
        exps = [p + EPS for p in PS] if variant == 1 else list(PS)
        check = lower_direction_check(rep.collection, list(tup), exps, rs=RS)
        ok &= check["holds"]
    # plus independently enumerated feasible collections
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(3003)
    checked = 0
    while checked < 25:
        fs = [GridFunction(spec, rng.uniform(0, 3, size=(spec.ncells, 1)))
              for _ in range(2)]
        cubes = [c for c in enumerate_cubes(spec, shifts="canonical")
                 if rng.random() < 0.4]
        v = verify_sparsity(spec, cubes)
        if not v:
            continue
        ok &= lower_direction_check(v.collection, fs, (1.0, 2.0))["holds"]
        checked += 1
    verdict(3, "factor-2 lower direction on every feasible collection", ok)


def test_criterion_04_holder_sandwich():
    spec = GridSpec(1, 6, periodic=True)
    ps, rs = (1.0, 1.5, 2.0), (4.0, 4.0, 2.0)
    r_all = holder_aggregate(rs)
    corpus = generate_corpus("mixed", 44, 200, spec, n_slots=3,
                             n_components=3)
    ok = True
    for tup in corpus:
        fs = list(tup)
        joint = vector_maximal(fs, ps, r=r_all).values[:, 0]
        middle = partitioned_maximal(fs, ps, rs, [[0, 1], [2]]).values[:, 0]
        product = holder_dominator(fs, ps, rs).values[:, 0]
        ok &= bool(np.all(joint <= middle * (1 + REL_TOL) + 1e-15))
        ok &= bool(np.all(middle <= product * (1 + REL_TOL) + 1e-15))
    verdict(4, "pointwise Hoelder domination and partition sandwich", ok)


def test_criterion_05_domination_stability():
    c_by_k = {}
    for k in (6, 8, 10):
        spec = GridSpec(1, k, periodic=True)
        corpus = generate_corpus("mixed", 55, 30, spec, n_slots=2,
                                 n_components=2)
        best = 0.0
        for tup in corpus:
            rep = build_sparse_collection(list(tup), PS, RS, variant=2)
            if rep.rhs > 0:
                best = max(best, rep.lhs / rep.rhs)
        c_by_k[k] = best
    values = list(c_by_k.values())
    ok = all(v > 0 and np.isfinite(v) for v in values) and \
        max(values) <= 2.0 * min(values)
    print(f"  recorded C_emp by K: "
          f"{ {k: round(v, 3) for k, v in c_by_k.items()} }")
    verdict(5, "construction constant stable within 2x across K", ok)


def test_criterion_06_bruteforce_equivalence():
    start = time.monotonic()
    ok = True
    c_values = []
    seeds = iter(range(600, 800))
    for i in range(50):
        k = (2, 3, 4)[i % 3]
        spec = GridSpec(1, k, periodic=False)
        rng = np.random.default_rng(next(seeds))
        fs = [GridFunction(spec, rng.uniform(0, 3, size=(spec.ncells, 1)))
              for _ in range(2)]
        value, coll = sup_sparse_form(fs, PS, mode="bruteforce")
        coll.validate()
        integral = integral_of_form(fs, PS, shifts="canonical")
        ok &= value <= 2.0 * integral * (1 + REL_TOL)
        ok &= value > 0 and np.isfinite(integral / value)
        c_values.append(integral / value)
        if k == 2:
            # cross-check the tree optimum against the exhaustive power-set
            # enumeration of sparse subfamilies
            cubes = list(enumerate_cubes(spec, shifts="canonical"))
            best = 0.0
            for m in range(1, len(cubes) + 1):
                for sub in itertools.combinations(cubes, m):
                    if verify_sparsity(spec, list(sub)):
                        best = max(best, sparse_form(spec, list(sub), fs, PS))
            ok &= abs(best - value) <= REL_TOL * max(1.0, best)
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    print(f"  recorded C_emp range: [{min(c_values):.3f}, "
          f"{max(c_values):.3f}] in {elapsed:.1f}s")
    verdict(6, "exact optimizer vs power-set oracle, factor 2", ok)


def test_criterion_07_family_size_transfer():
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "theorem11.json")
    rep = run_theorem11(cfg)
    row = report_row(rep, "c-emp-stable-in-family-size")
    print(f"  recorded C_emp by family size: {row.get('c_emp')}")
    verdict(7, "vector domination constant stable across family sizes",
            bool(row["pass"]) and not rep.failures)


def test_criterion_08_weight_finiteness_agreement():
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "weights.json")
    rep = run_weights(cfg)
    row = report_row(rep, "finiteness-agreement")
    inconclusive = report_row(rep, "inconclusive-entries")
    print(f"  inconclusive entries (reported, not failed): "
          f"{inconclusive.get('entries')}")
    verdict(8, "factorization and diagonal identity agree on the panel",
            bool(row["pass"]) and not rep.failures)


def test_criterion_09_singular_model():
    ok = True
    # reference agreement on every instance up to 64 cells
    for k in (3, 4, 5, 6):
        spec = GridSpec(1, k, periodic=True)
        rng = np.random.default_rng(900 + k)
        t = spec.side // 4
        for variant in ("sign", "smooth"):
            op = discrete_bht(spec, t, variant=variant)
            for _ in range(3):
                gs = [GridFunction(spec, rng.normal(size=(spec.ncells, 1)))
                      for _ in range(3)]
                got = op.evaluate(gs)
                want = discrete_bht_reference(gs, t, variant=variant)
                ok &= abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # admissibility range pins
    ok &= admissible_sparse_tuple((2.0, 2.0, 2.0))
    ok &= not admissible_sparse_tuple((1.0, 1.0, 1.0))
    # empirical sparse-norm lower bound, recorded across refinements
    bounds = {}
    for k in (6, 8, 10):
        spec = GridSpec(1, k, periodic=True)
        op = discrete_bht(spec, spec.side // 4)
        corpus = generate_corpus("mixed", 99, 40, spec, n_slots=3)
        result = estimate_sparse_norm_lower_bound(op, (2.0, 2.0, 2.0), corpus)
        bounds[k] = result["value"]
    ok &= all(np.isfinite(v) for v in bounds.values())
    print(f"  recorded sparse-norm lower bounds by K: "
          f"{ {k: round(v, 4) for k, v in bounds.items()} }")
    verdict(9, "singular model reference match and admissibility pins", ok)


def test_criterion_10_weighted_contrast():
    cfg = ExperimentConfig.from_file(CONFIG_DIR / "weighted.json")
    rep = run_weighted(cfg)
    good = report_row(rep, "good-weights-stable")
    bad = report_row(rep, "bad-weight-grows")
    sups = {}
    for row in rep.tables["weighted_quotients"][1]:
        sups.setdefault(row[0], []).append(round(row[2], 3))
    print(f"  sup quotients by weight and K: {sups}")
    verdict(10, "weighted quotients: stable in class, growing out of class",
            bool(good["pass"]) and bool(bad["pass"]) and not rep.failures)
