"""Acceptance gate: ten structural criteria, one printed verdict line each.

Each criterion runs configs (`configs/*.json`, `configs/acceptance/*.json`)
and needs every run to exit 0 with its ASSERTED rows passing.  Each test
prints `criterion NN <name>: PASS|FAIL` before asserting, so a full run
(`pytest -s tests/test_acceptance.py`) yields one line per criterion.
"""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from sparsedom import ExperimentConfig, run_experiment
from test_golden import GOLDEN, digest

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ACCEPTANCE = CONFIG_DIR / "acceptance"


def verdict(number, name, ok):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Run one config; return its exit code, report rows by id and output
    directory."""
    def run_config(path):
        out = tmp_path_factory.mktemp(path.stem)
        code = run_experiment(ExperimentConfig.from_file(path), out)
        report = json.loads((out / "report.json").read_text())
        return code, {row["id"]: row for row in report["rows"]}, out
    return run_config


def passed(code, rows, *row_ids):
    """The run exited 0 and each of row_ids is an ASSERTED row that passed."""
    return code == 0 and all(rows.get(i, {}).get("pass") is True
                             for i in row_ids)


def table(out, name):
    with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# the 500-trial construction panel (criteria 1-3): one build-sparse config
# per grid, each running both stopping-time variants on 100 corpus items

PANEL = sorted(ACCEPTANCE.glob("construction_*.json"))


@pytest.fixture(scope="module")
def construction_panel(run):
    start = time.monotonic()
    runs = [run(path) for path in PANEL]
    return runs, time.monotonic() - start


def panel_passes(runs, row_id):
    return len(runs) == 5 and all(passed(code, rows, row_id)
                                  for code, rows, _ in runs)


def test_criterion_01_sparsity_exactness(construction_panel):
    runs, elapsed = construction_panel
    ok = panel_passes(runs, "sparsity-exact") and elapsed < 300.0 and all(
        rows["sparsity-exact"]["trials"] == 100 for _, rows, _ in runs)
    verdict(1, "sparsity exactness (500 trials, both variants)", ok)


def test_criterion_02_child_measure_budget(construction_panel):
    runs, _ = construction_panel
    # child_measure <= 2^-16 * size is exact in floating point
    verdict(2, "stopping-child measure budget 2^-16 (exact)",
            panel_passes(runs, "child-measure-budget"))


def test_criterion_03_factor2_lower_direction(construction_panel):
    runs, _ = construction_panel
    verdict(3, "factor-2 lower direction on every constructed collection",
            panel_passes(runs, "factor2-lower-direction"))


def test_criterion_04_holder_sandwich(run):
    code, rows, _ = run(ACCEPTANCE / "sandwich.json")
    verdict(4, "pointwise Hoelder domination and partition sandwich",
            passed(code, rows, "holder-sandwich"))


def test_criterion_05_domination_stability(run):
    ok = True
    c_by_k = {}
    for k in (6, 8, 10):
        code, rows, out = run(ACCEPTANCE / f"stability_k{k}.json")
        ok &= passed(code, rows)
        c_by_k[k] = max((float(row["theta_emp"])
                         for row in table(out, "build_sparse_trials")
                         if row["variant"] == "2" and row["theta_emp"]),
                        default=0.0)
    values = list(c_by_k.values())
    ok &= all(v > 0 and math.isfinite(v) for v in values) and \
        max(values) <= 2.0 * min(values)
    print(f"  recorded C_emp by K: "
          f"{ {k: round(v, 3) for k, v in c_by_k.items()} }")
    verdict(5, "construction constant stable within 2x across K", ok)


def test_criterion_06_bruteforce_equivalence(run):
    start = time.monotonic()
    ok = True
    c_values = []
    for k in (2, 3, 4):
        code, rows, out = run(ACCEPTANCE / f"equivalence_k{k}.json")
        ok &= passed(code, rows, "supform-le-2-integral",
                     "greedy-le-optimum")
        # an empty c_emp marks a vanishing optimum
        c_values += [float(row["c_emp"] or "nan")
                     for row in table(out, "equivalence_trials")]
    elapsed = time.monotonic() - start
    ok &= len(c_values) == 50 and all(map(math.isfinite, c_values))
    ok &= elapsed < 120.0
    print(f"  recorded C_emp range: [{min(c_values):.3f}, "
          f"{max(c_values):.3f}] in {elapsed:.1f}s")
    verdict(6, "exact optimizer vs maximal integral, factor 2", ok)


def test_criterion_07_family_size_transfer(run):
    code, rows, _ = run(CONFIG_DIR / "theorem11.json")
    c_emp = rows["c-emp-stable-in-family-size"]["c_emp"]
    print(f"  recorded C_emp by family size: "
          f"{ {int(n): c for n, c in c_emp.items()} }")
    verdict(7, "vector domination constant stable across family sizes",
            passed(code, rows, "c-emp-stable-in-family-size"))


def test_criterion_08_weight_finiteness_agreement(run):
    code, rows, _ = run(CONFIG_DIR / "weights.json")
    print(f"  inconclusive entries (reported, not failed): "
          f"{rows['inconclusive-entries']['entries']}")
    verdict(8, "factorization and diagonal identity agree on the panel",
            passed(code, rows, "finiteness-agreement"))


def test_criterion_09_singular_model(run):
    code, rows, _ = run(ACCEPTANCE / "singular.json")
    ok = passed(code, rows, "matches-triple-loop", "tuple-2-2-2-admissible",
                "tuple-1-1-1-rejected")
    bounds = {k: v for k, v, _ in
              rows["sparse-norm-lower-bound"]["by_level"]}
    ok &= all(map(math.isfinite, bounds.values()))
    print(f"  recorded sparse-norm lower bounds by K: "
          f"{ {k: round(v, 4) for k, v in bounds.items()} }")
    verdict(9, "singular model reference match and admissibility pins", ok)


def test_criterion_10_weighted_contrast(run):
    code, rows, out = run(CONFIG_DIR / "weighted.json")
    sups = {}
    for row in table(out, "weighted_quotients"):
        sups.setdefault(row["weight"], []).append(
            round(float(row["sup_quotient"]), 3))
    print(f"  sup quotients by weight and K: {sups}")
    verdict(10, "weighted quotients: stable in class, growing out of class",
            passed(code, rows, "good-weights-stable", "bad-weight-grows"))
    # tests/test_golden.py skips this slow part; its bits are pinned here
    assert digest.run_digest(code, out) == GOLDEN["config/weighted"], (
        "config/weighted moved from tests/golden.txt")
