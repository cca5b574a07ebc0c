"""Each output check rejects a planted wrong value.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_checks.py

Every test first confirms that the real outputs pass, then plants one
wrong value (a quotient off by 1e-6, a major set shrunk to half its cube,
a certificate that certifies nothing, ...) and expects a rejection.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from sparsedom import operators  # noqa: E402

SEED = 3


def _round(workload, keep=None):
    trials = workload.trials()
    if keep is not None:
        trials = [trials[i] for i in keep]
    return [trial() for trial in trials]


@pytest.fixture(scope="module")
def singular(tmp_path_factory):
    w = workloads.Singular(SEED, tmp_path_factory.mktemp("out"))
    return w, _round(w)


@pytest.fixture(scope="module")
def stopping(tmp_path_factory):
    w = workloads.Stopping(SEED, tmp_path_factory.mktemp("out"))
    return w, _round(w, keep=[0, 1])          # 1-d K = 8, both variants


@pytest.fixture(scope="module")
def feasibility(tmp_path_factory):
    w = workloads.Feasibility(SEED, tmp_path_factory.mktemp("out"))
    n_greedy = len(w.GREEDY_GRIDS)
    return w, _round(w, keep=[0] + list(range(n_greedy, n_greedy + 12)))


@pytest.fixture(scope="module")
def characteristics(tmp_path_factory):
    w = workloads.Characteristics(SEED, tmp_path_factory.mktemp("out"))
    return w, _round(w)


def _rejects(name, workload, outputs, needle=""):
    problems = checks.CHECKS[name](workload, outputs)
    assert problems, "planted error was not detected"
    assert any(needle in p for p in problems), problems


def test_real_outputs_pass(singular, stopping, feasibility, characteristics):
    for name, (w, outs) in zip(checks.CHECKS, (singular, stopping,
                                               feasibility, characteristics)):
        assert checks.CHECKS[name](w, outs) == [], name


def test_singular_rejects_quotient_off_by_1e6(singular):
    w, outs = singular
    bad = copy.deepcopy(outs)
    row = bad[0]["tables"]["weighted_quotients"][3]
    row[2] = repr(float(row[2]) * (1.0 + 1e-6))
    _rejects("singular", w, bad, "sup quotient")


def test_singular_rejects_failed_verdict(singular):
    w, outs = singular
    bad = copy.deepcopy(outs)
    for row in bad[0]["report"]["rows"]:
        if row["id"] == "bad-weight-grows":
            row["pass"] = False
    _rejects("singular", w, bad, "bad-weight-grows")


def test_singular_rejects_exit_code_against_verdicts(singular):
    w, outs = singular
    bad = copy.deepcopy(outs)
    bad[0]["exit_code"] = 1 - bad[0]["exit_code"]
    _rejects("singular", w, bad, "exit code")


def _perturbed_bht(monkeypatch, perturb):
    original = operators.discrete_bht

    def planted(spec, truncation, variant="sign"):
        op = original(spec, truncation, variant)
        apply = op.apply
        op.apply = lambda gs: perturb(apply(gs), gs)
        return op

    monkeypatch.setattr(operators, "discrete_bht", planted)


def test_singular_rejects_kernel_cell_off_by_1e6(singular, monkeypatch):
    w, _ = singular

    def one_cell(out, gs):
        out = out.copy()
        out[7] += 1e-6 * np.max(np.abs(out))
        return out

    _perturbed_bht(monkeypatch, one_cell)
    assert any("direct sum" in p for p in checks.singular_kernel_problems(w))


def test_singular_rejects_symmetric_part(singular, monkeypatch):
    w, _ = singular

    def symmetric(out, gs):
        both = gs[0].values[:, 0] + gs[1].values[:, 0]   # same for (g, f)
        return out + 1e-6 * np.max(np.abs(out)) * both / np.max(np.abs(both))

    _perturbed_bht(monkeypatch, symmetric)
    assert any("antisymmetric" in p
               for p in checks.singular_kernel_problems(w))


def test_stopping_rejects_major_set_shrunk_to_half(stopping):
    w, outs = stopping
    bad = copy.deepcopy(outs)
    coll = bad[1]["built"].collection
    i = max(range(len(coll.cubes)), key=lambda j: coll.cubes[j].level)
    side = len(checks.cube_cell_set(coll.spec.d, coll.spec.levels, True,
                                    coll.cubes[i].level, coll.cubes[i].corner))
    coll.major_sets[i] = coll.major_sets[i][: side // 2]
    _rejects("stopping", w, bad, "not more than half")


def test_stopping_rejects_overlapping_major_sets(stopping):
    w, outs = stopping
    bad = copy.deepcopy(outs)
    coll = bad[1]["built"].collection
    assert len(coll.cubes) > 1
    coll.major_sets[1] = np.union1d(coll.major_sets[1],
                                    coll.major_sets[0][:1])
    _rejects("stopping", w, bad, "")


def test_stopping_rejects_integral_off_by_1e6(stopping):
    w, outs = stopping
    bad = copy.deepcopy(outs)
    bad[0]["lower"]["integral"] *= 1.0 + 1e-6
    _rejects("stopping", w, bad, "cube loop")


def test_stopping_rejects_property_above_bound(stopping):
    w, outs = stopping
    bad = copy.deepcopy(outs)
    bad[0]["built"].nodes[0].off_exceptional_ratio = 1.0 + 1e-6
    _rejects("stopping", w, bad, "property 1")


def test_feasibility_rejects_greedy_value_off_by_1e6(feasibility):
    w, outs = feasibility
    bad = copy.deepcopy(outs)
    bad[0]["value"] *= 1.0 + 1e-6
    _rejects("feasibility", w, bad, "cubes' weights")


def test_feasibility_rejects_empty_certificate(feasibility):
    w, outs = feasibility
    bad = copy.deepcopy(outs)
    infeasible = [o for o in bad if o["kind"] == "family"
                  and not o["verdict"].feasible]
    assert infeasible
    infeasible[0]["verdict"].violating = [0]     # one cube is always feasible
    _rejects("feasibility", w, bad, "violating subfamily")


def test_feasibility_rejects_shrunk_assignment(feasibility):
    w, outs = feasibility
    bad = copy.deepcopy(outs)
    feasible = [o for o in bad if o["kind"] == "family"
                and o["verdict"].feasible]
    assert feasible
    coll = feasible[0]["verdict"].collection
    coll.major_sets[0] = coll.major_sets[0][: len(coll.major_sets[0]) // 2]
    _rejects("feasibility", w, bad, "not more than half")


def test_characteristics_rejects_value_off_by_1e6(characteristics):
    w, outs = characteristics
    bad = copy.deepcopy(outs)
    row = next(r for r in bad[0]["tables"]["characteristics"][1:]
               if not r[0].startswith("a=0@"))
    row[4] = repr(float(row[4]) * (1.0 + 1e-6))
    _rejects("characteristics", w, bad, "cube loop")


def test_characteristics_rejects_constant_weight_not_one(characteristics):
    w, outs = characteristics
    bad = copy.deepcopy(outs)
    row = next(r for r in bad[1]["tables"]["characteristics"][1:]
               if r[0].startswith("a=0@"))
    row[6] = repr(1.0 + 1e-9)
    _rejects("characteristics", w, bad, "constant weight")


def test_characteristics_rejects_value_below_one(characteristics):
    w, outs = characteristics
    bad = copy.deepcopy(outs)
    row = bad[0]["tables"]["characteristics"][1]
    row[-1] = repr(0.999)
    _rejects("characteristics", w, bad, "below 1")


def test_round_digest_sees_a_changed_output(stopping):
    _, outs = stopping
    bad = copy.deepcopy(outs)
    bad[0]["built"].collection.major_sets[0] = \
        bad[0]["built"].collection.major_sets[0][1:]
    assert checks.digest("stopping", bad) != checks.digest("stopping", outs)
