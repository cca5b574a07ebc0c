"""Model operators: singular sums, vector transfer, weighted quotients."""

import numpy as np
import pytest

from sparsedom import (
    GridFunction,
    GridSpec,
    OperatorFamily,
    admissible_sparse_tuple,
    discrete_bht,
    discrete_bht_reference,
    estimate_sparse_norm_lower_bound,
    lemma1_check,
    model_sparse_operator,
    theorem11_check,
    vector_form,
    verify_sparsity,
    weighted_quotient,
)
from sparsedom.errors import (
    ExponentOrderError,
    HypothesisViolationError,
    NoCertificateError,
    RequiresPeriodicError,
    SizeMismatchError,
    TruncationTooLargeError,
)
from sparsedom.lattice import enumerate_cubes
from sparsedom.operators import (
    _bht_coefficients,
    bht_corner_hypotheses,
    check_slot_sublinearity,
    theorem31_hypotheses,
    validate_weight_hypotheses,
)
from sparsedom.weights import Weight, WeightVector, make_power_weight


def random_scalars(spec, count, rng, signed=True):
    out = []
    for _ in range(count):
        vals = rng.normal(size=(spec.ncells, 1)) if signed else \
            rng.uniform(0, 2, size=(spec.ncells, 1))
        out.append(GridFunction(spec, vals))
    return out


def feasible_collection(spec, rng):
    while True:
        cubes = [c for c in enumerate_cubes(spec, shifts="canonical")
                 if rng.random() < 0.3]
        verdict = verify_sparsity(spec, cubes)
        if verdict and len(cubes) >= 2:
            return verdict.collection


# ---------------------------------------------------------------------------
# singular sum model


@pytest.mark.parametrize("variant", ["sign", "smooth"])
@pytest.mark.parametrize("levels", [3, 4])
def test_bht_matches_reference(variant, levels):
    spec = GridSpec(1, levels, periodic=True)
    rng = np.random.default_rng(30 + levels)
    op = discrete_bht(spec, spec.side // 4, variant=variant)
    for _ in range(3):
        gs = random_scalars(spec, 3, rng)
        got = op.evaluate(gs)
        want = discrete_bht_reference(gs, spec.side // 4, variant=variant)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def roll_bht_apply(f, g, truncation, variant):
    """The singular sum over np.roll shifts, in the kernel's t order."""
    coef = _bht_coefficients(truncation, variant)
    out = np.zeros(len(f))
    for t in range(1, truncation + 1):
        c = coef[t - 1]
        out += c * (np.roll(f, -t) * np.roll(g, t)
                    - np.roll(f, t) * np.roll(g, -t))
    return out


@pytest.mark.parametrize("variant", ["sign", "smooth"])
@pytest.mark.parametrize("levels", range(3, 11))
def test_bht_apply_bit_identical_to_roll_sum(variant, levels):
    spec = GridSpec(1, levels, periodic=True)
    rng = np.random.default_rng(40 + levels)
    for trunc in sorted({1, spec.side // 4, spec.side // 2 - 1}):
        op = discrete_bht(spec, trunc, variant=variant)
        f, g = random_scalars(spec, 2, rng)
        want = roll_bht_apply(f.values[:, 0], g.values[:, 0], trunc, variant)
        assert np.array_equal(op.output([f, g]), want)


def test_bht_antisymmetry():
    """Odd kernel: the form vanishes identically on the diagonal f = g."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(31)
    op = discrete_bht(spec, 7)
    for _ in range(5):
        f, h = random_scalars(spec, 2, rng)
        assert op.evaluate([f, f, h]) == pytest.approx(0.0, abs=1e-9)


def test_bht_kills_constants():
    spec = GridSpec(1, 4, periodic=True)
    op = discrete_bht(spec, 3)
    one = GridFunction.constant(spec, 1.0)
    rng = np.random.default_rng(32)
    (h,) = random_scalars(spec, 1, rng)
    assert op.evaluate([one, one, h]) == pytest.approx(0.0, abs=1e-12)


def test_bht_validation():
    with pytest.raises(RequiresPeriodicError):
        discrete_bht(GridSpec(1, 4, periodic=False), 3)
    with pytest.raises(RequiresPeriodicError):
        discrete_bht(GridSpec(2, 4, periodic=True), 3)
    spec = GridSpec(1, 4, periodic=True)
    with pytest.raises(TruncationTooLargeError):
        discrete_bht(spec, 8)  # needs T < side/2 = 8
    with pytest.raises(ValueError):
        discrete_bht(spec, 3, variant="bogus")


def test_bht_linearity_probe():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(33)
    op = discrete_bht(spec, 5)
    worst = check_slot_sublinearity(op, rng)
    assert worst <= 1e-7


def test_admissibility_grid():
    assert admissible_sparse_tuple((2.0, 2.0, 2.0))
    assert not admissible_sparse_tuple((1.0, 2.0, 2.0))  # endpoint p = 1
    assert not admissible_sparse_tuple((2.0, 2.0, np.inf))
    with pytest.raises(SizeMismatchError):
        admissible_sparse_tuple((2.0, 2.0))
    # the parametrized diagonal tuple (2/s, 2/s, 1/(2-s)+delta)
    for s in (1.0, 1.2, 1.4, 1.49):
        tup = (2.0 / s, 2.0 / s, 1.0 / (2.0 - s) + 0.01)
        assert admissible_sparse_tuple(tup)
    # at s = 3/2 the defining sum hits 2 exactly, so the strict test fails
    s = 1.5
    assert not admissible_sparse_tuple((2.0 / s, 2.0 / s, 1.0 / (2.0 - s) + 0.01))


# ---------------------------------------------------------------------------
# model sparse operators and the vector transfer


def test_model_operator_form_and_output_agree():
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(34)
    coll = feasible_collection(spec, rng)
    op = model_sparse_operator(coll, (1.0, 2.0, 1.0))
    gs = random_scalars(spec, 3, rng, signed=False)
    via_output = float(np.dot(op.output(gs[:2]), gs[2].values[:, 0]))
    assert op.evaluate(gs) == pytest.approx(via_output, rel=1e-12)


def test_model_operator_is_linear_only_at_p_one():
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(35)
    coll = feasible_collection(spec, rng)
    assert model_sparse_operator(coll, (1.0, 1.0, 1.0)).linear
    assert not model_sparse_operator(coll, (1.0, 2.0, 1.0)).linear
    op = model_sparse_operator(coll, (1.0, 1.0, 1.0))
    assert check_slot_sublinearity(op, rng) <= 1e-7
    # averages of absolute values: only subadditive when p > 1
    sub = model_sparse_operator(coll, (1.0, 2.0, 1.0))
    assert check_slot_sublinearity(sub, rng) <= 1e-7


def test_vector_form_single_member_reduces_to_scalar():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(36)
    op = discrete_bht(spec, 5)
    family = OperatorFamily([op])
    gs = random_scalars(spec, 3, rng)
    assert vector_form(family, gs) == pytest.approx(op.evaluate(gs))
    with pytest.raises(SizeMismatchError):
        vector_form(family, gs[:2])
    two = [GridFunction(spec, np.repeat(g.values, 2, axis=1)) for g in gs]
    with pytest.raises(SizeMismatchError):
        vector_form(family, two)


def test_vector_form_duplicate_member_doubles():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(37)
    op = discrete_bht(spec, 5)
    family = OperatorFamily([op, op])
    gs1 = random_scalars(spec, 3, rng)
    stacked = [GridFunction(spec, np.repeat(g.values, 2, axis=1)) for g in gs1]
    assert vector_form(family, stacked) == pytest.approx(
        2.0 * op.evaluate(gs1))


def test_lemma1_transfer_holds_broadly():
    """The factor-2 vector transfer holds for model sparse families."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(38)
    for trial in range(20):
        colls = [feasible_collection(spec, rng) for _ in range(3)]
        family = OperatorFamily([model_sparse_operator(c, (1.0, 1.0, 1.0))
                                 for c in colls])
        gs = [GridFunction(spec, rng.uniform(0, 2, size=(spec.ncells, 3)))
              for _ in range(3)]
        result = lemma1_check(family, gs, (1.0, 1.0, 1.0))
        assert result["holds"], result
        assert result["ratio"] <= 1.0 + 1e-9


def test_lemma1_requires_exact_certificates():
    spec = GridSpec(1, 4, periodic=True)
    op = discrete_bht(spec, 3)  # empirical certificate only
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(NoCertificateError):
        lemma1_check(OperatorFamily([op]), [f, f, f], (1.0, 1.0, 1.0))


def test_theorem11_requires_strict_exponent_gap():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(39)
    coll = feasible_collection(spec, rng)
    family = OperatorFamily([model_sparse_operator(coll, (1.0, 1.0, 1.0))])
    gs = random_scalars(spec, 3, rng, signed=False)
    with pytest.raises(ExponentOrderError):
        theorem11_check(family, gs, (1.0, 1.0, 1.0), (1.0, 2.0, 2.0))


def test_theorem11_records_constant():
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(40)
    coll = feasible_collection(spec, rng)
    family = OperatorFamily([model_sparse_operator(coll, (1.0, 1.0, 1.0))])
    gs = random_scalars(spec, 3, rng, signed=False)
    result = theorem11_check(family, gs, (1.0, 1.0, 1.0), (4.0, 4.0, 2.0))
    assert result["c_emp"] is not None and result["c_emp"] >= 0.0
    result["collection"].validate()


def test_sparse_norm_lower_bound_respects_factor_two():
    """|form| / integral of the maximal form never exceeds 2 * sparse norm;
    for model operators (norm <= 1) the estimate stays below 2."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(41)
    for _ in range(5):
        coll = feasible_collection(spec, rng)
        op = model_sparse_operator(coll, (1.0, 1.0, 1.0))
        corpus = [random_scalars(spec, 3, rng, signed=False)
                  for _ in range(10)]
        result = estimate_sparse_norm_lower_bound(op, (1.0, 1.0, 1.0), corpus)
        assert result["value"] <= 2.0 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# weighted machinery


def test_weighted_quotient_unweighted_consistency():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(42)
    op = discrete_bht(spec, 3)
    family = OperatorFamily([op])
    ones = Weight(spec, np.ones(spec.ncells))
    wv = WeightVector([ones, ones], (2.0, 2.0))
    fs = random_scalars(spec, 2, rng)
    q = weighted_quotient(family, fs, wv, (2.0, 2.0), (4.0, 4.0, 2.0))
    # outer exponent is the Hoelder aggregate of (2, 2), i.e. L^1
    out = op.output(fs)
    expect = float(np.sum(np.abs(out)))
    denom = 1.0
    for f in fs:
        denom *= float(np.sqrt(np.sum(f.values[:, 0] ** 2)))
    assert q == pytest.approx(expect / denom, rel=1e-12)
    zero = GridFunction.constant(spec, 0.0)
    assert weighted_quotient(family, [fs[0], zero], wv,
                             (2.0, 2.0), (4.0, 4.0, 2.0)) is None


def test_corner_hypotheses_verdicts():
    hyps = bht_corner_hypotheses(q=1.0, rh=2.0)
    assert len(hyps) == 4

    def wv_at(k):
        spec = GridSpec(1, k, periodic=True)
        w = make_power_weight(spec, 0.4, center="center")
        return WeightVector([w, w], (2.0, 2.0))

    verdicts = validate_weight_hypotheses(wv_at, hyps, levels=(6, 8, 10))
    assert all(v.verdict == "finite" for v in verdicts.values())

    def bad_at(k):
        spec = GridSpec(1, k, periodic=True)
        w = make_power_weight(spec, 1.5, center="center")
        return WeightVector([w, w], (2.0, 2.0))

    with pytest.raises(HypothesisViolationError):
        validate_weight_hypotheses(bad_at, hyps, levels=(6, 8, 10))


def test_theorem31_hypothesis_construction():
    entries = theorem31_hypotheses((2.0, 2.0), (1.0, 1.0, 1.0), 1.0)
    names = [n for n, _ in entries]
    assert names[0] == "multilinear"
    assert any("A_1" in n for n in names)
    with pytest.raises(ExponentOrderError):
        theorem31_hypotheses((1.0, 2.0), (1.0, 1.0, 1.0), 1.0)  # q_1 = p_1
    with pytest.raises(ExponentOrderError):
        theorem31_hypotheses((2.0, 2.0), (1.0, 1.0, 2.0), 3.0)  # t > p'
