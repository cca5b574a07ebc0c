"""Model operators: singular sums, vector transfer, weighted quotients."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from sparsedom import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    OperatorFamily,
    SparseCollection,
    admissible_sparse_tuple,
    discrete_bht,
    discrete_bht_reference,
    estimate_sparse_norm_lower_bound,
    lattice,
    lemma1_check,
    model_sparse_operator,
    operators,
    run_experiment,
    sparse,
    sparse_form,
    theorem11_check,
    vector_form,
    verify_sparsity,
    weighted_quotient,
)
from sparsedom.errors import DomainError, InfeasibleCollectionError
from sparsedom.lattice import DyadicCube, enumerate_cubes
from sparsedom.harness import run_weighted
from sparsedom.operators import _bht_coefficients
from sparsedom.weights import Weight, WeightVector


def random_scalars(spec, count, rng, signed=True):
    out = []
    for _ in range(count):
        vals = rng.normal(size=(spec.ncells, 1)) if signed else \
            rng.uniform(0, 2, size=(spec.ncells, 1))
        out.append(GridFunction(spec, vals))
    return out


def check_slot_sublinearity(op, rng, trials=8):
    """Randomized homogeneity and (sub)additivity probes on each slot.

    Returns the worst relative violation: homogeneity must hold exactly for
    every operator; additivity must hold for linear ones and hold as an
    inequality (subadditivity on nonnegative inputs) otherwise.
    """
    worst = 0.0
    for _ in range(trials):
        base = [GridFunction(op.spec, rng.random(op.spec.ncells))
                for _ in range(op.arity + 1)]
        v0 = op.evaluate(base)
        scale_ref = max(abs(v0), 1.0)
        for slot in range(op.arity + 1):
            c = float(rng.uniform(0.5, 2.0))
            scaled = list(base)
            scaled[slot] = GridFunction(op.spec, c * base[slot].values[:, 0])
            worst = max(worst, abs(op.evaluate(scaled) - c * v0) / scale_ref)
            other = GridFunction(op.spec, rng.random(op.spec.ncells))
            bumped = list(base)
            bumped[slot] = GridFunction(
                op.spec, base[slot].values[:, 0] + other.values[:, 0])
            split = list(base)
            split[slot] = other
            gap = op.evaluate(bumped) - (v0 + op.evaluate(split))
            if op.linear:
                worst = max(worst, abs(gap) / scale_ref)
            else:
                worst = max(worst, max(gap, 0.0) / scale_ref)
    return worst


def feasible_collection(spec, rng):
    while True:
        cubes = [c for c in enumerate_cubes(spec, shifts="canonical")
                 if rng.random() < 0.3]
        verdict = verify_sparsity(spec, cubes)
        if verdict.feasible and len(cubes) >= 2:
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


def arc_values(n, start, length, rng, holes=False):
    """Signed values on the circular arc [start, start + length), zero
    elsewhere; with holes, some cells at odd offsets strictly inside the
    arc are zero, so no gap inside the arc is longer than two cells."""
    a = np.zeros(n)
    cells = (start + np.arange(length)) % n
    a[cells] = rng.uniform(0.5, 2.0, length) * rng.choice((-1.0, 1.0), length)
    if holes:
        inner = cells[1:-1:2]
        a[inner[rng.random(len(inner)) < 0.5]] = 0.0
    return a


def disjoint_arc_pairs(n, rng):
    """(f, g) with disjoint support arcs: adjacent and with a gap, wrapping
    past cell 0, single cells, zeros inside an arc, and arcs covering the
    whole circle with s_f + s_g odd."""
    pairs = []

    def pair(sf, lf, gap, lg, holes=False):
        sg = (sf + lf + gap) % n
        pairs.append((arc_values(n, sf, lf, rng, holes),
                      arc_values(n, sg, lg, rng, holes)))

    for holes in (False, True):
        lf = int(rng.integers(1, n // 2 + 1))
        pair(int(rng.integers(n)), lf, 0, int(rng.integers(1, n - lf + 1)),
             holes)
        lf = int(rng.integers(1, n - 1))
        gap = int(rng.integers(1, n - lf))
        pair(int(rng.integers(n)), lf, gap,
             int(rng.integers(1, n - lf - gap + 1)), holes)
        pair(n - 2, n // 2, 1, n // 4, holes)            # f wraps past 0
        pair(n // 4, n // 2, 0, n // 2 - 1, holes)       # g wraps past 0
    pair(n - 1, n - 1, 0, 1)                             # whole circle
    pair(int(rng.integers(n)), 1, 0, 1)
    pair(int(rng.integers(n)), 1, int(rng.integers(1, n - 1)), 1)
    pair(int(rng.integers(n)), 1, int(rng.integers(0, n // 2)), n // 2)
    lf = 2 * int(rng.integers(0, n // 2)) + 1            # s_f + s_g odd
    pair(int(rng.integers(n)), lf, 0, n - lf)
    pair(int(rng.integers(n)), n - 3, 0, 3, holes=True)
    return pairs


def count_disjoint_path(monkeypatch):
    """Count the calls of the disjoint-support kernel from now on."""
    calls = []
    fast = operators._disjoint_bht_sum

    def counted(*args):
        calls.append(1)
        return fast(*args)

    monkeypatch.setattr(operators, "_disjoint_bht_sum", counted)
    return calls


@pytest.mark.parametrize("variant", ["sign", "smooth"])
@pytest.mark.parametrize("levels", range(3, 11))
def test_bht_disjoint_supports_bit_identical_to_roll_sum(
        monkeypatch, variant, levels):
    """Disjointly supported inputs take the interval path and get the bits
    of the np.roll sum; overlapping ones and zero inputs do not take it."""
    spec = GridSpec(1, levels, periodic=True)
    n = spec.ncells
    rng = np.random.default_rng(50 + levels)
    calls = count_disjoint_path(monkeypatch)
    zero = np.zeros(n)
    for trunc in sorted({1, spec.side // 4, spec.side // 2 - 1}):
        op = discrete_bht(spec, trunc, variant=variant)

        def check(f, g):
            got = op.output([GridFunction(spec, f), GridFunction(spec, g)])
            assert np.array_equal(got, roll_bht_apply(f, g, trunc, variant))

        for f, g in disjoint_arc_pairs(n, rng):
            before = len(calls)
            check(f, g)
            check(g, f)
            assert len(calls) == before + 2
        before = len(calls)
        check(f, zero)
        check(zero, g)
        lf = int(rng.integers(2, n // 2 + 1))
        overlap = int(rng.integers(1, lf))
        f = arc_values(n, 0, lf, rng)
        g = arc_values(n, lf - overlap,
                       int(rng.integers(overlap, n // 2 + 1)), rng)
        check(f, g)
        check(g, f)
        assert len(calls) == before


@pytest.mark.parametrize("variant", ["sign", "smooth"])
def test_bht_disjoint_supports_match_reference(variant):
    for levels in (3, 4):
        spec = GridSpec(1, levels, periodic=True)
        rng = np.random.default_rng(60 + levels)
        for trunc in sorted({1, spec.side // 4, spec.side // 2 - 1}):
            op = discrete_bht(spec, trunc, variant=variant)
            for f, g in disjoint_arc_pairs(spec.ncells, rng)[::3]:
                gs = [GridFunction(spec, f), GridFunction(spec, g),
                      GridFunction(spec, rng.normal(size=spec.ncells))]
                want = discrete_bht_reference(gs, trunc, variant=variant)
                assert op.evaluate(gs) == pytest.approx(want, rel=1e-12,
                                                        abs=1e-12)


@pytest.mark.parametrize("block_cells", [1, 16, 64])
def test_bht_disjoint_small_blocks_bit_identical(monkeypatch, block_cells):
    """Bands cut into blocks of a row or a few rows, with hulls widened to
    two cells, keep the bits of the np.roll sum and its signs of zero; the
    ufunc buffer size is restored after each apply."""
    monkeypatch.setattr(operators, "_BAND_BLOCK_CELLS", block_cells)
    bufsize = np.getbufsize()
    for levels in (3, 5, 7):
        spec = GridSpec(1, levels, periodic=True)
        rng = np.random.default_rng(70 + levels)
        for trunc in sorted({1, spec.side // 4, spec.side // 2 - 1}):
            for variant in ("sign", "smooth"):
                op = discrete_bht(spec, trunc, variant=variant)
                for f, g in disjoint_arc_pairs(spec.ncells, rng):
                    f[f == 0] = -0.0
                    got = op.output([GridFunction(spec, f),
                                     GridFunction(spec, g)])
                    want = roll_bht_apply(f, g, trunc, variant)
                    assert np.array_equal(got.view(np.int64),
                                          want.view(np.int64))
                    assert np.getbufsize() == bufsize


def test_bht_path_selection(monkeypatch, tmp_path):
    """Every apply of a small weighted run takes the disjoint-support path
    and the report keeps the dense loop's bytes; dense inputs never take it."""
    cfg = ExperimentConfig.from_dict({
        "kind": "weighted",
        "grid": {"d": 1, "levels": 6, "periodic": True},
        "corpus": {"kind": "sided-inverse", "size": 3, "seed": 5},
        "params": {"levels": [6, 8]},
    })
    applies = []
    build = operators.discrete_bht

    def counted_build(*args, **kwargs):
        op = build(*args, **kwargs)
        apply = op.apply

        def counted_apply(gs):
            applies.append(1)
            return apply(gs)

        op.apply = counted_apply
        return op

    monkeypatch.setattr(operators, "discrete_bht", counted_build)
    calls = count_disjoint_path(monkeypatch)
    run_experiment(cfg, tmp_path / "disjoint")
    assert applies and len(calls) == len(applies)
    # a full support arc for every input forces the dense loop
    monkeypatch.setattr(operators, "_support_arc", lambda a: (0, len(a)))
    run_experiment(cfg, tmp_path / "dense")
    assert len(calls) == len(applies) // 2
    names = [p.name for p in (tmp_path / "disjoint").iterdir()]
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "disjoint", tmp_path / "dense", names, shallow=False)
    assert not mismatch and not errors
    monkeypatch.undo()
    calls = count_disjoint_path(monkeypatch)
    rng = np.random.default_rng(61)
    for levels in (3, 6, 9):
        spec = GridSpec(1, levels, periodic=True)
        op = discrete_bht(spec, spec.side // 4)
        for signed in (True, False):
            op.output(random_scalars(spec, 2, rng, signed=signed))
    assert not calls


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
    with pytest.raises(DomainError):
        discrete_bht(GridSpec(1, 4, periodic=False), 3)
    with pytest.raises(DomainError):
        discrete_bht(GridSpec(2, 4, periodic=True), 3)
    spec = GridSpec(1, 4, periodic=True)
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError):
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
    """The form agrees with its materialized output, and has the bits of
    sparse_form over the operator's collection (signed inputs too)."""
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(34)
    coll = feasible_collection(spec, rng)
    op = model_sparse_operator(coll, (1.0, 2.0, 1.0))
    gs = random_scalars(spec, 3, rng, signed=False)
    via_output = float(np.dot(op.output(gs[:2]), gs[2].values[:, 0]))
    assert op.evaluate(gs) == pytest.approx(via_output, rel=1e-12)
    for inputs in (gs, random_scalars(spec, 3, rng)):
        assert op.evaluate(inputs) == sparse_form(spec, coll.cubes, inputs,
                                                  (1.0, 2.0, 1.0))


def test_model_operator_builds_each_cube_once(monkeypatch):
    """The operator validates its collection on the cell sets the
    collection carries, so each cube's cells are built once, by
    verify_sparsity; an invalid collection still raises."""
    spec = GridSpec(1, 5)
    cubes = [DyadicCube(0, 5, (0,)), DyadicCube(0, 1, (0,)),
             DyadicCube(0, 1, (4,)), DyadicCube(0, 2, (8,))]
    calls = []

    def cube_cells(spec, cube):
        calls.append(cube)
        return lattice.cube_cells(spec, cube)

    monkeypatch.setattr(sparse, "cube_cells", cube_cells)
    coll = verify_sparsity(spec, cubes).collection
    model_sparse_operator(coll, (1.0, 1.0, 1.0))
    assert calls == cubes
    short = SparseCollection(spec, cubes[1:2], [np.array([0])])
    with pytest.raises(InfeasibleCollectionError):
        model_sparse_operator(short, (1.0, 1.0, 1.0))


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
    with pytest.raises(DomainError):
        vector_form(family, gs[:2])
    two = [GridFunction(spec, np.repeat(g.values, 2, axis=1)) for g in gs]
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError):
        lemma1_check(OperatorFamily([op]), [f, f, f], (1.0, 1.0, 1.0))


def test_theorem11_requires_strict_exponent_gap():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(39)
    coll = feasible_collection(spec, rng)
    family = OperatorFamily([model_sparse_operator(coll, (1.0, 1.0, 1.0))])
    gs = random_scalars(spec, 3, rng, signed=False)
    with pytest.raises(DomainError):
        theorem11_check(family, gs, (1.0, 1.0, 1.0), (1.0, 2.0, 2.0))


def test_theorem11_records_constant():
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(40)
    coll = feasible_collection(spec, rng)
    family = OperatorFamily([model_sparse_operator(coll, (1.0, 1.0, 1.0))])
    gs = random_scalars(spec, 3, rng, signed=False)
    result = theorem11_check(family, gs, (1.0, 1.0, 1.0), (4.0, 4.0, 2.0))
    assert result["c_emp"] is not None and result["c_emp"] >= 0.0
    collection = result["construction"].collection
    collection.validate()
    assert result["sparse_form"] == sparse_form(
        spec, collection.cubes, gs, (1.0, 1.0, 1.0),
        rs=(4.0, 4.0, 2.0))


def test_theorem11_validates_on_the_constructor_cell_sets(monkeypatch,
                                                         tmp_path):
    """On the shipped theorem11 config every collection carries the cells
    its constructor built: validate(), in theorem11_check and in
    model_sparse_operator, builds none, and each check builds one
    cube_cells per cube of its construction."""
    calls, validated, checked = [0], [], []
    validate = sparse.SparseCollection.validate
    check = operators.theorem11_check

    def cube_cells(spec, cube):
        calls[0] += 1
        return lattice.cube_cells(spec, cube)

    def counted_validate(self):
        before = calls[0]
        validate(self)
        validated.append(calls[0] - before)

    def counted_check(*args):
        before = calls[0]
        result = check(*args)
        checked.append((calls[0] - before,
                        len(result["construction"].collection)))
        return result

    monkeypatch.setattr(sparse, "cube_cells", cube_cells)
    monkeypatch.setattr(sparse.SparseCollection, "validate", counted_validate)
    monkeypatch.setattr(operators, "theorem11_check", counted_check)
    config = Path(__file__).resolve().parents[1] / "configs" / "theorem11.json"
    run_experiment(ExperimentConfig.from_file(config), tmp_path)
    assert len(validated) > len(checked) > 0 and set(validated) == {0}
    assert [c for c, _ in checked] == [n for _, n in checked]
    assert sum(n for _, n in checked) == 90


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
    q = weighted_quotient(family, fs, wv, (4.0, 4.0, 2.0))
    # outer exponent is the Hoelder aggregate of (2, 2), i.e. L^1
    out = op.output(fs)
    expect = float(np.sum(np.abs(out)))
    denom = 1.0
    for f in fs:
        denom *= float(np.sqrt(np.sum(f.values[:, 0] ** 2)))
    assert q == pytest.approx(expect / denom, rel=1e-12)
    zero = GridFunction.constant(spec, 0.0)
    assert weighted_quotient(family, [fs[0], zero], wv,
                             (4.0, 4.0, 2.0)) is None


def test_weighted_panel_corner_verdicts():
    """An in-class weight has every corner hypothesis finite; an out-of-class
    one names the first hypothesis classified infinite as violated."""
    cfg = ExperimentConfig.from_dict({
        "kind": "weighted",
        "grid": {"d": 1, "levels": 6, "periodic": True},
        "corpus": {"kind": "sided-inverse", "size": 1, "seed": 5},
        "params": {"levels": [6, 8, 10], "panel": [0.4, 1.5]},
    })
    header, rows = run_weighted(cfg).tables["weighted_panel"]
    panel = {row[0]: dict(zip(header, row)) for row in rows}
    assert panel["a=0.4"]["classification"] == "in-class"
    assert panel["a=0.4"]["violated"] is None
    assert panel["a=1.5"]["violated"] == "v_1 in A_1.5"
