"""Weight characteristics, power weights and growth classification."""

import math

import numpy as np
import pytest

from sparsedom import (
    GridFunction,
    GridSpec,
    classify_growth,
    make_power_weight,
    maximal,
    mixed_norm,
    muckenhoupt_characteristic,
    multilinear_characteristic,
    rc_characteristic,
    reverse_holder_characteristic,
)
from sparsedom.errors import DomainError, NonpositiveValueError
from sparsedom.lattice import cube_cells, enumerate_cubes, power_mean
from sparsedom.weights import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    Weight,
    WeightVector,
    multilinear_exponents,
)
from test_maximal import cube_averages_all_levels


def random_weight(spec, rng, lo=0.2, hi=5.0):
    return Weight(spec, rng.uniform(lo, hi, size=spec.ncells))


# ---------------------------------------------------------------------------
# characteristics


def test_rc_hand_value():
    spec = GridSpec(1, 1)
    w = Weight(spec, np.array([1.0, 4.0]))
    # singleton cubes give ratio 1; the root gives sqrt(8.5)/2.5
    got = rc_characteristic(w, 1.0, 2.0)
    assert got == pytest.approx(math.sqrt(8.5) / 2.5)


def test_characteristics_at_least_one():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = random_weight(spec, rng)
        assert rc_characteristic(w, 1.0, 3.0) >= 1.0 - 1e-12
        assert muckenhoupt_characteristic(w, 2.0) >= 1.0 - 1e-12
        assert muckenhoupt_characteristic(w, 1.0) >= 1.0 - 1e-12
        assert reverse_holder_characteristic(w, 2.0) >= 1.0 - 1e-12


def test_rc_window_monotone_in_exponents():
    """Widening the exponent pair can only increase the per-cube ratio sup."""
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(22)
    w = random_weight(spec, rng)
    narrow = rc_characteristic(w, 1.0, 2.0)
    wide = rc_characteristic(w, 0.5, 3.0)
    assert narrow <= wide * (1 + 1e-12)


def test_characteristic_validation():
    spec = GridSpec(1, 2)
    w = Weight(spec, np.ones(4))
    with pytest.raises(DomainError):
        rc_characteristic(w, 2.0, 1.0)
    with pytest.raises(DomainError):
        rc_characteristic(w, 0.0, 1.0)
    with pytest.raises(DomainError):
        muckenhoupt_characteristic(w, 0.5)
    with pytest.raises(DomainError):
        reverse_holder_characteristic(w, 1.0)
    with pytest.raises(NonpositiveValueError):
        Weight(spec, np.array([1.0, 0.0, 1.0, 1.0]))


def test_constant_weight_is_extremal():
    spec = GridSpec(1, 3, periodic=True)
    w = Weight(spec, np.full(8, 3.7))
    assert rc_characteristic(w, 1.0, 2.0) == pytest.approx(1.0)
    assert muckenhoupt_characteristic(w, 1.0) == pytest.approx(1.0)


def sup_over_cubes(spec, expression):
    """Reference sweep: an expression of a cube's cells, maximized by a loop
    over every cube of the canonical lattice."""
    return max(expression(cube_cells(spec, cube))
               for cube in enumerate_cubes(spec, "canonical"))


@pytest.mark.parametrize("d,levels,periodic", [(1, 5, False), (1, 5, True),
                                               (2, 3, False), (2, 3, True)])
def test_characteristics_match_cube_loop(d, levels, periodic):
    """Each characteristic is the supremum a loop over the dyadic cubes takes
    of its power-mean expression."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(27 + 10 * d + periodic)
    w, u = (Weight(spec, np.exp(rng.normal(0.0, 1.0, spec.ncells)))
            for _ in range(2))

    def ratio(beta, alpha):
        return sup_over_cubes(spec, lambda c: power_mean(w.values[c], beta)
                              / power_mean(w.values[c], alpha))

    def mwc(components, qs, ts):
        inner, outer, q = multilinear_exponents(qs, ts)
        v = WeightVector(components, qs).v

        def term(c):
            out = power_mean(v.values[c], outer) ** (1.0 / q)
            for wj, sj, qj in zip(components, inner, qs):
                out *= power_mean(1.0 / wj.values[c], sj) ** (1.0 / qj)
            return out
        return sup_over_cubes(spec, term)

    cases = [
        (rc_characteristic(w, 1.0, np.inf), ratio(np.inf, 1.0)),
        (rc_characteristic(w, -0.5, 2.0), ratio(2.0, -0.5)),
        (muckenhoupt_characteristic(w, 1.0), ratio(1.0, -np.inf)),
        (reverse_holder_characteristic(w, 2.5), ratio(2.5, 1.0)),
        (multilinear_characteristic(WeightVector([w], (2.0,)), (1.0, 1.5)),
         mwc([w], (2.0,), (1.0, 1.5))),
        (multilinear_characteristic(WeightVector([w, u], (2.0, 3.0)),
                                    (1.0, 1.5, 2.0)),
         mwc([w, u], (2.0, 3.0), (1.0, 1.5, 2.0))),
    ]
    for got, want in cases:
        assert got == pytest.approx(want, rel=1e-12)


def characteristic_bits(spec, w_values, u_values):
    """The float bits of each class on fresh weights (empty memos) of two
    arrays: every ratio class, alpha = -inf among them, and the
    multilinear characteristic with n = 1 and n = 2."""
    w, u = Weight(spec, w_values), Weight(spec, u_values)
    values = [
        rc_characteristic(w, -np.inf, 2.0),
        rc_characteristic(w, -2.0, 0.4),
        rc_characteristic(w, 0.5, np.inf),
        muckenhoupt_characteristic(w, 1.0),
        muckenhoupt_characteristic(w, 1.5),
        muckenhoupt_characteristic(w, 3.0),
        reverse_holder_characteristic(w, 2.0),
        reverse_holder_characteristic(w, 2.5),
        multilinear_characteristic(WeightVector([w], (2.0,)), (4/3, 4/3)),
        multilinear_characteristic(WeightVector([w, w], (2.0, 2.0)),
                                   (4/3, 4/3, 1.0)),
        multilinear_characteristic(WeightVector([w, u], (2.0, 3.0)),
                                   (1.0, 1.5, 2.0)),
    ]
    return [v.hex() for v in values]


@pytest.mark.parametrize("d,levels,periodic", [(1, 1, False), (1, 6, False),
                                               (1, 6, True), (2, 1, True),
                                               (2, 3, False), (2, 3, True)])
def test_characteristics_keep_their_bits_without_unit_cubes(
        monkeypatch, d, levels, periodic):
    """Every class reads the same float bits off means of the cubes of
    side >= 2 as off the all-levels oracle's means, unit cubes included:
    on a unit cube each ratio and product is 1 up to rounding, and no
    supremum falls below 1.  Random, power and constant weights."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(71 + 10 * d + levels + periodic)
    arrays = [np.exp(rng.normal(0.0, 1.0, spec.ncells)),
              rng.uniform(0.2, 5.0, spec.ncells)]
    arrays += [make_power_weight(spec, a, center).values
               for a in (-0.9, 0.0, 0.5, 1.5) for center in ("center", "edge")]
    arrays += [np.full(spec.ncells, 3.7), np.full(spec.ncells, 1e-3)]
    pairs = [(g, arrays[(i + 1) % len(arrays)]) for i, g in enumerate(arrays)]
    got = [characteristic_bits(spec, g, h) for g, h in pairs]
    monkeypatch.setattr(maximal, "cube_averages", cube_averages_all_levels)
    want = [characteristic_bits(spec, g, h) for g, h in pairs]
    assert got == want


# ---------------------------------------------------------------------------
# weight vectors and the multilinear characteristic


def test_weight_vector_product_check():
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(24)
    w1, w2 = random_weight(spec, rng), random_weight(spec, rng)
    wv = WeightVector([w1, w2], (2.0, 2.0))
    assert wv.q == pytest.approx(1.0)
    expect = np.sqrt(w1.values * w2.values)
    assert np.allclose(wv.v.values, expect, rtol=1e-13)
    with pytest.raises(DomainError):
        WeightVector([w1], (2.0, 2.0))


def test_multilinear_exponent_values():
    inner, outer, q = multilinear_exponents((2.0, 2.0), (4/3, 4/3, 1.0))
    assert inner[0] == pytest.approx(2.0)
    assert inner[1] == pytest.approx(2.0)
    assert outer == pytest.approx(1.0)
    assert q == pytest.approx(1.0)
    with pytest.raises(DomainError):
        multilinear_exponents((2.0, 2.0), (2.0, 1.0, 1.0))  # t_1 = q_1
    with pytest.raises(DomainError):
        multilinear_exponents((2.0, 2.0), (1.0, 1.0))


def test_single_weight_factorization():
    """n = 1 with q = 2 and t = (4/3, 4/3): per cube the characteristic
    expression factors exactly into a Muckenhoupt and a reverse Hoelder
    factor, so max(A, RH) <= multi^q <= A * RH for the suprema."""
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(25)
    for _ in range(5):
        w = random_weight(spec, rng)
        wv = WeightVector([w], (2.0,))
        multi = multilinear_characteristic(wv, (4/3, 4/3)) ** 2.0
        a_char = muckenhoupt_characteristic(w, 1.5)
        rh_char = reverse_holder_characteristic(w, 2.0)
        assert multi <= a_char * rh_char * (1 + 1e-12)
        assert multi >= max(a_char, rh_char) * (1 - 1e-12)


def test_weight_means_keep_the_two_latest(monkeypatch):
    """Weight.means is cube_averages, read-only; it keeps the two most
    recently used exponents and recomputes an evicted one.  The inverse
    is built once."""
    spec = GridSpec(2, 3, False)
    w = random_weight(spec, np.random.default_rng(4))
    want = maximal.cube_averages(spec, w.values, 2.0)
    original = maximal.cube_averages
    calls = []

    def counted(spec, g, p):
        calls.append(p)
        return original(spec, g, p)

    monkeypatch.setattr(maximal, "cube_averages", counted)
    first = w.means(2.0)
    assert np.array_equal(first, want) and not first.flags.writeable
    for p in (2.0, -1.0, 2.0, 0.5, 2.0, -1.0):
        w.means(p)
    assert calls == [2.0, -1.0, 0.5, -1.0]
    assert w.means(2.0) is first
    assert w.inverse() is w.inverse()


def test_weight_does_not_share_the_callers_array():
    """A weight keeps a private copy: a later write to the source array
    changes neither its values nor its memoized means, and cannot get
    round the positivity check."""
    spec = GridSpec(1, 4, False)
    source = np.linspace(1.0, 4.0, spec.ncells)
    w = Weight(spec, source)
    values = w.values.copy()
    means = w.means(1.0).copy()
    assert not np.shares_memory(w.values, source)
    source[:] = 100.0
    source[3] = -1.0
    assert np.array_equal(w.values, values)
    assert np.array_equal(w.means(1.0), means)
    assert np.array_equal(Weight(spec, w.values).means(1.0), means)


def test_single_component_weight_vector_is_its_component():
    """v = v_1^{q/q_1} = v_1: the component itself, and the bits of the
    product the general case forms."""
    spec = GridSpec(2, 3, False)
    w = random_weight(spec, np.random.default_rng(5))
    wv = WeightVector([w], (2.0,))
    assert wv.v is w
    assert np.array_equal(np.ones(spec.ncells) * w.values ** (wv.q / 2.0),
                          w.values)


def test_weighted_norm():
    """The weighted L^q(l^r) norm, taken with a Weight's values as
    weighted_quotient takes it."""
    spec = GridSpec(1, 1)
    f = GridFunction(spec, np.array([[3.0, 4.0], [0.0, 0.0]]))
    w = Weight(spec, np.array([2.0, 1.0]))
    assert mixed_norm(f, 1.0, 2.0, weight=w.values) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# power weights and the refinement protocol


def test_power_weight_profiles():
    spec = GridSpec(1, 3)
    w = make_power_weight(spec, 2.0, center="edge")
    assert np.all(w.values > 0)
    assert w.values[0] == pytest.approx(1.0)  # (0 + 1/2 + 1/2)^2
    assert np.all(np.diff(w.values) > 0)
    centered = make_power_weight(spec, 1.0, center="center")
    assert centered.values[0] == pytest.approx(centered.values[-1])
    explicit = make_power_weight(spec, 1.0, center=(4.0,))
    assert np.array_equal(explicit.values, centered.values)
    with pytest.raises(DomainError):
        make_power_weight(spec, 1.0, center=(1.0, 2.0))


@pytest.mark.parametrize("d,levels", [(1, 5), (2, 3), (3, 2)])
def test_power_weight_matches_cell_coordinates(d, levels):
    """The per-axis outer sum of squared offsets gives the bits of the
    distance computed from every cell's coordinates."""
    spec = GridSpec(d, levels)
    coords = spec.cell_coords(np.arange(spec.ncells)) + 0.5
    offset = 1.25 + np.arange(d)
    for center, point in (("center", np.full(d, spec.side / 2.0)),
                          ("edge", np.zeros(d)), (tuple(offset), offset)):
        dist = np.sqrt(np.sum((coords - point) ** 2, axis=1))
        for a in (-0.9, 0.0, 0.5, 1.5):
            assert np.array_equal(make_power_weight(spec, a, center).values,
                                  (dist + 0.5) ** a)


def test_classify_growth():
    assert classify_growth([1.0, 1.1, 1.2]) == FINITE
    assert classify_growth([1.0, 2.5, 6.0]) == INFINITE
    assert classify_growth([1.0, 1.6, 2.4]) == INCONCLUSIVE
    assert classify_growth([1.0, np.inf]) == INCONCLUSIVE
    with pytest.raises(DomainError):
        classify_growth([1.0])


@pytest.mark.parametrize("a,expected", [(-0.5, FINITE), (0.0, FINITE),
                                        (0.5, FINITE), (1.5, INFINITE),
                                        (-1.5, INFINITE)])
def test_power_weight_muckenhoupt_membership(a, expected):
    """d = 1: (dist + 1/2)^a is in A_2 exactly for a in (-1, 1)."""
    assert classify_growth([
        muckenhoupt_characteristic(
            make_power_weight(GridSpec(1, k, False), a, "center"), 2.0)
        for k in (6, 8, 10)]) == expected


@pytest.mark.parametrize("a,expected", [(0.0, FINITE), (1.5, FINITE)])
def test_power_weight_reverse_holder_membership(a, expected):
    """d = 1: (dist + 1/2)^a is in RH_2 exactly for a > -1/2."""
    assert classify_growth([
        reverse_holder_characteristic(
            make_power_weight(GridSpec(1, k, False), a, "center"), 2.0)
        for k in (6, 8, 10)]) == expected


def test_power_weight_reverse_holder_failure_grows():
    """a = -2 is outside RH_2; the characteristic grows by a factor close to
    2 per refinement step, which sits exactly on the protocol's doubling
    threshold, so the verdict may be inconclusive but never finite."""
    values = [reverse_holder_characteristic(
        make_power_weight(GridSpec(1, k, False), -2.0, "center"), 2.0)
        for k in (6, 8, 10, 12)]
    assert classify_growth(values) != FINITE
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r >= 1.9 for r in ratios)
