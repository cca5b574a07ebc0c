"""Weight characteristics, power weights and the refinement protocol."""

import math

import numpy as np
import pytest

from sparsedom import (
    GridFunction,
    GridSpec,
    classify_growth,
    make_power_weight,
    muckenhoupt_characteristic,
    multilinear_characteristic,
    p_form,
    rc_characteristic,
    refinement_protocol,
    reverse_holder_characteristic,
    weighted_norm,
)
from sparsedom.errors import (
    ExponentDomainError,
    ExponentOrderError,
    NonpositiveValueError,
    SpecMismatchError,
)
from sparsedom.maximal import vector_maximal
from sparsedom.weights import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    Weight,
    WeightVector,
    multilinear_exponents,
    power_weight_protocol,
)


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


def test_more_cubes_never_decrease_characteristic():
    spec = GridSpec(2, 3, periodic=True)
    rng = np.random.default_rng(23)
    for _ in range(3):
        w = random_weight(spec, rng)
        canon = rc_characteristic(w, 1.0, 2.0, shifts="canonical")
        full = rc_characteristic(w, 1.0, 2.0, shifts="all")
        assert canon <= full * (1 + 1e-12)


def test_characteristic_validation():
    spec = GridSpec(1, 2)
    w = Weight(spec, np.ones(4))
    with pytest.raises(ExponentOrderError):
        rc_characteristic(w, 2.0, 1.0)
    with pytest.raises(ExponentDomainError):
        rc_characteristic(w, 0.0, 1.0)
    with pytest.raises(ExponentDomainError):
        muckenhoupt_characteristic(w, 0.5)
    with pytest.raises(ExponentDomainError):
        reverse_holder_characteristic(w, 1.0)
    with pytest.raises(NonpositiveValueError):
        Weight(spec, np.array([1.0, 0.0, 1.0, 1.0]))


def test_constant_weight_is_extremal():
    spec = GridSpec(1, 3, periodic=True)
    w = Weight(spec, np.full(8, 3.7))
    assert rc_characteristic(w, 1.0, 2.0) == pytest.approx(1.0)
    assert muckenhoupt_characteristic(w, 1.0) == pytest.approx(1.0)


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
    # an explicit product is verified
    WeightVector([w1, w2], (2.0, 2.0), v=Weight(spec, expect))
    with pytest.raises(SpecMismatchError):
        WeightVector([w1, w2], (2.0, 2.0), v=Weight(spec, 1.01 * expect))
    with pytest.raises(SpecMismatchError):
        WeightVector([w1], (2.0, 2.0))


def test_multilinear_exponent_values():
    inner, outer, q = multilinear_exponents((2.0, 2.0), (4/3, 4/3, 1.0))
    assert inner[0] == pytest.approx(2.0)
    assert inner[1] == pytest.approx(2.0)
    assert outer == pytest.approx(1.0)
    assert q == pytest.approx(1.0)
    with pytest.raises(ExponentDomainError):
        multilinear_exponents((2.0, 2.0), (2.0, 1.0, 1.0))  # t_1 = q_1
    with pytest.raises(SpecMismatchError):
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


def test_weighted_norm():
    spec = GridSpec(1, 1)
    f = GridFunction(spec, np.array([[3.0, 4.0], [0.0, 0.0]]))
    w = Weight(spec, np.array([2.0, 1.0]))
    assert weighted_norm(f, 1.0, w, r=2.0) == pytest.approx(10.0)
    with pytest.raises(SpecMismatchError):
        weighted_norm(f, 1.0, w)  # vector input without r


def test_p_form_matches_direct_product():
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(26)
    gs = [GridFunction(spec, rng.uniform(0, 2, size=(8, 1)))
          for _ in range(3)]
    ps = (1.0, 2.0, 1.0)
    direct = vector_maximal(gs[:2], ps[:2]).values[:, 0] * \
        vector_maximal([gs[2]], [ps[2]]).values[:, 0]
    assert p_form(gs, ps) == pytest.approx(float(direct.sum()))
    left = p_form(gs, ps, region=np.arange(4))
    right = p_form(gs, ps, region=np.arange(4, 8))
    assert left + right == pytest.approx(p_form(gs, ps))


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
    with pytest.raises(SpecMismatchError):
        make_power_weight(spec, 1.0, center=(1.0, 2.0))


def test_classify_growth():
    assert classify_growth([1.0, 1.1, 1.2]) == FINITE
    assert classify_growth([1.0, 2.5, 6.0]) == INFINITE
    assert classify_growth([1.0, 1.6, 2.4]) == INCONCLUSIVE
    assert classify_growth([1.0, np.inf]) == INCONCLUSIVE
    with pytest.raises(SpecMismatchError):
        classify_growth([1.0])


def test_refinement_protocol_mechanics():
    calls = []

    def weight_at(k):
        calls.append(k)
        return k

    verdict = refinement_protocol(weight_at, lambda k: 1.0 + 0.01 * k,
                                  levels=(4, 6, 8))
    assert calls == [4, 6, 8]
    assert verdict.verdict == FINITE
    assert verdict.levels == (4, 6, 8)
    assert len(verdict.values) == 3


@pytest.mark.parametrize("a,expected", [(-0.5, FINITE), (0.0, FINITE),
                                        (0.5, FINITE), (1.5, INFINITE),
                                        (-1.5, INFINITE)])
def test_power_weight_muckenhoupt_membership(a, expected):
    """d = 1: (dist + 1/2)^a is in A_2 exactly for a in (-1, 1)."""
    verdict = power_weight_protocol(
        1, a, "center", lambda w: muckenhoupt_characteristic(w, 2.0),
        levels=(6, 8, 10))
    assert verdict.verdict == expected


@pytest.mark.parametrize("a,expected", [(0.0, FINITE), (1.5, FINITE)])
def test_power_weight_reverse_holder_membership(a, expected):
    """d = 1: (dist + 1/2)^a is in RH_2 exactly for a > -1/2."""
    verdict = power_weight_protocol(
        1, a, "center", lambda w: reverse_holder_characteristic(w, 2.0),
        levels=(6, 8, 10))
    assert verdict.verdict == expected


def test_power_weight_reverse_holder_failure_grows():
    """a = -2 is outside RH_2; the characteristic grows by a factor close to
    2 per refinement step, which sits exactly on the protocol's doubling
    threshold, so the verdict may be inconclusive but never finite."""
    verdict = power_weight_protocol(
        1, -2.0, "center", lambda w: reverse_holder_characteristic(w, 2.0),
        levels=(6, 8, 10, 12))
    assert verdict.verdict != FINITE
    ratios = [b / a for a, b in zip(verdict.values, verdict.values[1:])]
    assert all(r >= 1.9 for r in ratios)
