"""Vector-valued multilinear maximal functions: oracles and inequalities."""

import numpy as np
import pytest

from sparsedom import (
    GridFunction,
    GridSpec,
    holder_dominator,
    localized_maximal,
    mixed_norm,
    p_form,
    partitioned_maximal,
    vector_maximal,
    weak_type_quotient,
)
from sparsedom.errors import (
    EmptyCubeFamilyError,
    SpecMismatchError,
    ZeroInputError,
)
from sparsedom.lattice import (
    cube_cells,
    cube_size,
    dilate,
    enumerate_cubes,
    lr_norm_rows,
    power_mean,
)


def brute_maximal(inputs, ps, r, shifts="all", window=None):
    """Reference evaluation: explicit loop over every admissible cube."""
    spec = inputs[0].spec
    n_comp = inputs[0].n_components
    if window is None:
        window = (0, spec.side)
    levels = [j for j in range(spec.levels + 1)
              if window[0] < 2 ** j <= window[1]]
    best = np.zeros((spec.ncells, n_comp))
    for cube in enumerate_cubes(spec, shifts=shifts, levels=levels):
        cells = cube_cells(spec, cube)
        if len(cells) == 0:
            continue
        for k in range(n_comp):
            term = 1.0
            for f, p in zip(inputs, ps):
                term *= power_mean(f.values[cells, k], p)
            best[cells, k] = np.maximum(best[cells, k], term)
    return lr_norm_rows(best, r)


def random_inputs(spec, n_slots, n_comp, rng, nonneg=True):
    out = []
    for _ in range(n_slots):
        vals = rng.uniform(0.0, 3.0, size=(spec.ncells, n_comp))
        if not nonneg:
            vals -= 1.5
        out.append(GridFunction(spec, vals))
    return out


# ---------------------------------------------------------------------------
# oracle agreement


def test_spike_maximal_hand_value():
    """A point mass at cell 0: the p = 1 canonical maximal function at x is
    the reciprocal of the smallest dyadic cube containing both 0 and x."""
    spec = GridSpec(1, 3)
    f = GridFunction.spike(spec, 0)
    m = vector_maximal([f], (1.0,), shifts="canonical").values[:, 0]
    for x in range(spec.ncells):
        j = max(1, int(x).bit_length()) if x > 0 else 0
        expected = 2.0 ** -j if x > 0 else 1.0
        assert m[x] == pytest.approx(expected)


@pytest.mark.parametrize("d,levels,periodic", [(1, 3, False), (1, 3, True),
                                               (2, 2, False), (2, 2, True)])
def test_vector_maximal_matches_bruteforce(d, levels, periodic):
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(20 + d + levels)
    for shifts in ("canonical", "all"):
        for _ in range(3):
            fs = random_inputs(spec, 2, 2, rng)
            got = vector_maximal(fs, (1.0, 2.0), r=2.0, shifts=shifts)
            want = brute_maximal(fs, (1.0, 2.0), 2.0, shifts=shifts)
            assert np.allclose(got.values[:, 0], want, rtol=1e-12)


def test_truncated_matches_bruteforce_on_window():
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(33)
    fs = random_inputs(spec, 2, 1, rng)
    got = vector_maximal(fs, (1.0, 1.0), 1.0, window=(2, 8))
    want = brute_maximal(fs, (1.0, 1.0), 1.0, window=(2, 8))
    assert np.allclose(got.values[:, 0], want, rtol=1e-12)


def test_empty_window_rejected():
    spec = GridSpec(1, 3)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(EmptyCubeFamilyError):
        vector_maximal([f], (1.0,), 1.0, window=(8, 16))


# ---------------------------------------------------------------------------
# structural inequalities


def test_partition_sandwich():
    """Coarser slot partitions never exceed finer ones; the single block is
    the joint maximal function and singletons give the Hoelder majorant."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(44)
    ps = (1.0, 1.5, 2.0)
    rs = (4.0, 4.0, 2.0)
    for _ in range(5):
        fs = random_inputs(spec, 3, 3, rng)
        joint = partitioned_maximal(fs, ps, rs, [[0, 1, 2]]).values[:, 0]
        mid = partitioned_maximal(fs, ps, rs, [[0, 1], [2]]).values[:, 0]
        split = partitioned_maximal(fs, ps, rs, [[0], [1], [2]]).values[:, 0]
        product = holder_dominator(fs, ps, rs).values[:, 0]
        assert np.all(joint <= mid * (1 + 1e-9))
        assert np.all(mid <= split * (1 + 1e-9))
        assert np.allclose(split, product, rtol=1e-12)


def test_window_splitting_is_exact():
    """sup over (s, u] is the max of the sups over (s, t] and (t, u]."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(55)
    fs = random_inputs(spec, 2, 1, rng)
    full = vector_maximal(fs, (1.0, 2.0), 1.0, window=(1, 16)).values[:, 0]
    lo = vector_maximal(fs, (1.0, 2.0), 1.0, window=(1, 4)).values[:, 0]
    hi = vector_maximal(fs, (1.0, 2.0), 1.0, window=(4, 16)).values[:, 0]
    assert np.allclose(full, np.maximum(lo, hi), rtol=1e-13)


def test_slot_sublinearity():
    """For p_j >= 1 the maximal function is subadditive in each slot."""
    spec = GridSpec(1, 4, periodic=True)
    rng = np.random.default_rng(66)
    ps = (1.0, 2.0)
    for _ in range(5):
        f1, f2, g = random_inputs(spec, 3, 2, rng, nonneg=False)
        for slot in (0, 1):
            fsum = GridFunction(spec, f1.values + f2.values)
            args_sum = [fsum, g] if slot == 0 else [g, fsum]
            args_1 = [f1, g] if slot == 0 else [g, f1]
            args_2 = [f2, g] if slot == 0 else [g, f2]
            msum = vector_maximal(args_sum, ps, r=2.0).values[:, 0]
            m1 = vector_maximal(args_1, ps, r=2.0).values[:, 0]
            m2 = vector_maximal(args_2, ps, r=2.0).values[:, 0]
            assert np.all(msum <= m1 + m2 + 1e-9)
        # scalar homogeneity
        doubled = vector_maximal([GridFunction(spec, 2.0 * f1.values), g],
                                 ps, r=2.0).values[:, 0]
        single = vector_maximal([f1, g], ps, r=2.0).values[:, 0]
        assert np.allclose(doubled, 2.0 * single, rtol=1e-12)


def test_more_shifts_never_decrease():
    spec = GridSpec(2, 2, periodic=True)
    rng = np.random.default_rng(77)
    for _ in range(5):
        fs = random_inputs(spec, 2, 2, rng)
        canon = vector_maximal(fs, (1.0, 1.0), r=1.0,
                               shifts="canonical").values[:, 0]
        full = vector_maximal(fs, (1.0, 1.0), r=1.0, shifts="all").values[:, 0]
        assert np.all(canon <= full * (1 + 1e-12))


def test_localized_support_identity():
    """Localizing to Q sees only the 3-fold dilate of Q: restricting the
    inputs to 3Q first changes nothing, and inputs supported off 3Q give 0."""
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(88)
    for cube in enumerate_cubes(spec, shifts="all", levels=[2, 3]):
        fs = random_inputs(spec, 2, 1, rng)
        inside = dilate(spec, cube, 3)
        restricted = [f.restrict(inside) for f in fs]
        a = localized_maximal(fs, (1.0, 2.0), 1.0, cube)
        b = localized_maximal(restricted, (1.0, 2.0), 1.0, cube)
        assert np.allclose(a.values, b.values, rtol=1e-13, atol=0.0)
        outside = np.setdiff1d(np.arange(spec.ncells), inside)
        off = [f.restrict(outside) for f in fs]
        c = localized_maximal(off, (1.0, 2.0), 1.0, cube)
        assert np.all(c.values == 0.0)


def test_localized_whole_domain_matches_global():
    spec = GridSpec(1, 3, periodic=True)
    rng = np.random.default_rng(99)
    fs = random_inputs(spec, 2, 1, rng)
    whole = next(iter(enumerate_cubes(spec, shifts="canonical",
                                      levels=[spec.levels])))
    loc = localized_maximal(fs, (1.0, 1.0), 1.0, whole)
    glob = vector_maximal(fs, (1.0, 1.0), 1.0)
    assert np.allclose(loc.values, glob.values)


def test_lower_semicontinuity_across_nearby_points():
    """Discrete analog of the truncation comparison: if x and x0 share a
    cube of side <= s then the (s, t]-truncated value at x is at most
    8^(d * sum 1/p_j) times the (s, 8t]-truncated value at x0 (periodic
    grids, all shifts; the constant comes from the one-third trick with a
    factor-8 enlargement)."""
    spec = GridSpec(1, 6, periodic=True)
    rng = np.random.default_rng(111)
    ps = (1.0, 2.0)
    s, t = 2, 8
    const = 8.0 ** (spec.d * sum(1.0 / p for p in ps))
    for _ in range(3):
        fs = random_inputs(spec, 2, 1, rng)
        narrow = vector_maximal(fs, ps, 1.0, window=(s, t)).values[:, 0]
        wide = vector_maximal(fs, ps, 1.0, window=(s, 8 * t)).values[:, 0]
        for base in range(0, spec.ncells, s):
            block = np.arange(base, base + s)
            assert narrow[block].max() <= const * wide[block].min() * (1 + 1e-9)


# ---------------------------------------------------------------------------
# auxiliary operators


def test_hardy_littlewood_dominates_function():
    spec = GridSpec(1, 4)
    rng = np.random.default_rng(10)
    f = GridFunction(spec, rng.uniform(0, 2, size=(16, 1)))
    m = vector_maximal([f], (1.0,)).values[:, 0]
    assert np.all(m >= f.values[:, 0] - 1e-12)
    assert np.all(m >= f.values[:, 0].mean() - 1e-12)


def test_scalar_multilinear_rejects_vector_inputs():
    """The scalar form p_form takes N = 1 inputs only, in every slot."""
    spec = GridSpec(1, 3)
    f = GridFunction.constant(spec, 1.0, n_components=2)
    g = GridFunction.constant(spec, 1.0)
    for gs in ([f, f], [g, f], [f, g]):
        with pytest.raises(SpecMismatchError):
            p_form(gs, (1.0, 1.0))


def test_mixed_norm():
    spec = GridSpec(1, 1)
    f = GridFunction(spec, np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert mixed_norm(f, 2.0, 2.0) == pytest.approx(5.0)
    assert mixed_norm(f, np.inf, 2.0) == pytest.approx(5.0)
    w = np.array([4.0, 1.0])
    assert mixed_norm(f, 1.0, 2.0, weight=w) == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# weak type


def test_weak_type_constant_input_gives_one():
    spec = GridSpec(1, 4, periodic=True)
    f = GridFunction.constant(spec, 1.0)
    # M(1,...,1) = 1 everywhere; the quotient normalizes to exactly 1
    q = weak_type_quotient([f, f], (1.0, 2.0), (1.0, 1.0))
    assert q == pytest.approx(1.0)


def test_weak_type_below_strong_quotient():
    spec = GridSpec(1, 5, periodic=True)
    rng = np.random.default_rng(13)
    ps, rs = (1.0, 2.0), (2.0, 2.0)
    from sparsedom.lattice import holder_aggregate
    p = holder_aggregate(ps)
    r = holder_aggregate(rs)
    for _ in range(5):
        fs = random_inputs(spec, 2, 2, rng)
        weak = weak_type_quotient(fs, ps, rs)
        m = vector_maximal(fs, ps, r=r)
        strong = mixed_norm(m, p, 1.0)
        denom = 1.0
        for f, pj, rj in zip(fs, ps, rs):
            denom *= mixed_norm(f, pj, rj)
        assert weak <= strong / denom * (1 + 1e-12)


def test_weak_type_rejects_zero_input():
    spec = GridSpec(1, 3)
    f = GridFunction.constant(spec, 1.0)
    z = GridFunction.constant(spec, 0.0)
    with pytest.raises(ZeroInputError):
        weak_type_quotient([f, z], (1.0, 1.0), (1.0, 1.0))


def test_weak_type_spike_stable_under_refinement():
    """The endpoint quotient of a point mass stays bounded as K grows."""
    values = []
    for k in (4, 6, 8):
        spec = GridSpec(1, k, periodic=True)
        f = GridFunction.spike(spec, 0)
        values.append(weak_type_quotient([f], (1.0,), (1.0,)))
    assert max(values) <= 2.0 * min(values)
