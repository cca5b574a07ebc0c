"""Vector-valued multilinear maximal functions: oracles and inequalities."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sparsedom import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    maximal,
    mixed_norm,
    partitioned_maximal,
    run_experiment,
    vector_maximal,
    weak_type_quotient,
)
from sparsedom.errors import DomainError, ZeroInputError
from sparsedom.lattice import (
    DyadicCube,
    _build_cube_map,
    cube_cells,
    dilate,
    enumerate_cubes,
    lr_norm_rows,
    power_mean,
    shift_list,
    stacked_cube_map,
)
from sparsedom.maximal import component_sup, cube_averages
from sparsedom.weights import (
    Weight,
    WeightVector,
    muckenhoupt_characteristic,
    multilinear_characteristic,
    rc_characteristic,
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
    for cube in enumerate_cubes(spec, shifts=shifts):
        cells = cube_cells(spec, cube)
        if cube.level not in levels or len(cells) == 0:
            continue
        for k in range(n_comp):
            term = 1.0
            for f, p in zip(inputs, ps):
                term *= power_mean(f.values[cells, k], p)
            best[cells, k] = np.maximum(best[cells, k], term)
    return lr_norm_rows(best, r)


def localized_maximal(inputs, ps, r, cube):
    """1_Q times the maximal function truncated to sides <= side(Q),
    evaluated on the full grid and masked: the oracle for the stopping-time
    constructor, which evaluates it on Q's cells only.

    By support considerations this only sees input values on the 3-fold
    dilate of Q, so restricting the inputs to 3Q first gives the identical
    result (asserted below).
    """
    spec = inputs[0].spec
    out = vector_maximal(inputs, ps, r, window=(0, cube.side))
    mask = np.zeros(spec.ncells)
    mask[cube_cells(spec, cube)] = 1.0
    return GridFunction(spec, out.values[:, 0] * mask)


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


def cube_averages_one_level(spec, g, p, shift, level):
    """Reference power means of one (shift, level) lattice: |g|, its scale
    and its power recomputed from scratch for the single level."""
    ids, counts, n_cubes = _build_cube_map(spec.d, spec.levels, spec.periodic,
                                           shift, level)
    a = np.abs(np.asarray(g, dtype=np.float64))
    if p == np.inf:
        out = np.zeros(n_cubes)
        np.maximum.at(out, ids, a)
        return out
    if p == -np.inf:
        out = np.full(n_cubes, np.inf)
        np.minimum.at(out, ids, a)
        return out
    if p == 0:
        raise DomainError("exponent 0 is not supported")
    scale = float(a.max())
    if scale == 0.0:
        if p < 0:
            raise ValueError("negative-exponent averages need positive values")
        return np.zeros(n_cubes)
    if p < 0 and np.any(a == 0.0):
        raise ValueError("negative-exponent averages need positive values")
    sums = np.bincount(ids, weights=(a / scale) ** p, minlength=n_cubes)
    return scale * (sums / counts) ** (1.0 / p)


def cube_averages_all_levels(spec, g, p):
    """Reference power means over every canonical cube of levels 0..K, unit
    cubes included: the block pyramid as it stood when it returned level 0
    too.  Its slice past the ncells unit cubes has the bits of
    cube_averages, and every characteristic the bits of one taken on it."""
    if p == 0:
        raise DomainError("exponent 0 is not supported")
    d, side = spec.d, spec.side
    starts = np.cumsum([0] + [(side >> j) ** d
                              for j in range(spec.levels + 1)])
    out = np.empty(starts[-1])
    a = np.abs(np.asarray(g, dtype=np.float64), out=out[:spec.ncells])
    finite = p not in (np.inf, -np.inf)
    if finite:
        if p < 0 and np.any(a == 0.0):
            raise ValueError("negative-exponent averages need positive values")
        scale = float(a.max())
        if scale == 0.0:
            return np.zeros(starts[-1])
        a /= scale
        a **= p
    reduce = np.add if finite else (np.maximum if p > 0 else np.minimum)
    for j in range(1, spec.levels + 1):
        block = out[starts[j - 1]:starts[j]].reshape((side >> (j - 1),) * d)
        level = out[starts[j]:starts[j + 1]].reshape((side >> j,) * d)
        for axis in range(d):
            keep = (slice(None),) * axis
            block = reduce(block[keep + (slice(0, None, 2),)],
                           block[keep + (slice(1, None, 2),)],
                           out=level if axis == d - 1 else None)
    if finite:
        for j in range(1, spec.levels + 1):
            out[starts[j]:starts[j + 1]] *= 1.0 / (1 << j * d)
        out **= 1.0 / p
        out *= scale
    return out


AVERAGE_EXPONENTS = (-np.inf, -2.0, -0.5, 0.4, 1.0, 2.0, 3.0, np.inf)


@pytest.mark.parametrize("d,levels,periodic", [(1, 5, False), (1, 5, True),
                                               (2, 3, False), (2, 3, True),
                                               (1, 12, False), (2, 6, True)])
def test_cube_averages_match_single_level_oracle(d, levels, periodic):
    """The means come in the order of the canonical stacked ids past the
    ncells unit cubes, and each level j = 1..K holds the means of a
    sequential per-level computation: the same bits for p = +-inf, and
    within 1e-12 relative for finite p, where the pyramid adds the cells of
    a cube pairwise instead of in increasing order (4e-14 is the largest
    deviation measured on d = 1, K <= 16 and d = 2, K <= 8)."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(31 + 10 * d + levels + periodic)
    positive = [rng.uniform(0.05, 4.0, spec.ncells),
                rng.uniform(0.5, 2.0, spec.ncells) * rng.choice([-1, 1],
                                                                spec.ncells),
                np.exp(rng.normal(0.0, 6.0, spec.ncells))]
    with_zeros = [np.where(rng.random(spec.ncells) < 0.6, 0.0,
                           rng.uniform(0.1, 3.0, spec.ncells)),
                  np.eye(1, spec.ncells, spec.ncells - 1)[0] * 7.5,
                  np.zeros(spec.ncells)]
    starts = stacked_cube_map(spec, "canonical")[2]
    for p in AVERAGE_EXPONENTS:
        arrays = positive + (with_zeros if p > 0 else [])
        for g in arrays:
            got = cube_averages(spec, g, p)
            assert got.shape == (starts[-1] - spec.ncells,)
            for level in range(1, spec.levels + 1):
                want = cube_averages_one_level(spec, g, p, 0, level)
                means = got[starts[level] - spec.ncells:
                            starts[level + 1] - spec.ncells]
                if np.isinf(p):
                    assert np.array_equal(means, want)
                else:
                    np.testing.assert_allclose(means, want, rtol=1e-12,
                                               atol=0)


@pytest.mark.parametrize("d,levels,periodic", [(1, 1, False), (1, 6, True),
                                               (2, 1, True), (2, 4, False),
                                               (3, 3, True)])
def test_cube_averages_are_the_all_levels_oracle_past_unit_cubes(
        d, levels, periodic):
    """cube_averages is the all-levels oracle's array past its ncells unit
    cubes, bit for bit, for every exponent, also on all-zero input."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(57 + 10 * d + levels)
    arrays = [np.exp(rng.normal(0.0, 3.0, spec.ncells)),
              rng.uniform(-2.0, 2.0, spec.ncells)]
    for p in AVERAGE_EXPONENTS:
        for g in arrays + ([np.zeros(spec.ncells)] if p > 0 else []):
            got = cube_averages(spec, g, p)
            want = cube_averages_all_levels(spec, g, p)[spec.ncells:]
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d,levels", [(1, 7), (2, 4)])
@pytest.mark.parametrize("periodic", [False, True])
def test_cube_averages_of_constant_are_exact(d, levels, periodic):
    """A constant array has the mean c bit for bit on every cube and for
    every exponent: its normalized power is 1.0, a cube's sum 2^(jd) and
    the scaling by 2^(-jd) exact."""
    spec = GridSpec(d, levels, periodic)
    for c in (1.0, 3.7, 1e-3):
        for p in AVERAGE_EXPONENTS:
            got = cube_averages(spec, np.full(spec.ncells, c), p)
            assert np.array_equal(got, np.full(len(got), c))


def test_weights_report_matches_sequential_oracle(monkeypatch, tmp_path):
    """The shipped weights experiment run on the pairwise pyramid and on a
    stack of sequential per-level means writes the same report and the same
    verdicts, with every characteristic within 1e-12 relative: no verdict
    sits close enough to the 1.25 and 2 growth thresholds to flip."""
    path = Path(__file__).resolve().parents[1] / "configs" / "weights.json"
    cfg = ExperimentConfig.from_file(path)

    def sequential(spec, g, p):
        return np.concatenate([cube_averages_one_level(spec, g, p, 0, level)
                               for level in range(1, spec.levels + 1)])

    def run(name):
        out = tmp_path / name
        assert run_experiment(cfg, out) == 0
        with open(out / "characteristics.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return json.loads((out / "report.json").read_text()), rows

    report, rows = run("pyramid")
    monkeypatch.setattr(maximal, "cube_averages", sequential)
    want_report, want_rows = run("sequential")
    assert report == want_report
    assert rows[0] == want_rows[0] and len(rows) == len(want_rows) > 1
    for got, want in zip(rows[1:], want_rows[1:]):
        assert got[:4] == want[:4]
        np.testing.assert_allclose([float(v) for v in got[4:]],
                                   [float(v) for v in want[4:]],
                                   rtol=1e-12, atol=0)


def test_cube_averages_exponent_errors():
    spec = GridSpec(1, 4, False)
    g = np.linspace(0.5, 2.0, spec.ncells)
    with pytest.raises(DomainError):
        cube_averages(spec, g, 0.0)
    for zeros in (np.where(np.arange(spec.ncells) == 3, 0.0, g),
                  np.zeros(spec.ncells)):
        for p in (-0.5, -2.0):
            with pytest.raises(ValueError):
                cube_averages(spec, zeros, p)


def component_sup_per_level(inputs, ps, shifts="all", window=None):
    """Reference inner supremum: the one-level means per shift, level, slot
    and component, and a gather of the slot product per level into a
    running maximum."""
    spec = inputs[0].spec
    n_comp = inputs[0].n_components
    s, t = (0, spec.side) if window is None else window
    levels = [j for j in range(spec.levels + 1) if s < 2 ** j <= t]
    best = np.zeros((spec.ncells, n_comp))
    for shift in shift_list(spec, shifts):
        for level in levels:
            ids, _, n_cubes = _build_cube_map(spec.d, spec.levels,
                                              spec.periodic, shift, level)
            prod = np.ones((n_cubes, n_comp))
            for f, p in zip(inputs, ps):
                for k in range(n_comp):
                    prod[:, k] *= cube_averages_one_level(
                        spec, f.values[:, k], p, shift, level)
            np.maximum(best, prod[ids, :], out=best)
    return best


@pytest.mark.parametrize("d,levels,periodic", [(1, 5, False), (1, 5, True),
                                               (2, 3, False), (2, 3, True)])
def test_component_sup_matches_per_level_oracle(d, levels, periodic):
    """One bincount per slot and component over the stacked lattices gives
    the bits of the per-shift, per-level computation, also for an all-zero
    component."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(41 + 10 * d + periodic)
    ps = (1.0, 2.5)
    for n_comp in (1, 3):
        f, g = random_inputs(spec, 2, n_comp, rng, nonneg=False)
        zeroed = g.values.copy()
        zeroed[:, -1] = 0.0
        cases = [[f, g]] + ([[f, GridFunction(spec, zeroed)]]
                            if n_comp > 1 else [])
        for fs in cases:
            for shifts in ("all", "canonical"):
                for window in (None, (0, 2), (1, 4), (2, spec.side)):
                    got = component_sup(fs, ps, shifts=shifts, window=window)
                    want = component_sup_per_level(fs, ps, shifts, window)
                    assert got.flags.c_contiguous
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


def shift0_cubes(spec, level, rng, n):
    """n random shift-0 cubes of one level (the stopping-time nodes)."""
    m = spec.side >> level
    return [DyadicCube(0, level, tuple(int(c) << level
                                       for c in rng.integers(m, size=spec.d)))
            for _ in range(n)]


@pytest.mark.parametrize("d,levels", [(1, 8), (1, 10), (2, 4), (2, 5)])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("shifts", ["all", "canonical"])
def test_component_sup_local_matches_full_grid_rows(d, levels, periodic,
                                                    shifts):
    """support and at give the full-grid call's rows at at, bit for bit,
    on a node Q of every level: the localized functions (window
    (0, side Q], support 3Q, at Q), the exceedance function of an input
    vanishing off Q (support Q, any at: the stopping-time constructor's one
    narrowed call), and the coarse-truncated functions of inputs
    restricted to 3Q (window (side L, side Q], support 3Q, at subcubes L
    of Q).  A support missing a cell of Q changes the rows."""
    spec = GridSpec(d, levels, periodic)
    rng = np.random.default_rng(7 + 100 * d + levels + 1000 * periodic)
    ps = (1.5, 2.0)
    every = np.arange(spec.ncells)
    for level in range(levels + 1):
        for q in shift0_cubes(spec, level, rng, 2):
            cells_q, cells_3q = cube_cells(spec, q), dilate(spec, q, 3)
            fs = random_inputs(spec, 2, 2, rng)
            window = (0, q.side)
            full = component_sup(fs, ps, shifts=shifts, window=window)
            local = component_sup(fs, ps, shifts=shifts, window=window,
                                  support=cells_3q, at=cells_q)
            assert np.array_equal(local, full[cells_q])

            a = np.zeros(spec.ncells)
            a[cells_q] = rng.uniform(0.0, 3.0, size=len(cells_q))
            g = [GridFunction(spec, a)]
            full = component_sup(g, (1.0,), shifts=shifts)
            for at in (dilate(spec, q, 5), every,
                       np.flatnonzero(rng.random(spec.ncells) < 0.3)):
                local = component_sup(g, (1.0,), shifts=shifts,
                                      support=cells_q, at=at)
                assert np.array_equal(local, full[at])

            restricted = [f.restrict(cells_3q) for f in fs]
            for kid_level in range(level):
                window = (1 << kid_level, q.side)
                full = component_sup(restricted, ps, shifts=shifts,
                                     window=window)
                kids = [DyadicCube(0, kid_level, tuple(
                    c + (int(o) << kid_level) for c, o in
                    zip(q.corner, rng.integers(1 << (level - kid_level),
                                               size=d))))
                        for _ in range(2)]
                at = np.unique(np.concatenate([cube_cells(spec, k)
                                               for k in kids]))
                local = component_sup(restricted, ps, shifts=shifts,
                                      window=window, support=cells_3q, at=at)
                assert np.array_equal(local, full[at])

    # a support that misses one cell of Q changes the rows
    q = shift0_cubes(spec, 2, rng, 1)[0]
    cells_q, cells_3q = cube_cells(spec, q), dilate(spec, q, 3)
    fs = random_inputs(spec, 2, 2, rng)
    full = component_sup(fs, ps, shifts=shifts, window=(0, q.side))
    short = component_sup(fs, ps, shifts=shifts, window=(0, q.side),
                          support=np.setdiff1d(cells_3q, cells_q[:1]),
                          at=cells_q)
    assert not np.array_equal(short, full[cells_q])


def test_component_sup_windows_share_one_stacked_map():
    """Every window of one grid and shift policy slices the same cached
    stacked map, and the weight characteristics build no cell -> cube map
    at all; a cache entry per window or per caller would raise the peak
    memory of every construction."""
    spec = GridSpec(1, 6, periodic=True)
    fs = random_inputs(spec, 2, 2, np.random.default_rng(12))
    stacked_cube_map.cache_clear()
    for window in (None, (0, 2), (1, 4), (2, 8), (4, spec.side)):
        component_sup(fs, (1.0, 2.0), window=window)
    info = stacked_cube_map.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    stacked_cube_map.cache_clear()
    w, v = (Weight(spec, f.values[:, 0] + 0.5) for f in fs)
    rc_characteristic(w, 1.0, 2.0)
    muckenhoupt_characteristic(w, 1.0)
    muckenhoupt_characteristic(w, 2.0)
    multilinear_characteristic(WeightVector([w, v], (2.0, 3.0)),
                               (1.0, 1.5, 2.0))
    assert stacked_cube_map.cache_info().currsize == 0


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
    with pytest.raises(DomainError):
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
        product = np.prod([vector_maximal([f], (p,), r=r).values[:, 0]
                           for f, p, r in zip(fs, ps, rs)], axis=0)
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
    for cube in (c for c in enumerate_cubes(spec, shifts="all")
                 if c.level in (2, 3)):
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
    whole = next(c for c in enumerate_cubes(spec, shifts="canonical")
                 if c.level == spec.levels)
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
