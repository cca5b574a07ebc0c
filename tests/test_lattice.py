"""Grids, cubes, shifted lattices and power means."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsedom import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_cells,
    dilate,
    enumerate_cubes,
    holder_aggregate,
    power_mean,
)
from sparsedom.errors import DomainError, NonpositiveValueError
from sparsedom.lattice import (
    _axis_cube_ids,
    _build_cube_map,
    _cells_of_box,
    _column_sums,
    children,
    lr_norm_rows,
    shift_list,
    shift_offset,
    stacked_cube_map,
)


# ---------------------------------------------------------------------------
# grids and functions


def test_gridspec_basic():
    spec = GridSpec(2, 3, periodic=True)
    assert spec.side == 8
    assert spec.ncells == 64
    flat = np.arange(64)
    coords = spec.cell_coords(flat)
    assert coords.shape == (64, 2)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 0)
    with pytest.raises(ValueError):
        GridSpec(2, 14)  # 28 > 26 bits
    with pytest.raises(ValueError):
        GridSpec(0, 4)


def test_gridfunction_shapes_and_protection():
    spec = GridSpec(1, 3)
    f = GridFunction.constant(spec, 2.0, n_components=3)
    assert f.values.shape == (8, 3)
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0
    g = GridFunction.spike(spec, 5, height=3.0)
    assert g.values[5, 0] == 3.0
    assert g.values.sum() == 3.0
    assert f.component(1).n_components == 1
    restricted = g.restrict(np.array([0, 1]))
    assert restricted.values.sum() == 0.0


# ---------------------------------------------------------------------------
# shifted dyadic lattices


def cube_of_cell(spec, cell, shift, level):
    """The cube of one shifted lattice and level that holds a cell, from the
    offsets alone: each corner coordinate is the offset plus the cell
    coordinate's distance from it rounded down to a multiple of the side."""
    coords = spec.cell_coords(np.array([cell]))[0]
    corner = []
    for axis in range(spec.d):
        o = shift_offset(level, shift // 3 ** axis % 3)
        c = o + ((int(coords[axis]) - o) >> level << level)
        corner.append(c % spec.side if spec.periodic else c)
    return DyadicCube(shift=shift, level=level, corner=tuple(corner))


def test_shift_offset_values():
    # o_j = +-((-2)^j - 1)/3: level 1 -> +-1, level 2 -> +-1, level 3 -> +-3
    assert abs(shift_offset(1, 1)) == 1
    assert abs(shift_offset(2, 1)) == 1
    assert abs(shift_offset(3, 1)) == 3
    assert shift_offset(4, 0) == 0
    assert shift_offset(2, 1) == -shift_offset(2, 2)


def test_shift_nesting_is_laminar_per_shift():
    """Within one shift, every level-j cube sits inside one level-(j+1) cube."""
    spec = GridSpec(1, 5, periodic=True)
    for shift in shift_list(spec, "all"):
        for level in range(spec.levels):
            fine, _, _ = _build_cube_map(spec.d, spec.levels, spec.periodic,
                                         shift, level)
            coarse, _, _ = _build_cube_map(spec.d, spec.levels, spec.periodic,
                                           shift, level + 1)
            for cube_id in np.unique(fine):
                parents = np.unique(coarse[fine == cube_id])
                assert len(parents) == 1


def stacked_maps_by_rows(spec, shifts):
    """Reference stack: every (level, shift) map built in turn, one equal to
    a map already kept at its level skipped, the kept rows stacked at the
    end."""
    stacked, counts, starts, rows = [], [], [], []
    offset = 0
    for level in range(spec.levels + 1):
        starts.append(offset)
        rows.append(len(stacked))
        seen = []
        for shift in shift_list(spec, shifts):
            cell_ids, cube_counts, n_cubes = _build_cube_map(
                spec.d, spec.levels, spec.periodic, shift, level)
            if any(np.array_equal(cell_ids, other) for other in seen):
                continue
            seen.append(cell_ids)
            stacked.append(cell_ids + offset)
            counts.append(cube_counts)
            offset += n_cubes
    starts.append(offset)
    rows.append(len(stacked))
    return (np.stack(stacked), np.concatenate(counts), tuple(starts),
            tuple(rows))


@pytest.mark.parametrize("d,max_levels", [(1, 12), (2, 8)])
def test_stacked_maps_match_row_by_row_stack(d, max_levels):
    """Listing the distinct lattices by their per-axis maps and writing each
    row in place gives the stack of the row-by-row build."""
    for levels in range(1, max_levels + 1):
        for periodic in (False, True):
            spec = GridSpec(d, levels, periodic)
            for shifts in ("canonical", "all"):
                got = stacked_cube_map.__wrapped__(spec, shifts)
                want = stacked_maps_by_rows(spec, shifts)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert got[2:] == want[2:]


@pytest.mark.parametrize("d,levels,shifts", [(2, 6, "all"),
                                             (1, 14, "canonical")])
def test_stacked_map_build_peak_memory(d, levels, shifts):
    """The stack is allocated once and its rows written in place, so the
    traced peak of a build stays below twice the stack; keeping a list of
    rows and stacking them holds every row twice."""
    stacked_cube_map.cache_clear()
    tracemalloc.start()
    try:
        ids = stacked_cube_map(GridSpec(d, levels), shifts)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * ids.nbytes


def cells_of_box_by_meshgrid(spec, corner, side):
    """Reference box: per-axis ranges, their meshgrid and the flat index of
    every coordinate row, with separate branches for a whole periodic axis
    and for d = 1."""
    axis_ranges = []
    for axis in range(spec.d):
        c = corner[axis]
        if spec.periodic:
            if side >= spec.side:
                rng = np.arange(spec.side, dtype=np.int64)
            else:
                rng = (c + np.arange(side, dtype=np.int64)) % spec.side
        else:
            lo = max(c, 0)
            hi = min(c + side, spec.side)
            rng = np.arange(lo, hi, dtype=np.int64)
        axis_ranges.append(rng)
    if any(len(r) == 0 for r in axis_ranges):
        return np.empty(0, dtype=np.int64)
    if spec.d == 1:
        return np.sort(axis_ranges[0])
    grids = np.meshgrid(*axis_ranges, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=-1)
    flat = np.zeros(len(coords), dtype=np.int64)
    for axis in range(spec.d):
        flat = flat * spec.side + coords[:, axis]
    return np.sort(flat)


def cube_map_by_coords(d, levels, periodic, shift, level):
    """Reference cell -> cube map: the coordinates of every cell, a gather of
    each axis's cube ids, and a bincount of the folded ids."""
    spec = GridSpec(d, levels, periodic)
    digits = [shift // 3 ** axis % 3 for axis in range(d)]
    coords = spec.cell_coords(np.arange(spec.ncells))
    cell_ids = np.zeros(spec.ncells, dtype=np.int64)
    n_cubes = 1
    for axis in range(d):
        ids, n = _axis_cube_ids(spec.side, periodic, level, digits[axis])
        cell_ids *= n
        cell_ids += ids[coords[:, axis]]
        n_cubes *= n
    counts = np.bincount(cell_ids, minlength=n_cubes)
    return cell_ids, counts, n_cubes


@pytest.mark.parametrize("d,max_levels", [(1, 8), (2, 5)])
def test_cells_of_box_match_meshgrid_oracle(d, max_levels):
    """Every box of side 2^j or 3 * 2^j at every corner, from wholly before
    the domain to wholly after it on clipped grids, has the sorted int64
    cells of the meshgrid build."""
    for levels in range(1, max_levels + 1):
        for periodic in (False, True):
            spec = GridSpec(d, levels, periodic)
            for j in range(levels + 1):
                for side in (1 << j, 3 << j):
                    axis = range(spec.side) if periodic else \
                        range(-side, spec.side + 1)
                    for corner in itertools.product(axis, repeat=d):
                        got = _cells_of_box(spec, corner, side)
                        want = cells_of_box_by_meshgrid(spec, corner, side)
                        assert got.dtype == np.int64
                        assert np.array_equal(got, want)


@pytest.mark.parametrize("d,max_levels", [(1, 10), (2, 5)])
def test_cube_map_matches_coordinate_oracle(d, max_levels):
    """The outer folds of the per-axis ids and counts give the map, counts
    and cube count of the per-cell coordinate gather."""
    for levels in range(1, max_levels + 1):
        for periodic in (False, True):
            for shift in range(3 ** d):
                for level in range(levels + 1):
                    got = _build_cube_map(d, levels, periodic, shift, level)
                    want = cube_map_by_coords(d, levels, periodic, shift,
                                              level)
                    for a, b in zip(got[:2], want[:2]):
                        assert a.dtype == np.int64
                        assert np.array_equal(a, b)
                    assert got[2] == want[2]


@pytest.mark.parametrize("d,levels", [(1, 5), (2, 3)])
def test_cube_map_groups_are_cube_of_cell_cubes(d, levels):
    """The cells of each cube id are exactly the cells of one cube, the one
    cube_of_cell names for each of them, and its count is their number."""
    for periodic in (False, True):
        spec = GridSpec(d, levels, periodic)
        for shift in shift_list(spec, "all"):
            for level in range(levels + 1):
                ids, counts, n_cubes = _build_cube_map(d, levels, periodic,
                                                       shift, level)
                cubes = set()
                for cube_id in range(n_cubes):
                    group = np.flatnonzero(ids == cube_id)
                    assert counts[cube_id] == len(group)
                    (cube,) = {cube_of_cell(spec, int(x), shift, level)
                               for x in group}
                    assert np.array_equal(cube_cells(spec, cube), group)
                    cubes.add(cube)
                assert len(cubes) == n_cubes


def test_each_shift_level_partitions_periodic_domain():
    spec = GridSpec(2, 3, periodic=True)
    assert len(shift_list(spec, "all")) == 9
    for shift in shift_list(spec, "all"):
        for level in range(spec.levels + 1):
            mine = [c for c in enumerate_cubes(spec, shifts="all")
                    if c.shift == shift and c.level == level]
            counted = sum(len(cube_cells(spec, c)) for c in mine)
            assert counted == spec.ncells
            all_cells = np.concatenate([cube_cells(spec, c) for c in mine])
            assert len(np.unique(all_cells)) == spec.ncells


def test_canonical_cube_count():
    spec = GridSpec(1, 2)
    cubes = list(enumerate_cubes(spec, shifts="canonical"))
    assert len(cubes) == 4 + 2 + 1


def test_cube_of_cell_consistency():
    spec = GridSpec(2, 3, periodic=True)
    rng = np.random.default_rng(7)
    for _ in range(50):
        cell = int(rng.integers(spec.ncells))
        shift = int(rng.integers(3 ** spec.d))
        level = int(rng.integers(spec.levels + 1))
        cube = cube_of_cell(spec, cell, shift, level)
        assert cell in cube_cells(spec, cube)
        assert cube.side == 2 ** level


def test_children_cover_parent():
    spec = GridSpec(2, 3, periodic=True)
    cube = cube_of_cell(spec, 0, 4, 2)
    kids = children(spec, cube)
    assert len(kids) == 4
    union = np.concatenate([cube_cells(spec, k) for k in kids])
    assert np.array_equal(np.sort(union), np.sort(cube_cells(spec, cube)))


def test_dilate_clipped():
    spec = GridSpec(1, 4)  # 16 cells, non-periodic
    cube = DyadicCube(shift=0, level=2, corner=(4,))
    cells = dilate(spec, cube, 3)
    assert np.array_equal(np.sort(cells), np.arange(0, 12))


def test_dilate_wraps():
    spec = GridSpec(1, 3, periodic=True)
    cube = DyadicCube(shift=0, level=1, corner=(0,))
    cells = dilate(spec, cube, 3)
    assert set(cells.tolist()) == {6, 7, 0, 1, 2, 3}


def test_dilate_requires_odd_factor():
    spec = GridSpec(1, 3)
    cube = DyadicCube(shift=0, level=1, corner=(0,))
    with pytest.raises(ValueError):
        dilate(spec, cube, 2)


# ---------------------------------------------------------------------------
# power means and norms


def test_power_mean_hand_values():
    vals = np.array([1.0, 4.0])
    assert power_mean(vals, 1.0) == pytest.approx(2.5)
    assert power_mean(vals, 2.0) == pytest.approx(math.sqrt(8.5))
    assert power_mean(vals, np.inf) == 4.0
    assert power_mean(vals, -np.inf) == 1.0
    assert power_mean(vals, -1.0) == pytest.approx(1.6)


def test_power_mean_monotone_in_exponent():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.1, 5.0, size=32)
    exps = [-np.inf, -2.0, -0.5, 0.5, 1.0, 2.0, 4.0, np.inf]
    means = [power_mean(vals, p) for p in exps]
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_power_mean_edge_cases():
    with pytest.raises(DomainError):
        power_mean(np.array([]), 1.0)
    with pytest.raises(DomainError):
        power_mean(np.array([1.0]), 0.0)
    with pytest.raises(NonpositiveValueError):
        power_mean(np.array([0.0, 1.0]), -1.0)
    assert power_mean(np.zeros(4), 2.0) == 0.0
    # overflow-safe scaling
    big = np.array([1e200, 2e200])
    assert np.isfinite(power_mean(big, 2.0))


def power_mean_1d(vals, p):
    """Oracle: the one-row power mean as it was before row-wise means."""
    vals = np.abs(np.asarray(vals, dtype=np.float64))
    if vals.size == 0:
        raise DomainError("empty cell set")
    if p == np.inf:
        return float(vals.max())
    if p == -np.inf:
        if np.any(vals == 0.0):
            raise NonpositiveValueError("min-mean needs strictly positive values")
        return float(vals.min())
    if p == 0:
        raise DomainError("exponent 0 is not supported")
    if p > 0:
        scale = float(vals.max())
        if scale == 0.0:
            return 0.0
    else:
        if np.any(vals == 0.0):
            raise NonpositiveValueError(
                "negative-exponent mean needs strictly positive values")
        scale = float(vals.min())
    return scale * float(np.mean((vals / scale) ** p)) ** (1.0 / p)


MEAN_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 0.4, -0.5, -2.0, np.inf, -np.inf)


@pytest.mark.parametrize("p", MEAN_EXPONENTS)
def test_row_power_means_equal_one_row_calls(p):
    """A (k, m) stack gives, bit for bit, the 1-d mean of each row, and the
    1-d call gives the oracle's bits, for m = 1..64 cells and for rows long
    enough that numpy's pairwise sum splits (it does above 128 terms)."""
    rng = np.random.default_rng([17, MEAN_EXPONENTS.index(p)])
    for m in [*range(1, 65), 127, 128, 129, 200, 256, 1000, 4096]:
        rows = rng.uniform(0.05, 3.0, size=(5, m)) * \
            rng.choice([1.0, 1e-3, 1e3], size=(5, 1))
        got = power_mean(rows, p)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        want = [power_mean_1d(row, p) for row in rows]
        assert np.array_equal(got, want)
        assert [power_mean(row, p) for row in rows] == want
        # a column slice of a larger array, as g[stack] is not
        assert np.array_equal(power_mean(rows[:, ::-1], p),
                              [power_mean_1d(row[::-1], p) for row in rows])


def test_row_power_means_of_zero_rows_and_errors():
    """All-zero rows mean 0.0 for p > 0 without a warning, beside rows that
    keep their bits; empty and nonpositive rows raise the 1-d errors."""
    rows = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 4.0], [0.0, 0.0, 0.0]])
    for p in (1.0, 1.5, 0.4, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = power_mean(rows, p)
        assert np.array_equal(got, [0.0, power_mean_1d(rows[1], p), 0.0])
    for p in MEAN_EXPONENTS:
        with pytest.raises(DomainError):
            power_mean(np.empty((3, 0)), p)
    for p in (-0.5, -2.0, -np.inf):
        with pytest.raises(NonpositiveValueError):
            power_mean(rows[:2], p)
        with pytest.raises(NonpositiveValueError):
            power_mean_1d(rows[0], p)
    with pytest.raises(DomainError):
        power_mean(rows, 0.0)


def test_lr_norm():
    values = np.array([[3.0, -4.0], [0.0, 0.0]])
    rows = lr_norm_rows(values, 2.0)
    assert rows[0] == pytest.approx(5.0) and rows[1] == 0.0
    assert np.array_equal(lr_norm_rows(values, np.inf), [4.0, 0.0])
    for r in (0.0, -1.0):
        with pytest.raises(DomainError):
            lr_norm_rows(values, r)


def lr_norm_rows_oracle(values, r):
    """The row formula scale * sum((a / scale) ** r) ** (1 / r), a = |values|
    and scale its row max, with numpy reducing each row in one call."""
    a = np.abs(values)
    scale = a.max(axis=1)
    if r == np.inf:
        return scale
    out = np.zeros(a.shape[0])
    nz = scale > 0
    out[nz] = scale[nz] * np.sum(
        (a[nz] / scale[nz, None]) ** r, axis=1) ** (1.0 / r)
    return out


LR_WIDTHS = [*range(1, 18), 63, 64, 65, 128, 129, 130, 200]


@pytest.mark.parametrize("n", LR_WIDTHS)
def test_lr_norm_rows_match_row_formula_bit_for_bit(n):
    """Signed entries over several decades, all-zero rows among them, one
    row and 40 rows: every row keeps the bits of the row formula."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((40, n)) * rng.choice(
        [1.0, 1e-4, 1e4], size=(40, n))
    values[::7] = 0.0
    values[3, : n // 2] = 0.0
    for rows in (values, values[5:6], values[:1]):
        for r in (0.5, 1.0, 1.5, 2.0, 4.0, np.inf):
            got, want = lr_norm_rows(rows, r), lr_norm_rows_oracle(rows, r)
            assert got.shape == want.shape == (len(rows),)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), r


@pytest.mark.parametrize("m", [0, 1, 2, 5, 40])
def test_column_sums_follow_numpy_row_sum_order(m):
    """The helper against np.sum(x, axis=1) itself, across every branch of
    numpy's pairwise order, so a change in that order fails here first."""
    rng = np.random.default_rng(m)
    for n in [*range(1, 140), 200, 255, 256, 257, 1000, 1025]:
        x = rng.standard_normal((m, n)) * rng.choice([1.0, 1e-8, 1e8],
                                                     size=(m, n))
        got = _column_sums(np.ascontiguousarray(x.T))
        want = np.sum(x, axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n


def test_holder_aggregate():
    assert holder_aggregate([4.0, 4.0]) == pytest.approx(2.0)
    assert holder_aggregate([2.0, 2.0]) == pytest.approx(1.0)
    assert holder_aggregate([np.inf, 2.0]) == pytest.approx(2.0)
    assert holder_aggregate([np.inf]) == np.inf

