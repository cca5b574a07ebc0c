"""Discrete dyadic geometry: grids, shifted dyadic cubes, power means.

The domain is a uniform grid with 2^K cells per side in d dimensions, with
counting measure (each cell has volume 1).  "All cubes" is modelled by the
union of 3^d shifted dyadic lattices: along each axis the lattice at level j
(side 2^j cells) is translated by 0 or +-((-2)^j - 1)/3, which is the integer
realization of the one-third shift with exact dyadic nesting across levels.
Shifted cubes may stick out of the domain; they are always used through their
intersection with it (non-periodic grids), or wrap around (periodic grids).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, NonpositiveValueError


@dataclass(frozen=True)
class GridSpec:
    """A d-dimensional periodic or clipped grid with 2^levels cells per side."""

    d: int
    levels: int
    periodic: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if self.levels < 1:
            raise DomainError("levels must be >= 1")
        if self.d * self.levels > 26:
            raise DomainError("grid too large for desk-scale use")

    @property
    def side(self) -> int:
        return 1 << self.levels

    @property
    def ncells(self) -> int:
        return 1 << (self.d * self.levels)

    def cell_coords(self, flat: np.ndarray) -> np.ndarray:
        """Axis coordinates of flat cell indices, shape (len(flat), d)."""
        flat = np.asarray(flat)
        out = np.empty(flat.shape + (self.d,), dtype=np.int64)
        rem = flat
        for axis in range(self.d - 1, -1, -1):
            out[..., axis] = rem % self.side
            rem = rem // self.side
        return out


class GridFunction:
    """A vector-valued function on a grid: values has shape (ncells, N)."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != spec.ncells:
            raise DomainError(
                f"expected {spec.ncells} cells, got {values.shape[0]}")
        if values.shape[1] < 1:
            raise DomainError("need at least one component")
        if not np.all(np.isfinite(values)):
            raise DomainError("grid function values must be finite")
        self.spec = spec
        self.values = values
        self.values.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, spec: GridSpec, c: float, n_components: int = 1) -> "GridFunction":
        return cls(spec, np.full((spec.ncells, n_components), float(c)))

    @classmethod
    def spike(cls, spec: GridSpec, cell: int, height: float = 1.0) -> "GridFunction":
        v = np.zeros((spec.ncells, 1))
        v[cell, 0] = height
        return cls(spec, v)

    def component(self, k: int) -> "GridFunction":
        return GridFunction(self.spec, self.values[:, k].copy())

    def restrict(self, cells: np.ndarray) -> "GridFunction":
        """Zero out everything outside the given cell set."""
        v = np.zeros_like(self.values)
        v[cells] = self.values[cells]
        return GridFunction(self.spec, v)

    def __repr__(self):
        return (f"GridFunction(d={self.spec.d}, K={self.spec.levels}, "
                f"N={self.n_components})")


@dataclass(frozen=True)
class DyadicCube:
    """A cube of a shifted dyadic lattice: side 2^level cells, integer corner.

    `shift` encodes a base-3 digit per axis: 0 -> no shift, 1 -> +third,
    2 -> -third.  Corners may be negative; the cube is always consumed through
    its intersection with (or wrap onto) the domain.
    """

    shift: int
    level: int
    corner: tuple

    @property
    def side(self) -> int:
        return 1 << self.level


def shift_offset(level: int, digit: int) -> int:
    """Integer lattice translation for one axis: 0, +t or -t with t ~ side/3.

    t = ((-2)^level - 1)/3 alternates sign with the level, which is exactly
    what keeps consecutive levels nested: offsets of adjacent levels differ
    by a multiple of the smaller side.
    """
    if digit == 0:
        return 0
    t = ((-2) ** level - 1) // 3
    return t if digit == 1 else -t


def _shift_digits(shift: int, d: int) -> tuple:
    digits = []
    for _ in range(d):
        digits.append(shift % 3)
        shift //= 3
    return tuple(digits)


def shift_list(spec: GridSpec, shifts: str) -> list:
    if shifts == "canonical":
        return [0]
    if shifts == "all":
        return list(range(3 ** spec.d))
    raise DomainError("shifts must be 'canonical' or 'all'")


def _axis_cube_ids(side: int, periodic: bool, level: int, digit: int):
    """Per-axis map coordinate -> normalized cube id, and the number of ids."""
    o = shift_offset(level, digit)
    x = np.arange(side, dtype=np.int64)
    if periodic:
        ids = ((x - o) % side) >> level
        n_ids = max(side >> level, 1)
    else:
        raw = (x - o) >> level
        lo = raw.min()
        ids = raw - lo
        n_ids = int(raw.max() - lo + 1)
    return ids, n_ids


def _build_cube_map(d: int, levels: int, periodic: bool, shift: int,
                    level: int):
    """Flat map cell -> cube id for one shift/level, plus cell counts per cube.

    Every cell belongs to exactly one cube of each shifted lattice at each
    level, so the map is total; `counts` gives |Q ∩ domain| per cube id.
    Cube ids are laid out like the cells, axis 0 most significant, so both
    are outer folds of the per-axis ids and per-axis counts.
    """
    cell_ids = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    for digit in _shift_digits(shift, d):
        ids, n = _axis_cube_ids(1 << levels, periodic, level, digit)
        cell_ids = np.add.outer(cell_ids * n, ids).ravel()
        counts = np.multiply.outer(counts, np.bincount(ids, minlength=n)).ravel()
    return cell_ids, counts, len(counts)


@lru_cache(maxsize=64)
def stacked_cube_map(spec: GridSpec, shifts: str):
    """Every distinct (level, shift) map of one grid and shift policy, stacked.

    Returns (ids, counts, starts, rows).  ids has one row per lattice,
    level-major and shifts in shift_list order, each row the cell -> cube id
    map of that lattice with its ids moved past those of all earlier rows;
    counts holds the cells per stacked id.  The levels lo..hi are the rows
    rows[lo]:rows[hi + 1] of ids, and their cube ids the contiguous range
    starts[lo]:starts[hi + 1].  A shift whose per-axis maps repeat those of
    one already listed at its level is skipped: at level 0 every shift is the
    unit-cell lattice, and on periodic grids every shift of the top level is
    the whole torus.  The distinct lattices are listed first, so ids is
    allocated once and each row written in place; this stack is the only
    cache of cell -> cube maps, and no per-level or per-axis map is kept
    beside it.
    """
    lattices, rows = [], []
    for level in range(spec.levels + 1):
        rows.append(len(lattices))
        seen = []
        for shift in shift_list(spec, shifts):
            axes = [_axis_cube_ids(spec.side, spec.periodic, level, digit)[0]
                    for digit in _shift_digits(shift, spec.d)]
            if any(all(map(np.array_equal, axes, kept)) for kept in seen):
                continue
            seen.append(axes)
            lattices.append((level, shift))
    rows.append(len(lattices))
    ids = np.empty((len(lattices), spec.ncells), dtype=np.int64)
    counts, offsets = [], [0]
    for row, (level, shift) in zip(ids, lattices):
        cell_ids, cube_counts, n_cubes = _build_cube_map(
            spec.d, spec.levels, spec.periodic, shift, level)
        np.add(cell_ids, offsets[-1], out=row)
        counts.append(cube_counts)
        offsets.append(offsets[-1] + n_cubes)
    counts = np.concatenate(counts)
    for a in (ids, counts):
        a.setflags(write=False)
    return ids, counts, tuple(offsets[r] for r in rows), tuple(rows)


def enumerate_cubes(spec: GridSpec,
                    shifts: str = "canonical") -> Iterator[DyadicCube]:
    """Yield every cube of the requested shifted lattices meeting the domain,
    shift-major, then level by level from the unit cubes up.

    Each cube appears exactly once per (shift, level, corner) triple.
    """
    for shift in shift_list(spec, shifts):
        digits = _shift_digits(shift, spec.d)
        for level in range(spec.levels + 1):
            step = 1 << level
            axis_corners = []
            for axis in range(spec.d):
                o = shift_offset(level, digits[axis])
                if spec.periodic:
                    n = max(spec.side >> level, 1)
                    axis_corners.append([(o + k * step) % spec.side
                                         for k in range(n)])
                else:
                    k_lo = -((o + step - 1) // step)  # ceil((-o-step+1)/step)
                    k_hi = (spec.side - 1 - o) // step
                    axis_corners.append([o + k * step
                                         for k in range(k_lo, k_hi + 1)])
            for corner in itertools.product(*axis_corners):
                yield DyadicCube(shift=shift, level=level, corner=corner)


def cube_cells(spec: GridSpec, cube: DyadicCube) -> np.ndarray:
    """Flat indices of the cells of the cube (clipped or wrapped)."""
    return _cells_of_box(spec, cube.corner, cube.side)


def _cells_of_box(spec: GridSpec, corner: Sequence[int], side: int) -> np.ndarray:
    """Sorted flat indices of a box, folded axis by axis as the grid lays out
    its cells (axis 0 most significant).  Each axis's part is sorted and
    below the side, so the fold of sorted parts is sorted."""
    flat = None
    for c in corner:
        if spec.periodic:
            part = (c + np.arange(min(side, spec.side), dtype=np.int64)) \
                % spec.side
            part.sort()
        else:
            part = np.arange(max(c, 0), min(c + side, spec.side),
                             dtype=np.int64)
        flat = part if flat is None else \
            np.add.outer(flat * spec.side, part).ravel()
    return flat


def dilate(spec: GridSpec, cube: DyadicCube, factor: int) -> np.ndarray:
    """Cell set of the concentric dilate (clipped, or wrapped when periodic)."""
    if factor < 1 or factor % 2 == 0:
        raise DomainError("dilation factor must be odd and positive")
    side = cube.side
    new_side = factor * side
    corner = tuple(c - (factor - 1) // 2 * side for c in cube.corner)
    return _cells_of_box(spec, corner, new_side)


def children(spec: GridSpec, cube: DyadicCube) -> list:
    """The 2^d dyadic children of a cube (same shift), those meeting the domain."""
    if cube.level == 0:
        return []
    half = cube.side // 2
    out = []
    for offs in itertools.product((0, half), repeat=spec.d):
        corner = tuple((c + off) % spec.side if spec.periodic else c + off
                       for c, off in zip(cube.corner, offs))
        child = DyadicCube(shift=cube.shift, level=cube.level - 1, corner=corner)
        if spec.periodic or len(cube_cells(spec, child)) > 0:
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# power means and l^r norms


def power_mean(vals: np.ndarray, p: float) -> float | np.ndarray:
    """Generalized power mean of |vals| with exponent p.

    p = inf -> max, p = -inf -> min; p < 0 requires strictly positive values.
    A 1-d vals gives a float; a 2-d (k, m) vals gives the k row means as an
    array, each with the bits of the 1-d call on that row: the row's max
    (p > 0) or min (p < 0) is the scale, the scaled row is raised to p and
    summed pairwise along the row by numpy, as np.mean sums, and the root
    and the product with the scale are taken in Python floats.  An all-zero
    row has mean 0.0 for p > 0.
    """
    vals = np.abs(np.asarray(vals, dtype=np.float64))
    if vals.size == 0:
        raise DomainError("empty cell set")
    rows = vals if vals.ndim == 2 else vals.reshape(1, -1)
    if p == np.inf:
        means = rows.max(axis=1).tolist()
    elif p == 0:
        raise DomainError("exponent 0 is not supported")
    else:
        scale = rows.max(axis=1) if p > 0 else rows.min(axis=1)
        if p < 0 and not scale.all():
            raise NonpositiveValueError(
                "min-mean needs strictly positive values" if p == -np.inf
                else "negative-exponent mean needs strictly positive values")
        if p == -np.inf:
            means = scale.tolist()
        else:
            # an all-zero row (p > 0) is divided by 1 instead: its mean is 0
            divisor = np.where(scale > 0.0, scale, 1.0)
            inner = np.add.reduce((rows / divisor[:, None]) ** p,
                                  axis=1) / rows.shape[1]
            means = [s * m ** (1.0 / p)
                     for s, m in zip(scale.tolist(), inner.tolist())]
    return np.array(means) if vals.ndim == 2 else means[0]


def _column_sums(t: np.ndarray) -> np.ndarray:
    """The m column sums of a C-contiguous (n, m) array t, each with the bits
    of `np.sum(t.T, axis=1)`, by whole-row numpy calls.

    numpy sums each row of t.T in its own inner-loop call, in a fixed
    pairwise order (numpy 2.4): under 8 terms a plain loop from the first;
    up to 128, eight accumulators over blocks of 8, folded as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms in order;
    above 128, the sum of two halves split at n//2 rounded down to a
    multiple of 8.  Here each step adds whole rows of t, so the m sums
    cost a few numpy calls, not m of them.  A reduction down the rows of a
    C-contiguous t adds them one after another, which is the plain loop.
    """
    n = t.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sums(t[:half]) + _column_sums(t[half:])
    if n < 8:
        return np.add.reduce(t, axis=0)
    blocks = n - n % 8
    acc = np.add.reduce(t[:blocks].reshape(blocks // 8, 8, -1), axis=0)
    while len(acc) > 1:
        acc = acc[0::2] + acc[1::2]
    acc = acc[0]
    for row in t[blocks:]:
        acc = acc + row
    return acc


def lr_norm_rows(values: np.ndarray, r: float) -> np.ndarray:
    """Row-wise l^r (quasi-)norms of a 2-d array; r = inf is the sup norm.

    Each row has the bits of `scale * np.sum((a / scale) ** r, axis=1) **
    (1 / r)`, with a = |values| and scale the row max; an all-zero row gives
    0.0.  The work runs on the transposed array, one row per component, so
    the max and the `_column_sums` sum are whole-row calls over the cells
    rather than one numpy call per cell.
    """
    t = np.abs(values.T, order="C")
    scale = np.maximum.reduce(t, axis=0)
    if r == np.inf:
        return scale
    if r <= 0:
        raise DomainError("l^r exponent must be positive")
    out = np.zeros(t.shape[1])
    nz = scale > 0
    if np.any(nz):
        s = scale[nz]
        out[nz] = s * _column_sums(
            (t.compress(nz, axis=1) / s) ** r) ** (1.0 / r)
    return out


def holder_aggregate(entries: Sequence[float]) -> float:
    """1 / sum(1/e) with inf contributing 0; returns inf for an empty sum."""
    s = sum(0.0 if e == np.inf else 1.0 / e for e in entries)
    return np.inf if s == 0.0 else 1.0 / s

