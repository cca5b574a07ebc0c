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

import csv
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyCubeError,
    ExponentDomainError,
    NonpositiveValueError,
    SpecMismatchError,
)


@dataclass(frozen=True)
class GridSpec:
    """A d-dimensional periodic or clipped grid with 2^levels cells per side."""

    d: int
    levels: int
    periodic: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.d * self.levels > 26:
            raise ValueError("grid too large for desk-scale use")

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

    def flat_index(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        flat = np.zeros(coords.shape[:-1], dtype=np.int64)
        for axis in range(self.d):
            flat = flat * self.side + coords[..., axis]
        return flat


class GridFunction:
    """A vector-valued function on a grid: values has shape (ncells, N)."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != spec.ncells:
            raise SpecMismatchError(
                f"expected {spec.ncells} cells, got {values.shape[0]}")
        if values.shape[1] < 1:
            raise SpecMismatchError("need at least one component")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
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

    def abs_lr_over_components(self, r: float) -> np.ndarray:
        """Pointwise l^r norm over components, shape (ncells,)."""
        return lr_norm_rows(self.values, r)

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


def n_shifts(spec: GridSpec) -> int:
    return 3 ** spec.d


def shift_list(spec: GridSpec, shifts: str) -> list:
    if shifts == "canonical":
        return [0]
    if shifts == "all":
        return list(range(n_shifts(spec)))
    raise ValueError("shifts must be 'canonical' or 'all'")


@lru_cache(maxsize=4096)
def _axis_cube_ids(side: int, periodic: bool, level: int, digit: int):
    """Per-axis map coordinate -> (normalized cube id, corner of that cube)."""
    o = shift_offset(level, digit)
    x = np.arange(side, dtype=np.int64)
    step = 1 << level
    if periodic:
        ids = ((x - o) % side) >> level
        n_ids = max(side >> level, 1)
        corners = (o + ids * step) % side
    else:
        raw = (x - o) >> level
        lo = raw.min()
        ids = raw - lo
        n_ids = int(raw.max() - lo + 1)
        corners = o + (ids + lo) * step
    ids.setflags(write=False)
    corners.setflags(write=False)
    return ids, n_ids, corners


@lru_cache(maxsize=4096)
def _cube_maps(d: int, levels: int, periodic: bool, shift: int, level: int):
    """Flat map cell -> cube id for one shift/level, plus cell counts per cube.

    Every cell belongs to exactly one cube of each shifted lattice at each
    level, so the map is total; `counts` gives |Q ∩ domain| per cube id.
    """
    spec = GridSpec(d, levels, periodic)
    digits = _shift_digits(shift, d)
    axis_ids = []
    n_ids = []
    for axis in range(d):
        ids, n, _ = _axis_cube_ids(spec.side, periodic, level, digits[axis])
        axis_ids.append(ids)
        n_ids.append(n)
    cell_ids = np.zeros(spec.ncells, dtype=np.int64)
    coords = spec.cell_coords(np.arange(spec.ncells))
    for axis in range(d):
        cell_ids = cell_ids * n_ids[axis] + axis_ids[axis][coords[:, axis]]
    n_cubes = int(np.prod(n_ids))
    counts = np.bincount(cell_ids, minlength=n_cubes)
    cell_ids.setflags(write=False)
    counts.setflags(write=False)
    return cell_ids, counts, n_cubes


def cell_to_cube_map(spec: GridSpec, shift: int, level: int):
    """Public accessor for the (cell -> cube id, counts, n_cubes) map."""
    return _cube_maps(spec.d, spec.levels, spec.periodic, shift, level)


def cube_of_cell(spec: GridSpec, cell: int, shift: int, level: int) -> DyadicCube:
    digits = _shift_digits(shift, spec.d)
    coords = spec.cell_coords(np.array([cell]))[0]
    corner = []
    for axis in range(spec.d):
        ids, _, corners = _axis_cube_ids(spec.side, spec.periodic, level,
                                         digits[axis])
        corner.append(int(corners[coords[axis]]))
    return DyadicCube(shift=shift, level=level, corner=tuple(corner))


def enumerate_cubes(spec: GridSpec, shifts: str = "canonical",
                    levels: Iterable[int] | None = None) -> Iterator[DyadicCube]:
    """Yield every cube of the requested shifted lattices meeting the domain.

    Each cube appears exactly once per (shift, level, corner) triple.
    """
    if levels is None:
        levels = range(spec.levels + 1)
    for shift in shift_list(spec, shifts):
        digits = _shift_digits(shift, spec.d)
        for level in levels:
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
    return np.sort(spec.flat_index(coords))


def cube_size(spec: GridSpec, cube: DyadicCube) -> int:
    """|Q ∩ domain| in cells (exact integer)."""
    return len(cube_cells(spec, cube))


def dilate(spec: GridSpec, cube: DyadicCube, factor: int) -> np.ndarray:
    """Cell set of the concentric dilate (clipped, or wrapped when periodic)."""
    if factor < 1 or factor % 2 == 0:
        raise ValueError("dilation factor must be odd and positive")
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
        if spec.periodic or cube_size(spec, child) > 0:
            out.append(child)
    return out


# ---------------------------------------------------------------------------
# power means and l^r norms


def power_mean(vals: np.ndarray, p: float) -> float:
    """Generalized power mean of |vals| with exponent p.

    p = inf -> max, p = -inf -> min; p < 0 requires strictly positive values.
    """
    vals = np.abs(np.asarray(vals, dtype=np.float64))
    if vals.size == 0:
        raise EmptyCubeError("empty cell set")
    if p == np.inf:
        return float(vals.max())
    if p == -np.inf:
        if np.any(vals == 0.0):
            raise NonpositiveValueError("min-mean needs strictly positive values")
        return float(vals.min())
    if p == 0:
        raise ExponentDomainError("exponent 0 is not supported")
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


def lr_norm(a: Sequence[float], r: float) -> float:
    """l^r (quasi-)norm of a vector; r = inf is the sup norm."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    if r == np.inf:
        return float(a.max()) if a.size else 0.0
    if r <= 0:
        raise ExponentDomainError("l^r exponent must be positive")
    scale = float(a.max()) if a.size else 0.0
    if scale == 0.0:
        return 0.0
    return scale * float(np.sum((a / scale) ** r)) ** (1.0 / r)


def lr_norm_rows(values: np.ndarray, r: float) -> np.ndarray:
    """Row-wise l^r norms of a 2-d array (vectorized lr_norm)."""
    a = np.abs(values)
    if r == np.inf:
        return a.max(axis=1)
    if r <= 0:
        raise ExponentDomainError("l^r exponent must be positive")
    scale = a.max(axis=1)
    out = np.zeros(a.shape[0])
    nz = scale > 0
    if np.any(nz):
        out[nz] = scale[nz] * np.sum(
            (a[nz] / scale[nz, None]) ** r, axis=1) ** (1.0 / r)
    return out


# ---------------------------------------------------------------------------
# exponent tuples


def holder_aggregate(entries: Sequence[float]) -> float:
    """1 / sum(1/e) with inf contributing 0; returns inf for an empty sum."""
    s = sum(0.0 if e == np.inf else 1.0 / e for e in entries)
    return np.inf if s == 0.0 else 1.0 / s


@dataclass(frozen=True)
class ExponentTuple:
    """Tuple of exponents with a role tag: 'integrability', 'vector', 'lebesgue'."""

    entries: tuple
    role: str = "integrability"

    def __post_init__(self):
        entries = tuple(float(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.role not in ("integrability", "vector", "lebesgue"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == "integrability":
            for e in entries:
                if not (1.0 <= e < np.inf):
                    raise ExponentDomainError(
                        f"integrability exponents must lie in [1, inf), got {e}")
        else:
            for e in entries:
                if not (0.0 < e):
                    raise ExponentDomainError(
                        f"exponents must be positive, got {e}")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def aggregate(self) -> float:
        return holder_aggregate(self.entries)


def is_banach_holder_tuple(rs: Sequence[float], tol: float = 1e-12) -> bool:
    """Check r_{n+1}/(r_{n+1}-1) == 1/sum_{j<=n} 1/r_j within tolerance."""
    rs = [float(r) for r in rs]
    if len(rs) < 2 or any(r < 1.0 for r in rs):
        return False
    last = rs[-1]
    if last == 1.0:
        conj = np.inf
    elif last == np.inf:
        conj = 1.0
    else:
        conj = last / (last - 1.0)
    agg = holder_aggregate(rs[:-1])
    if conj == np.inf or agg == np.inf:
        return conj == agg
    return abs(conj - agg) <= tol * max(1.0, abs(conj))


# ---------------------------------------------------------------------------
# serialization

_HEADER = "# sparsedom gridfunction v1"


def save_gridfunction(f: GridFunction, path) -> None:
    """Textual format: header line, then 'd K N periodic', then one row per cell."""
    with open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        fh.write(f"{f.spec.d} {f.spec.levels} {f.n_components} "
                 f"{int(f.spec.periodic)}\n")
        np.savetxt(fh, f.values, fmt="%.17g")


def load_gridfunction(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _HEADER:
            raise ValueError(f"not a sparsedom gridfunction file: {path}")
        d, levels, n, periodic = (int(tok) for tok in fh.readline().split())
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (GridSpec(d, levels).ncells, n):
        raise ValueError("value block does not match header")
    return GridFunction(GridSpec(d, levels, bool(periodic)), values)


def gridfunction_from_csv(path, periodic: bool = False) -> GridFunction:
    """Import a 1-d grid function from CSV: one row per cell, one column per component."""
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    values = np.asarray(rows)
    ncells = values.shape[0]
    levels = int(ncells).bit_length() - 1
    if 1 << levels != ncells or levels < 1:
        raise ValueError("CSV must have a power-of-two number of rows (>= 2)")
    return GridFunction(GridSpec(1, levels, periodic), values)
