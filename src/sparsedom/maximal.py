"""Maximal operators on dyadic grids.

Everything here reduces to one primitive: for each shifted lattice and each
level inside a truncation window, compute per-cube power means of each input
component, form the product over input slots, scatter back to cells, and keep
a running pointwise maximum.  The l^r aggregate over components is applied at
the end.  The power means of one array, exponent and shift share one
normalized power |g/max g|^p; each level sums it per cube with one bincount.
Truncation windows are half-open side-length intervals (s, t]: a cube of side
2^j participates iff s < 2^j <= t, so (0, 2^K] is the full untruncated
operator and the one-cell truncation floor corresponds to any s < 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    EmptyCubeFamilyError,
    ExponentDomainError,
    SpecMismatchError,
    ZeroInputError,
)
from .lattice import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cell_to_cube_map,
    cube_cells,
    holder_aggregate,
    lr_norm_rows,
    shift_list,
)


def _check_common_spec(inputs: Sequence[GridFunction]):
    spec = inputs[0].spec
    n = inputs[0].n_components
    for f in inputs[1:]:
        if f.spec != spec:
            raise SpecMismatchError("inputs must share one grid spec")
        if f.n_components != n:
            raise SpecMismatchError("inputs must share the component count")
    return spec, n


def _check_ps(ps: Sequence[float]):
    for p in ps:
        if not (1.0 <= p < np.inf):
            raise ExponentDomainError(
                f"integrability exponents must lie in [1, inf), got {p}")


def cube_averages(spec: GridSpec, g: np.ndarray, p: float, shift: int,
                  levels: Sequence[int]) -> list:
    """Power means of |g| over every cube of one shift; g has shape (ncells,).

    Returns one array per entry of levels, holding one value per cube id of
    that (shift, level) lattice.  |g| / max|g| is raised to the power p once,
    then summed per cube with one bincount per level; since the scale does
    not depend on the level, every mean is the one a single-level call gives.
    Negative and infinite exponents are supported (negative ones require
    g > 0).
    """
    maps = [cell_to_cube_map(spec, shift, level) for level in levels]
    a = np.abs(np.asarray(g, dtype=np.float64))
    if p in (np.inf, -np.inf):
        reduce, fill = (np.maximum, 0.0) if p > 0 else (np.minimum, np.inf)
        out = []
        for ids, _, n_cubes in maps:
            m = np.full(n_cubes, fill)
            reduce.at(m, ids, a)
            out.append(m)
        return out
    if p == 0:
        raise ExponentDomainError("exponent 0 is not supported")
    scale = float(a.max())
    if scale == 0.0:
        if p < 0:
            raise ValueError("negative-exponent averages need positive values")
        return [np.zeros(n_cubes) for _, _, n_cubes in maps]
    if p < 0 and np.any(a == 0.0):
        raise ValueError("negative-exponent averages need positive values")
    powered = (a / scale) ** p
    return [scale * (np.bincount(ids, weights=powered, minlength=n_cubes)
                     / counts) ** (1.0 / p)
            for ids, counts, n_cubes in maps]


def _window_levels(spec: GridSpec, window) -> list:
    """Levels whose side length falls in the half-open interval (s, t]."""
    if window is None:
        return list(range(spec.levels + 1))
    s, t = window
    if not (s < t):
        raise ExponentDomainError("truncation window needs s < t")
    out = [j for j in range(spec.levels + 1) if s < (1 << j) <= t]
    if not out:
        raise EmptyCubeFamilyError(
            f"window ({s}, {t}] admits no cube level on a K={spec.levels} grid")
    return out


def component_sup(inputs: Sequence[GridFunction], ps: Sequence[float],
                  shifts: str = "all", window=None) -> np.ndarray:
    """sup over admissible cubes of prod_j <f^j_k>_{p_j,Q}, per cell and component.

    Shape (ncells, N).  This is the inner supremum of the vector-valued
    multilinear maximal function before the l^r aggregation.
    """
    spec, n_comp = _check_common_spec(inputs)
    _check_ps(ps)
    if len(ps) != len(inputs):
        raise SpecMismatchError("one exponent per input slot required")
    levels = _window_levels(spec, window)
    best = np.zeros((spec.ncells, n_comp))
    for shift in shift_list(spec, shifts):
        means = [[cube_averages(spec, f.values[:, k], p, shift, levels)
                  for k in range(n_comp)] for f, p in zip(inputs, ps)]
        for i, level in enumerate(levels):
            ids, _, n_cubes = cell_to_cube_map(spec, shift, level)
            prod = np.ones((n_cubes, n_comp))
            for slot in means:
                for k in range(n_comp):
                    prod[:, k] *= slot[k][i]
            np.maximum(best, prod[ids, :], out=best)
    return best


def vector_maximal(inputs: Sequence[GridFunction], ps: Sequence[float],
                   r: float = 1.0, shifts: str = "all",
                   window=None) -> GridFunction:
    """The vector-valued multilinear maximal function, one scalar per cell.

    At each cell x this is || sup_Q prod_j <f^j_k>_{p_j,Q} ||_{l^r(k)} with the
    supremum over cubes containing x that are admissible for the window and
    shift policy.  A window (s, t] gives the truncated operator; None gives
    the full one.
    """
    sup = component_sup(inputs, ps, shifts=shifts, window=window)
    spec = inputs[0].spec
    return GridFunction(spec, lr_norm_rows(sup, r))


def localized_maximal(inputs, ps, r, cube: DyadicCube) -> GridFunction:
    """1_Q times the maximal function truncated to sides <= side(Q).

    By support considerations this only sees input values on the 3-fold
    dilate of Q, so restricting the inputs to 3Q first gives the identical
    result (asserted in the test suite).
    """
    spec = inputs[0].spec
    out = vector_maximal(inputs, ps, r, window=(0, cube.side))
    mask = np.zeros(spec.ncells)
    mask[cube_cells(spec, cube)] = 1.0
    return GridFunction(spec, out.values[:, 0] * mask)


def holder_dominator(inputs, ps, rs) -> GridFunction:
    """prod_j M_{p_j, r_j}(f^j), the pointwise Hoelder majorant."""
    spec, _ = _check_common_spec(inputs)
    out = np.ones(spec.ncells)
    for f, p, r in zip(inputs, ps, rs):
        out *= vector_maximal([f], (p,), r=r).values[:, 0]
    return GridFunction(spec, out)


def partitioned_maximal(inputs, ps, rs, partition) -> GridFunction:
    """prod over blocks I of M_{p_I, r_I}({f^j}_{j in I}) for a slot partition."""
    spec, _ = _check_common_spec(inputs)
    out = np.ones(spec.ncells)
    for block in partition:
        block = list(block)
        r_block = holder_aggregate([rs[j] for j in block])
        out *= vector_maximal([inputs[j] for j in block],
                              [ps[j] for j in block],
                              r=r_block).values[:, 0]
    return GridFunction(spec, out)


def mixed_norm(f: GridFunction, q: float, r: float,
               weight: np.ndarray | None = None) -> float:
    """|| ||f(x)||_{l^r} ||_{L^q(mu)} with mu counting measure or a weight."""
    g = lr_norm_rows(f.values, r)
    w = np.ones_like(g) if weight is None else np.asarray(weight, dtype=float)
    if q == np.inf:
        return float(g[w > 0].max()) if np.any(w > 0) else 0.0
    return float(np.sum(w * g ** q)) ** (1.0 / q)


def weak_type_quotient(inputs, ps, rs) -> float:
    """Weak-type operator quotient at the natural endpoint, counting measure.

    sup_lambda lambda * |{M > lambda}|^{1/p} over the breakpoints of the
    output's level sets, divided by prod_j ||f^j||_{L^{p_j}(l^{r_j})}; the
    supremum of the piecewise expression is attained at a distinct output
    value, so scanning the sorted values is exact.
    """
    _check_common_spec(inputs)
    p = holder_aggregate(ps)
    r = holder_aggregate(rs)
    m_out = vector_maximal(inputs, ps, r=r).values[:, 0]
    denom = 1.0
    for f, pj, rj in zip(inputs, ps, rs):
        nj = mixed_norm(f, pj, rj)
        if nj == 0.0:
            raise ZeroInputError("an input factor norm vanishes")
        denom *= nj
    vals = m_out[np.argsort(m_out)[::-1]]
    cum = np.arange(1.0, len(vals) + 1)  # |{M >= vals[i]}| at block ends
    best = 0.0
    for i in range(len(vals)):
        if i + 1 < len(vals) and vals[i + 1] == vals[i]:
            continue  # measure of {M >= v} needs the whole tie block
        if vals[i] > 0:
            best = max(best, vals[i] * cum[i] ** (1.0 / p))
    return best / denom
