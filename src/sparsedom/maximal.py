"""Maximal operators on dyadic grids.

Everything here reduces to one primitive, component_sup: the supremum, per
cell and component, of the product over input slots of per-cube power
means, taken over every cube of the 3^d shifted lattices (or the canonical
one).  The cell -> cube maps of every distinct (level, shift) lattice of a
grid are stacked into one id space, level-major.  Each slot and component
is normalized by its maximum and raised to the power p once; one bincount
of that power, tiled over the stack, gives every cube sum, the means of all
slots multiply into one product per cube, and a single gather and max over
the lattices scatters the products back to cells.  level_sups is its
per-level form on the whole grid: the same products, gathered and maxed one
level at a time.  Truncation is a range of its rows: a cube of side 2^j
lies in the half-open side-length window (s, t] iff s < 2^j <= t, so the
max of rows s'..t' is the window (2^(s'-1), 2^t'] and rows 0..K give the
untruncated operator.  The stopping-time constructor reads every node's
localized function and coarse-truncated function from one such pass.
Optional sorted cell arrays narrow component_sup's sums (support) and
gather (at) to the cells near a cube, as the constructor's exceedance
functions need; the scales stay those of the whole inputs, so every cube
whose nonzero input cells all lie in support keeps the bits of the
full-grid sum.  The l^r aggregate over components is applied at the end.
cube_averages, the power means over every canonical cube of levels 1..K
(side >= 2) in the order of their stacked ids, serves the weight
characteristics; it reads no map, since the canonical lattices form a full
2^d-ary tree whose level sums it adds up pairwise from the level below.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, NonpositiveValueError, ZeroInputError
from .lattice import (
    GridFunction,
    GridSpec,
    holder_aggregate,
    lr_norm_rows,
    stacked_cube_map,
)


def _check_common_spec(inputs: Sequence[GridFunction]):
    spec = inputs[0].spec
    n = inputs[0].n_components
    for f in inputs[1:]:
        if f.spec != spec:
            raise DomainError("inputs must share one grid spec")
        if f.n_components != n:
            raise DomainError("inputs must share the component count")
    return spec, n


def _check_ps(ps: Sequence[float]):
    for p in ps:
        if not (1.0 <= p < np.inf):
            raise DomainError(
                f"integrability exponents must lie in [1, inf), got {p}")


def cube_averages(spec: GridSpec, g: np.ndarray, p: float) -> np.ndarray:
    """Power means of |g| over every dyadic cube of side >= 2; g has shape
    (ncells,).

    Returns one value per canonical (shift-0) cube of levels 1..K,
    level-major and row-major within a level, which is the order of the
    canonical stacked ids of stacked_cube_map(spec, "canonical") past the
    ncells unit cubes: level j holds (2^(K-j))^d means, from offset
    sum_{0<i<j} (2^(K-i))^d.  Unit cubes are left out because a
    power mean over one cell is that cell's value, so no characteristic
    needs them.  The canonical lattices of a 2^K grid form a full 2^d-ary
    tree, clipped or periodic alike, so a level-j cube holds exactly
    2^(jd) cells and its sum is the sum of its 2^d children.  |g| / max|g|
    is raised to the power p once, in a scratch array of ncells; each level
    is then summed from the one below by strided pairwise adds along each
    axis (max or min for p = +-inf, which is exact) and multiplied by the
    exact power of two 2^(-jd).  Negative and infinite exponents are
    supported (negative ones require g > 0).
    """
    if p == 0:
        raise DomainError("exponent 0 is not supported")
    d, side = spec.d, spec.side
    starts = np.cumsum([0] + [(side >> j) ** d
                              for j in range(1, spec.levels + 1)])
    a = np.abs(np.asarray(g, dtype=np.float64))
    finite = p not in (np.inf, -np.inf)
    if finite:
        if p < 0 and np.any(a == 0.0):
            raise NonpositiveValueError(
                "negative-exponent averages need positive values")
        scale = float(a.max())
        if scale == 0.0:
            return np.zeros(starts[-1])
        a /= scale
        a **= p
    reduce = np.add if finite else (np.maximum if p > 0 else np.minimum)
    out = np.empty(starts[-1])
    block = a.reshape((side,) * d)
    for j in range(1, spec.levels + 1):
        level = out[starts[j - 1]:starts[j]].reshape((side >> j,) * d)
        for axis in range(d):
            keep = (slice(None),) * axis
            block = reduce(block[keep + (slice(0, None, 2),)],
                           block[keep + (slice(1, None, 2),)],
                           out=level if axis == d - 1 else None)
    if finite:
        for j in range(1, spec.levels + 1):
            out[starts[j - 1]:starts[j]] *= 1.0 / (1 << j * d)
        out **= 1.0 / p
        out *= scale
    return out


def _cube_products(inputs, ps, shifts, support, at):
    """The arithmetic component_sup and level_sups share.

    Returns (prod, gathered, rows).  prod[k] holds, per stacked cube id,
    component k's product over slots of the power means; gathered holds the
    rows of the stacked map at the cells of at, and rows[j]:rows[j + 1] are
    the rows of level j.  A support or at covering the grid keeps the
    stacked map as it is.
    """
    spec, n_comp = _check_common_spec(inputs)
    _check_ps(ps)
    if len(ps) != len(inputs):
        raise DomainError("one exponent per input slot required")
    ids, counts, rows = stacked_cube_map(spec, shifts)
    support, at = (None if c is None or len(c) == spec.ncells else c
                   for c in (support, at))
    summed = ids if support is None else ids[:, support]
    gathered = ids if at is None else ids[:, at]
    prod = np.ones((n_comp, len(counts)))
    for f, p in zip(inputs, ps):
        a = np.abs(f.values)
        for k in range(n_comp):
            scale = float(a[:, k].max()) or 1.0
            col = a[:, k] if support is None else a[support, k]
            powered = np.tile((col / scale) ** p, len(ids))
            sums = np.bincount(summed.ravel(), weights=powered,
                               minlength=len(counts))
            prod[k] *= scale * (sums / counts) ** (1.0 / p)
    return prod, gathered, rows


def component_sup(inputs: Sequence[GridFunction], ps: Sequence[float],
                  shifts: str = "all", support=None, at=None) -> np.ndarray:
    """sup over admissible cubes of prod_j <f^j_k>_{p_j,Q}, per cell and component.

    Shape (ncells, N), C-contiguous.  This is the inner supremum of the
    vector-valued multilinear maximal function before the l^r aggregation.
    One bincount per slot and component sums |f^j_k / max f^j_k|^p_j over
    every cube of the (level, shift) lattices at once, on the stacked
    cell -> cube map; each bin adds its cells in increasing cell order, so
    every mean has the bits of a one-lattice computation.  The means
    multiply into one product per stacked cube, slot by slot, and one
    gather back to cells with a max over the lattices finishes the
    supremum.  An all-zero component keeps scale 1, giving +0.0 means.
    With every shift, the result is the max of level_sups' rows, which
    share these products; max is exact, so both give the same bits.

    support and at are sorted arrays of distinct cells, or None for every
    cell: the bincounts sum only the cells of support, and the gather reads
    only the cells of at, returning shape (len(at), N).  The scales stay
    the maxima over the whole inputs, so a cube whose cells in support
    include every cell where the inputs are nonzero gets the bits of the
    full-grid mean: an omitted cell would have added +0.0.  The result
    equals the full-grid call's rows at at whenever every cube that meets
    at is such a cube.
    """
    prod, gathered, _ = _cube_products(inputs, ps, shifts, support, at)
    out = np.empty((gathered.shape[1], len(prod)))
    for k in range(len(prod)):
        out[:, k] = prod[k].take(gathered).max(axis=0)
    return out


def level_sups(inputs: Sequence[GridFunction],
               ps: Sequence[float]) -> np.ndarray:
    """component_sup one level at a time: shape (levels + 1, ncells, N).

    Row j is the supremum over the cubes of level j alone, its lattices of
    every shift, on the whole grid, with the bits of component_sup's
    products.  max is exact, so the max of rows s..t is, bit for bit, the
    supremum truncated to the window (2^(s-1), 2^t]: this is how the
    package truncates.  The stopping-time constructor takes every node's
    localized function (rows 0..level(Q), a running max from row 0 up) and
    coarse-truncated function (rows level(L)+1..level(Q) for a child L)
    from this one pass per slot group.
    """
    prod, gathered, rows = _cube_products(inputs, ps, "all", None, None)
    out = np.empty((len(rows) - 1, gathered.shape[1], len(prod)))
    for j in range(len(rows) - 1):
        level = gathered[rows[j]:rows[j + 1]]
        for k in range(len(prod)):
            out[j, :, k] = prod[k].take(level).max(axis=0)
    return out


def vector_maximal(inputs: Sequence[GridFunction], ps: Sequence[float],
                   r: float = 1.0, shifts: str = "all") -> GridFunction:
    """The vector-valued multilinear maximal function, one scalar per cell.

    At each cell x this is || sup_Q prod_j <f^j_k>_{p_j,Q} ||_{l^r(k)} with the
    supremum over the cubes of the shift policy that contain x.  The
    truncated operator is the l^r norm of a max over a range of
    level_sups' rows.
    """
    sup = component_sup(inputs, ps, shifts=shifts)
    spec = inputs[0].spec
    return GridFunction(spec, lr_norm_rows(sup, r))


def partitioned_maximal(inputs, ps, rs, partition) -> GridFunction:
    """prod over blocks I of M_{p_I, r_I}({f^j}_{j in I}) for a slot partition;
    singleton blocks give the pointwise Hoelder majorant."""
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
