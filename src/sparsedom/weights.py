"""Weight classes on dyadic grids.

A weight is a strictly positive scalar grid function.  Every class used here
is of reverse-chain type: w lies in RC(alpha, beta) when its beta-power means
are uniformly controlled by its alpha-power means over lattice cubes, and the
characteristic is the supremum of that ratio.  Muckenhoupt A_t is
RC(1/(1-t), 1) (with alpha = -inf when t = 1) and reverse Hoelder RH_t is
RC(1, t), so one ratio sweep serves all three.

Finiteness of a characteristic is an asymptotic statement; on a finite grid
it is operationalized by a refinement protocol: sample the same weight
profile at increasing resolutions and classify by the growth of the
characteristic (ratio at the last refinement at most 1.25: finite; at least
2 across two consecutive refinements: infinite; anything else inconclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import maximal
from .errors import (
    ExponentDomainError,
    ExponentOrderError,
    NonpositiveValueError,
    SpecMismatchError,
)
from .lattice import (
    GridFunction,
    GridSpec,
    cell_to_cube_map,
    holder_aggregate,
    shift_list,
)


class Weight:
    """Strictly positive scalar function on a grid."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != spec.ncells:
            raise SpecMismatchError("weight size does not match the grid")
        if not np.all(np.isfinite(values)) or values.min() <= 0.0:
            raise NonpositiveValueError("weights must be finite and positive")
        self.spec = spec
        self.values = values
        self.values.setflags(write=False)

    def power(self, e: float) -> "Weight":
        return Weight(self.spec, self.values ** e)

    def inverse(self) -> "Weight":
        return self.power(-1.0)

    def as_gridfunction(self) -> GridFunction:
        return GridFunction(self.spec, self.values.copy())

    def __repr__(self):
        return f"Weight(spec={self.spec}, min={self.values.min():.3g}, " \
               f"max={self.values.max():.3g})"


@dataclass
class WeightVector:
    """Component weights v_1..v_n with exponents q_j and product v.

    The product v = prod_j v_j^{q/q_j} with 1/q = sum_j 1/q_j is recomputed
    and, when a candidate v is supplied, checked against it to 1e-12 relative.
    """

    components: list
    qs: tuple
    v: Weight | None = None

    def __post_init__(self):
        if len(self.components) != len(self.qs):
            raise SpecMismatchError("one exponent per weight component")
        spec = self.components[0].spec
        for w in self.components:
            if w.spec != spec:
                raise SpecMismatchError("weight components on different grids")
        self.qs = tuple(float(q) for q in self.qs)
        self.q = holder_aggregate(self.qs)
        prod = np.ones(spec.ncells)
        for w, qj in zip(self.components, self.qs):
            prod *= w.values ** (self.q / qj)
        if self.v is None:
            self.v = Weight(spec, prod)
        else:
            rel = np.max(np.abs(self.v.values - prod) / prod)
            if rel > 1e-12:
                raise SpecMismatchError(
                    f"stored product weight is off by {rel:.3g} relative")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def spec(self) -> GridSpec:
        return self.components[0].spec


def _ratio_sweep(w: Weight, num, den, shifts: str) -> float:
    """sup over cubes of <w>_num / <w>_den for a pair of exponents."""
    spec = w.spec
    best = -np.inf
    for shift in shift_list(spec, shifts):
        for level in range(spec.levels + 1):
            hi = maximal.cube_averages(spec, w.values, num, shift, level)
            lo = maximal.cube_averages(spec, w.values, den, shift, level)
            best = max(best, float(np.max(hi / lo)))
    return best


def rc_characteristic(w: Weight, alpha: float, beta: float,
                      shifts: str = "canonical") -> float:
    """sup_Q <w>_{beta,Q} / <w>_{alpha,Q}; at least 1 by power-mean monotonicity.

    alpha = -inf and beta = inf mean the min and max over the cube.
    """
    if not alpha < beta:
        raise ExponentOrderError(f"need alpha < beta, got {alpha} >= {beta}")
    if alpha == 0 or beta == 0:
        raise ExponentDomainError("exponent 0 is not supported")
    return _ratio_sweep(w, beta, alpha, shifts)


def muckenhoupt_characteristic(w: Weight, t: float,
                               shifts: str = "canonical") -> float:
    """A_t characteristic: RC(1/(1-t), 1), with alpha = -inf when t = 1."""
    if t < 1:
        raise ExponentDomainError(f"Muckenhoupt parameter must be >= 1, got {t}")
    alpha = -np.inf if t == 1 else 1.0 / (1.0 - t)
    return rc_characteristic(w, alpha, 1.0, shifts=shifts)


def reverse_holder_characteristic(w: Weight, t: float,
                                  shifts: str = "canonical") -> float:
    """RH_t characteristic: RC(1, t)."""
    if t <= 1:
        raise ExponentDomainError(f"reverse Hoelder parameter must exceed 1, got {t}")
    return rc_characteristic(w, 1.0, t, shifts=shifts)


def multilinear_exponents(qs: Sequence[float], ts: Sequence[float]):
    """Inner power-mean exponents of the multilinear characteristic.

    Returns (component exponents s_j = t_j/(q_j - t_j), product exponent
    s = t_{n+1}/(q - (q-1) t_{n+1}), q).  Raises ExponentDomainError whenever
    a denominator is nonpositive, without guessing an extension.
    """
    qs = [float(q) for q in qs]
    ts = [float(t) for t in ts]
    if len(ts) != len(qs) + 1:
        raise SpecMismatchError("need one t per component plus one for the product")
    q = holder_aggregate(qs)
    inner = []
    for qj, tj in zip(qs, ts):
        if not 0 < tj < qj:
            raise ExponentDomainError(
                f"component parameter needs 0 < t={tj} < q_j={qj}")
        inner.append(tj / (qj - tj))
    t_last = ts[-1]
    den = q - (q - 1.0) * t_last
    if t_last <= 0 or den <= 0:
        raise ExponentDomainError(
            f"product exponent denominator q-(q-1)t = {den} must be positive")
    return inner, t_last / den, q


def multilinear_characteristic(wv: WeightVector, ts: Sequence[float],
                               shifts: str = "canonical") -> float:
    """sup_Q <v>^{1/q}_{s,Q} prod_j <v_j^{-1}>^{1/q_j}_{s_j,Q} (the mwc sup)."""
    inner, outer, q = multilinear_exponents(wv.qs, ts)
    spec = wv.spec
    inv = [w.inverse() for w in wv.components]
    best = -np.inf
    for shift in shift_list(spec, shifts):
        for level in range(spec.levels + 1):
            term = maximal.cube_averages(spec, wv.v.values, outer,
                                         shift, level) ** (1.0 / q)
            for w, sj, qj in zip(inv, inner, wv.qs):
                term = term * maximal.cube_averages(spec, w.values, sj,
                                                    shift, level) ** (1.0 / qj)
            best = max(best, float(np.max(term)))
    return best


def weighted_norm(f: GridFunction, q: float, w: Weight | None = None,
                  r: float | None = None) -> float:
    """(sum_x ||f(x)||_{l^r}^q w(x))^{1/q}; r absent means scalar input."""
    if r is None:
        if f.n_components != 1:
            raise SpecMismatchError("vector input needs an aggregation exponent r")
        r = 1.0
    weight = None if w is None else w.values
    return maximal.mixed_norm(f, q, r, weight=weight)


def make_power_weight(spec: GridSpec, a: float, center="center") -> Weight:
    """Weight (dist(x, center) + 1/2)^a with Euclidean distance of cell centers.

    center is a coordinate tuple, "center" (middle of the domain) or "edge"
    (the domain corner).
    """
    if center == "center":
        point = np.full(spec.d, spec.side / 2.0)
    elif center == "edge":
        point = np.zeros(spec.d)
    else:
        point = np.asarray(center, dtype=np.float64)
        if point.shape != (spec.d,):
            raise SpecMismatchError("center must have one coordinate per axis")
    coords = spec.cell_coords(np.arange(spec.ncells)) + 0.5
    dist = np.sqrt(np.sum((coords - point) ** 2, axis=1))
    return Weight(spec, (dist + 0.5) ** a)


def p_form(gs: Sequence[GridFunction], ps: Sequence[float],
           region: np.ndarray | None = None, shifts: str = "all") -> float:
    """sum over F of M_{(p_1..p_n)}(g^1..g^n) times M_{p_{n+1}} g^{n+1}."""
    if len(gs) != len(ps) or len(gs) < 2:
        raise SpecMismatchError("need n+1 >= 2 inputs with matching exponents")
    if any(g.n_components != 1 for g in gs):
        raise SpecMismatchError("the scalar form needs N = 1 inputs")
    front = maximal.vector_maximal(
        list(gs[:-1]), list(ps[:-1]), shifts=shifts).values[:, 0]
    last = maximal.vector_maximal(
        [gs[-1]], [ps[-1]], shifts=shifts).values[:, 0]
    prod = front * last
    if region is None:
        return float(np.sum(prod))
    region = np.asarray(region, dtype=np.int64)
    return float(np.sum(prod[region])) if len(region) else 0.0


# ---------------------------------------------------------------------------
# refinement protocol

FINITE, INFINITE, INCONCLUSIVE = "finite", "infinite", "inconclusive"


def classify_growth(values: Sequence[float]) -> str:
    """Classify characteristic growth across successive grid refinements.

    finite: the last refinement grew the characteristic by at most 25 percent;
    infinite: the last two refinements each at least doubled it;
    inconclusive otherwise (including non-finite samples).
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise SpecMismatchError("need characteristics at two or more resolutions")
    if not all(np.isfinite(v) and v > 0 for v in vals):
        return INCONCLUSIVE
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    if ratios[-1] <= 1.25:
        return FINITE
    if len(ratios) >= 2 and ratios[-1] >= 2.0 and ratios[-2] >= 2.0:
        return INFINITE
    return INCONCLUSIVE


@dataclass
class RefinementVerdict:
    verdict: str
    levels: tuple
    values: tuple

    def __str__(self):
        pts = ", ".join(f"K={k}: {v:.4g}" for k, v in
                        zip(self.levels, self.values))
        return f"{self.verdict} ({pts})"


def refinement_protocol(weight_at: Callable[[int], object],
                        characteristic: Callable[[object], float],
                        levels: Sequence[int] = (8, 10, 12)) -> RefinementVerdict:
    """Run the finiteness protocol: sample at each K and classify the growth.

    weight_at(K) produces the weight data at resolution K (a Weight, a
    WeightVector, or anything the characteristic callable accepts).
    """
    levels = tuple(int(k) for k in levels)
    values = tuple(characteristic(weight_at(k)) for k in levels)
    return RefinementVerdict(classify_growth(values), levels, values)


def power_weight_protocol(d: int, a: float, center,
                          characteristic: Callable[[Weight], float],
                          levels: Sequence[int] = (8, 10, 12),
                          periodic: bool = False) -> RefinementVerdict:
    """Refinement protocol for one power weight profile."""
    return refinement_protocol(
        lambda k: make_power_weight(GridSpec(d, k, periodic), a, center),
        characteristic, levels=levels)
