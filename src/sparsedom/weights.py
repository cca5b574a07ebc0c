"""Weight classes on dyadic grids.

A weight is a strictly positive scalar grid function.  Every class used here
is of reverse-chain type: w lies in RC(alpha, beta) when its beta-power means
are uniformly controlled by its alpha-power means over cubes, and the
characteristic is the supremum of that ratio.  Muckenhoupt A_t is
RC(1/(1-t), 1) (with alpha = -inf when t = 1) and reverse Hoelder RH_t is
RC(1, t), so one ratio sweep serves all three.  Every characteristic sweeps
the dyadic cubes of the shift-0 lattice at levels 1..K, the cubes of side
>= 2, and reads its power means through Weight.means, which keeps a weight's
two most recently used results: a characteristic is a ratio or product of
two means, so a caller that orders its characteristics to share a mean
computes each once.  Unit cubes cannot change a supremum: on one cell every
power mean of w is w(x), so each ratio and each multilinear product
v^{1/q} prod_j v_j^{-1/q_j} there is exactly 1, while on every cube each is
at least 1, by power-mean monotonicity for the ratios and by the
generalized Hoelder bound 1 = <prod_i g_i>_rho <= prod_i <g_i>_{r_i} for
the products.

Finiteness of a characteristic is an asymptotic statement; on a finite grid
it is operationalized by classify_growth over values the caller samples: the
characteristic of the same weight profile at increasing resolutions,
classified by its growth (ratio at the last refinement at most 1.25: finite;
at least 2 across two consecutive refinements: infinite; anything else
inconclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import maximal
from .errors import DomainError, NonpositiveValueError
from .lattice import GridSpec, holder_aggregate


class Weight:
    """Strictly positive scalar function on a grid."""

    def __init__(self, spec: GridSpec, values: np.ndarray):
        # a private copy: no later write by the caller reaches the values,
        # their positivity check or the memoized means
        values = np.array(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != spec.ncells:
            raise DomainError("weight size does not match the grid")
        if not np.all(np.isfinite(values)) or values.min() <= 0.0:
            raise NonpositiveValueError("weights must be finite and positive")
        self.spec = spec
        self.values = values
        self.values.setflags(write=False)
        self._means = {}
        self._inverse = None

    def means(self, p: float) -> np.ndarray:
        """maximal.cube_averages of the weight, read-only; the two most
        recently used exponents are kept."""
        out = self._means.pop(p, None)
        if out is None:
            out = maximal.cube_averages(self.spec, self.values, p)
            out.setflags(write=False)
            if len(self._means) == 2:
                del self._means[next(iter(self._means))]
        self._means[p] = out
        return out

    def inverse(self) -> "Weight":
        if self._inverse is None:
            self._inverse = Weight(self.spec, self.values ** -1.0)
        return self._inverse

    def __repr__(self):
        return f"Weight(spec={self.spec}, min={self.values.min():.3g}, " \
               f"max={self.values.max():.3g})"


@dataclass
class WeightVector:
    """Component weights v_1..v_n with exponents q_j and the product weight
    v = prod_j v_j^{q/q_j}, 1/q = sum_j 1/q_j, computed on construction."""

    components: list
    qs: tuple
    v: Weight = field(init=False)

    def __post_init__(self):
        if len(self.components) != len(self.qs):
            raise DomainError("one exponent per weight component")
        spec = self.components[0].spec
        for w in self.components:
            if w.spec != spec:
                raise DomainError("weight components on different grids")
        self.qs = tuple(float(q) for q in self.qs)
        self.q = holder_aggregate(self.qs)
        if len(self.components) == 1:   # v_1^{q/q_1} = v_1, bit for bit
            self.v = self.components[0]
            return
        prod = np.ones(spec.ncells)
        for w, qj in zip(self.components, self.qs):
            prod *= w.values ** (self.q / qj)
        self.v = Weight(spec, prod)


def _ratio_sweep(w: Weight, num, den) -> float:
    """sup over dyadic cubes of side >= 2 of <w>_num / <w>_den for a pair
    of exponents."""
    return float(np.max(w.means(num) / w.means(den)))


def rc_characteristic(w: Weight, alpha: float, beta: float) -> float:
    """sup_Q <w>_{beta,Q} / <w>_{alpha,Q}; at least 1 by power-mean monotonicity.

    alpha = -inf and beta = inf mean the min and max over the cube.
    """
    if not alpha < beta:
        raise DomainError(f"need alpha < beta, got {alpha} >= {beta}")
    if alpha == 0 or beta == 0:
        raise DomainError("exponent 0 is not supported")
    return _ratio_sweep(w, beta, alpha)


def muckenhoupt_characteristic(w: Weight, t: float) -> float:
    """A_t characteristic: RC(1/(1-t), 1), with alpha = -inf when t = 1."""
    if t < 1:
        raise DomainError(f"Muckenhoupt parameter must be >= 1, got {t}")
    alpha = -np.inf if t == 1 else 1.0 / (1.0 - t)
    return rc_characteristic(w, alpha, 1.0)


def reverse_holder_characteristic(w: Weight, t: float) -> float:
    """RH_t characteristic: RC(1, t)."""
    if t <= 1:
        raise DomainError(f"reverse Hoelder parameter must exceed 1, got {t}")
    return rc_characteristic(w, 1.0, t)


def multilinear_exponents(qs: Sequence[float], ts: Sequence[float]):
    """Inner power-mean exponents of the multilinear characteristic.

    Returns (component exponents s_j = t_j/(q_j - t_j), product exponent
    s = t_{n+1}/(q - (q-1) t_{n+1}), q).  Raises DomainError whenever
    a denominator is nonpositive, without guessing an extension.
    """
    qs = [float(q) for q in qs]
    ts = [float(t) for t in ts]
    if len(ts) != len(qs) + 1:
        raise DomainError("need one t per component plus one for the product")
    q = holder_aggregate(qs)
    inner = []
    for qj, tj in zip(qs, ts):
        if not 0 < tj < qj:
            raise DomainError(
                f"component parameter needs 0 < t={tj} < q_j={qj}")
        inner.append(tj / (qj - tj))
    t_last = ts[-1]
    den = q - (q - 1.0) * t_last
    if t_last <= 0 or den <= 0:
        raise DomainError(
            f"product exponent denominator q-(q-1)t = {den} must be positive")
    return inner, t_last / den, q


def multilinear_characteristic(wv: WeightVector, ts: Sequence[float]) -> float:
    """sup_Q <v>^{1/q}_{s,Q} prod_j <v_j^{-1}>^{1/q_j}_{s_j,Q} (the mwc sup)."""
    inner, outer, q = multilinear_exponents(wv.qs, ts)
    terms = wv.v.means(outer) ** (1.0 / q)
    for w, sj, qj in zip(wv.components, inner, wv.qs):
        terms *= w.inverse().means(sj) ** (1.0 / qj)
    return float(np.max(terms))


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
            raise DomainError("center must have one coordinate per axis")
    sq = (np.arange(spec.side) + 0.5 - point[0]) ** 2
    for x in point[1:]:
        sq = np.add.outer(sq, (np.arange(spec.side) + 0.5 - x) ** 2)
    return Weight(spec, (np.sqrt(sq.reshape(-1)) + 0.5) ** a)


# ---------------------------------------------------------------------------
# growth classification across refinements

FINITE, INFINITE, INCONCLUSIVE = "finite", "infinite", "inconclusive"


def classify_growth(values: Sequence[float]) -> str:
    """Classify characteristic growth across successive grid refinements.

    finite: the last refinement grew the characteristic by at most 25 percent;
    infinite: the last two refinements each at least doubled it;
    inconclusive otherwise (including non-finite samples).
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise DomainError("need characteristics at two or more resolutions")
    if not all(np.isfinite(v) and v > 0 for v in vals):
        return INCONCLUSIVE
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    if ratios[-1] <= 1.25:
        return FINITE
    if len(ratios) >= 2 and ratios[-1] >= 2.0 and ratios[-2] >= 2.0:
        return INFINITE
    return INCONCLUSIVE
