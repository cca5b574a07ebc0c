"""Model operators, multilinear forms, and the end-to-end inequality checks.

A FormOperator is an (n+1)-linear (or n-sublinear) form on scalar grid
functions.  Two concrete families live here: operators whose form IS a sparse
form (so their sparse norm is exactly at most 1 by construction) and a
truncated discrete model of the bilinear Hilbert transform.  The checks at
the bottom wire these to the sparse and weights modules: the factor-2 vector
transfer bound, the scalar-to-vector sparse domination with its empirical
constant, empirical sparse-norm lower bounds, and weighted vector-valued
operator quotients.

The discrete singular-sum model is not a time-frequency discretization of
the multiplier class; its sparse and weighted behavior is recorded
empirically, never asserted against a paper constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import maximal, sparse, weights as weights_mod
from .errors import (
    ExponentOrderError,
    NoCertificateError,
    RequiresPeriodicError,
    SizeMismatchError,
    SpecMismatchError,
    TruncationTooLargeError,
)
from .lattice import GridFunction, GridSpec, holder_aggregate


@dataclass
class FormOperator:
    """An (n+1)-slot form on scalar grid functions.

    evaluator maps n+1 scalar GridFunctions to the real number
    <T(g^1..g^n), g^{n+1}>.  apply materializes the operator output
    T(g^1..g^n) as a cell array (used by weighted norm quotients).
    certificate is the sparse norm bound when it is structural (exact),
    None otherwise.  linear records whether the form is genuinely linear
    in each slot or only sublinear on the nonnegative cone.
    """

    spec: GridSpec
    arity: int
    evaluator: Callable
    apply: Callable
    name: str = "operator"
    certificate: float | None = None
    linear: bool = True

    def evaluate(self, gs: Sequence[GridFunction]) -> float:
        if len(gs) != self.arity + 1:
            raise SizeMismatchError(
                f"{self.name} takes {self.arity + 1} slots, got {len(gs)}")
        for g in gs:
            if g.spec != self.spec:
                raise SpecMismatchError("input grid does not match the operator")
            if g.n_components != 1:
                raise SpecMismatchError("form slots take scalar inputs")
        return float(self.evaluator(list(gs)))

    def output(self, gs: Sequence[GridFunction]) -> np.ndarray:
        """Materialized T(g^1..g^n) as a cell array."""
        if len(gs) != self.arity:
            raise SizeMismatchError(
                f"{self.name} applies to {self.arity} inputs, got {len(gs)}")
        return np.asarray(self.apply(list(gs)), dtype=np.float64)


@dataclass
class OperatorFamily:
    """Members T_1..T_N of common arity on a common grid."""

    members: list

    def __post_init__(self):
        if not self.members:
            raise SizeMismatchError("an operator family needs at least one member")
        first = self.members[0]
        for t in self.members:
            if t.arity != first.arity or t.spec != first.spec:
                raise SpecMismatchError(
                    "family members must share arity and grid")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def arity(self) -> int:
        return self.members[0].arity

    @property
    def spec(self) -> GridSpec:
        return self.members[0].spec

    def sup_certificate(self) -> float:
        certs = []
        for t in self.members:
            if t.certificate is None:
                raise NoCertificateError(
                    f"{t.name} carries no exact sparse-norm certificate")
            certs.append(t.certificate)
        return max(certs)


def model_sparse_operator(collection: sparse.SparseCollection,
                          ps: Sequence[float]) -> FormOperator:
    """Operator whose (n+1)-linear form is the sparse form of a collection.

    The sparse norm of this operator is at most 1 by construction, so the
    certificate is exact.  Averages are taken of absolute values, making the
    form sublinear (additive only when every p_j = 1).  Each cube's cells
    are built once, here (a valid collection has no empty cube).
    """
    spec = collection.spec
    cell_sets = [sparse.cube_cells(spec, cube) for cube in collection.cubes]
    collection.validate(cell_sets)
    ps = tuple(float(p) for p in ps)
    n = len(ps) - 1

    def evaluator(gs):
        return sparse._form_of_cells(cell_sets, sparse._scalar_profiles(gs),
                                     ps)

    def apply(gs):
        profiles = [g.values[:, 0] for g in gs]
        out = np.zeros(spec.ncells)
        terms = sparse._cube_terms(profiles, cell_sets, ps[:-1], sized=False)
        for cells, term in zip(cell_sets, terms):
            out[cells] += term
        return out

    linear = all(p == 1.0 for p in ps)
    return FormOperator(spec, n, evaluator,
                        name=f"model-sparse[{len(collection)} cubes]",
                        certificate=1.0,
                        apply=apply, linear=linear)


def _bht_coefficients(truncation: int, variant: str) -> np.ndarray:
    """Kernel values c(t) for t = 1..T; the kernel is odd: c(-t) = -c(t)."""
    t = np.arange(1, truncation + 1, dtype=np.float64)
    if variant == "sign":
        return 1.0 / t
    if variant == "smooth":
        u = t / (truncation + 1.0)
        return np.exp(-u * u / (1.0 - u * u)) / t
    raise ValueError("variant must be 'sign' or 'smooth'")


def _support_arc(a: np.ndarray) -> tuple:
    """(start, length) of the shortest circular arc holding every nonzero
    of a nonzero array a: the complement of the largest circular gap
    between consecutive nonzeros."""
    nz = np.flatnonzero(a)
    gaps = nz[1:] - nz[:-1]
    if len(gaps) and gaps.max() > nz[0] + len(a) - nz[-1]:
        i = int(gaps.argmax())
        return int(nz[i + 1]), len(a) - int(gaps[i]) + 1
    return int(nz[0]), int(nz[-1] - nz[0]) + 1


# (t, x) cells of one block, and the ufunc buffer size meanwhile: with
# numpy's default of 8192 elements the 2-D block operations ran a K = 12
# half-circle pair in 8.1 ms, with 64 in 5.7 ms (2-core x86, numpy 2.4)
_BAND_BLOCK_CELLS = 1 << 16
_BAND_BUFSIZE = 64


def _disjoint_bht_sum(f: np.ndarray, g: np.ndarray, coef: np.ndarray,
                      sf: int, lf: int, sg: int, lg: int) -> np.ndarray:
    """The singular sum for f supported on [sf, sf + lf) and g on
    [sg, sg + lg), disjoint arcs with 0 <= sf < n and
    sf + lf <= sg <= sf + n - lg.

    With 2T < n (T = len(coef)), f(x-t) g(x+t) != 0 needs x - t = a in F
    and x + t = b in G with b - a = 2t exactly, and f(x+t) g(x-t) != 0
    needs x - t = b in G and x + t = a + n; so both sets are intervals
    [lo, hi) of midpoints of a point of F and a point of G.  With
    lf + lg <= n they lie in [ceil(S / 2), floor(S / 2) + n - 1] for
    S = sf + sg, so in [rho, rho + n) with rho = ceil(S / 2); out[y]
    accumulates cell (y + rho) mod n and is rolled back at the end.  No
    cell gets nonzero terms of both products (shifts t, t' with
    n - lf + 1 <= t + t' <= lg - 1 would need lf + lg >= n + 2), so each
    product is summed on its own.

    lo and hi move by at most one cell per t and hi - lo is concave, so the
    rows t with lo < hi are consecutive; they are taken in blocks of s rows
    over the hull of their intervals (at most width + s - 1 cells, widened
    to two).  Row 0 of a block holds out and row i the terms of the i-th t.
    A sum over axis 0 of a C-ordered array of two or more columns adds the
    rows one after the other (numpy sums pairwise only along the fast
    axis), so it leaves what the same updates one t at a time would.  Hull
    cells outside a row's interval get an exact-zero factor: a term of
    +-0, which leaves out unchanged.
    """
    n = len(f)
    rho = (sf + sg + 1) // 2
    r = rho % n
    # row k holds cells k - n .. k - 1 of the rotated input, periodically
    wf, wg = (np.ndarray((3 * n + 1, n), np.float64,
                         np.concatenate((v[r:], v, v, v, v[:r])), 0, (8, 8))
              for v in (f, g))
    t = np.arange(1, len(coef) + 1)
    bands = (   # f(x+t) g(x-t): x - t in G, x + t in F + n
        (coef, np.maximum(t + (sg - rho), (sf + n - rho) - t),
         np.minimum(t + (sg + lg - rho), (sf + lf + n - rho) - t), wf, wg),
        # f(x-t) g(x+t): x - t in F, x + t in G; out - c B is out + (-c) B
        (-coef, np.maximum(t + (sf - rho), (sg - rho) - t),
         np.minimum(t + (sf + lf - rho), (sg + lg - rho) - t), wg, wf))
    out = np.zeros(n)
    bufsize = np.setbufsize(_BAND_BUFSIZE)
    try:
        for c, lo, hi, ahead, behind in bands:
            rows = np.flatnonzero(lo < hi)
            if not len(rows):
                continue
            first, stop = int(rows[0]), int(rows[-1]) + 1
            width = int((hi - lo)[rows].max())
            step = max(1, (math.isqrt(width * width + 4 * _BAND_BLOCK_CELLS)
                           - width) // 2)       # cells: step * (step + width)
            starts = np.arange(first, stop, step)
            y0s = np.minimum(
                np.minimum.reduceat(lo[first:stop], starts - first), n - 2)
            y1s = np.maximum(
                np.maximum.reduceat(hi[first:stop], starts - first), y0s + 2)
            buffer = np.empty((step + 1) * int((y1s - y0s).max()))
            for a, y0, y1 in zip(starts.tolist(), y0s.tolist(), y1s.tolist()):
                b = min(a + step, stop)         # t = a + 1 .. b
                block = buffer[:(b - a + 1) * (y1 - y0)].reshape(b - a + 1, -1)
                block[0] = out[y0:y1]
                np.multiply(ahead[n + y0 + a + 1:n + y0 + b + 1, :y1 - y0],
                            behind[n + y0 - a - 1:n + y0 - b - 1:-1, :y1 - y0],
                            out=block[1:])
                block[1:] *= c[a:b, None]
                np.add.reduce(block, axis=0, out=out[y0:y1])
    finally:
        np.setbufsize(bufsize)
    return np.concatenate((out[n - r:], out[:n - r]))     # np.roll by rho


def discrete_bht(spec: GridSpec, truncation: int,
                 variant: str = "sign") -> FormOperator:
    """Truncated discrete bilinear singular sum on a periodic 1D grid.

    Lambda(f, g, h) = sum_x sum_{0 < |t| <= T} c(t) f(x+t) g(x-t) h(x) with
    c(t) = 1/t (sign variant) or psi(t)/t for an even smooth compactly
    supported cutoff psi (smooth variant).

    apply pads f and g periodically by T cells on each side, once per call,
    and reads f(x +- t) and g(x -+ t) as contiguous slices of the padded
    arrays.  The terms are summed in fixed order t = 1..T with the
    per-cell expression c(t) (f(x+t) g(x-t) - f(x-t) g(x+t)), so the output
    is bit-identical to the same sum taken over np.roll shifts; it is
    checked against the triple-loop oracle discrete_bht_reference.

    If either input is zero the output is zero.  If the inputs have at most
    n nonzeros together, each one's support arc (the complement of the
    largest circular gap between its nonzeros) is found.  If the arcs are
    disjoint, each product f(x+t) g(x-t) and f(x-t) g(x+t) can be nonzero
    only on one interval of x per t, and _disjoint_bht_sum adds the first
    and subtracts the second there only, a block of successive t at a time.
    Every skipped term has an exact-zero factor times a finite value, so it
    is +-0; A - (+-0) = A, c (0 - B) = -(c B), and adding +-0 to a cell that
    starts at +0.0 (and can never become -0.0) changes nothing.  Each cell
    still receives its nonzero terms in t order, so the output has the
    bits of the dense loop.
    """
    if spec.d != 1 or not spec.periodic:
        raise RequiresPeriodicError("the model needs a periodic 1D grid")
    if not 1 <= truncation < spec.side // 2:
        raise TruncationTooLargeError(
            f"truncation must satisfy 1 <= T < {spec.side // 2}, got {truncation}")
    coef = _bht_coefficients(truncation, variant)
    n = spec.ncells

    def apply(gs):
        f = gs[0].values[:, 0]
        g = gs[1].values[:, 0]
        nf, ng = np.count_nonzero(f), np.count_nonzero(g)
        if nf == 0 or ng == 0:
            return np.zeros(n)
        if nf + ng <= n:    # else the support arcs cannot be disjoint
            (sf, lf), (sg, lg) = _support_arc(f), _support_arc(g)
            if lf <= (sg - sf) % n <= n - lg:
                return _disjoint_bht_sum(f, g, coef, sf, lf,
                                         sf + (sg - sf) % n, lg)
        # fp[truncation + x + s] = f((x + s) mod n) for |s| <= truncation
        fp = np.concatenate((f[-truncation:], f, f[:truncation]))
        gp = np.concatenate((g[-truncation:], g, g[:truncation]))
        out = np.zeros(n)
        for t in range(1, truncation + 1):
            lo, hi = truncation - t, truncation + t
            out += coef[t - 1] * (fp[hi:hi + n] * gp[lo:lo + n]
                                  - fp[lo:lo + n] * gp[hi:hi + n])
        return out

    def evaluator(gs):
        return float(np.dot(apply(gs[:2]), gs[2].values[:, 0]))

    return FormOperator(spec, 2, evaluator, name=f"bht-{variant}[T={truncation}]",
                        apply=apply, linear=True)


def discrete_bht_reference(fs: Sequence[GridFunction], truncation: int,
                           variant: str = "sign") -> float:
    """Direct triple-loop evaluation of the discrete singular sum."""
    spec = fs[0].spec
    if spec.d != 1 or not spec.periodic:
        raise RequiresPeriodicError("the model needs a periodic 1D grid")
    coef = _bht_coefficients(truncation, variant)
    n = spec.ncells
    f, g, h = (x.values[:, 0] for x in fs)
    total = 0.0
    for x in range(n):
        for t in range(1, truncation + 1):
            c = coef[t - 1]
            total += c * f[(x + t) % n] * g[(x - t) % n] * h[x]
            total += -c * f[(x - t) % n] * g[(x + t) % n] * h[x]
    return total


def admissible_sparse_tuple(ps: Sequence[float]) -> bool:
    """Admissibility of a 3-tuple for sparse bounds of the singular model.

    Requires 1 < p_j < inf for each slot and sum_j 1/min(p_j, 2) < 2.
    """
    ps = [float(p) for p in ps]
    if len(ps) != 3:
        raise SizeMismatchError("admissibility is defined for 3-tuples")
    if not all(1.0 < p < np.inf for p in ps):
        return False
    return sum(1.0 / min(p, 2.0) for p in ps) < 2.0


def vector_form(family: OperatorFamily,
                inputs: Sequence[GridFunction]) -> float:
    """sum_k <T_k(f^1_k, ..., f^n_k), f^{n+1}_k> over family members."""
    if len(inputs) != family.arity + 1:
        raise SizeMismatchError(
            f"family of arity {family.arity} takes {family.arity + 1} slots")
    for f in inputs:
        if f.n_components != family.size:
            raise SizeMismatchError(
                f"inputs need {family.size} components, got {f.n_components}")
    total = 0.0
    for k, op in enumerate(family.members):
        total += op.evaluate([f.component(k) for f in inputs])
    return total


def lemma1_check(family: OperatorFamily, inputs: Sequence[GridFunction],
                 ps: Sequence[float]) -> dict:
    """Vector transfer with the exact factor 2.

    Asserts |vector form| <= 2 * (sup certificate) * integral of the
    multilinear maximal function with every component aggregated in l^1.
    Requires exact certificates on every member.
    """
    cert = family.sup_certificate()
    lhs = abs(vector_form(family, inputs))
    integral = sparse.integral_of_form(list(inputs), list(ps), r=1.0)
    bound = 2.0 * cert * integral
    ratio = np.inf if bound == 0.0 and lhs > 0.0 else \
        (0.0 if bound == 0.0 else lhs / bound)
    return {"lhs": lhs, "integral": integral, "certificate": cert,
            "ratio": ratio, "holds": lhs <= bound * (1.0 + 1e-9) + 1e-12}


def theorem11_check(family: OperatorFamily, inputs: Sequence[GridFunction],
                    ps: Sequence[float], rs: Sequence[float]) -> dict:
    """Scalar-to-vector sparse domination with a recorded empirical constant.

    Builds the multilinear stopping-time collection on the (n+1) vector
    inputs and records C_emp = |vector form| / (sup certificate * sparse
    form).  The strictness r_j > p_j is required.
    """
    for p, r in zip(ps, rs):
        if not r > p:
            raise ExponentOrderError(f"need r > p in every slot, got r={r} p={p}")
    cert = family.sup_certificate()
    lhs = abs(vector_form(family, inputs))
    report = sparse.build_sparse_collection(list(inputs), list(ps), list(rs),
                                            variant=2)
    report.collection.validate(cell_sets=report.cell_sets)
    c_emp = None if report.rhs == 0.0 else lhs / (cert * report.rhs)
    return {"lhs": lhs, "sparse_form": report.rhs, "certificate": cert,
            "c_emp": c_emp, "collection": report.collection,
            "construction": report}


def estimate_sparse_norm_lower_bound(
        op: FormOperator, ps: Sequence[float],
        corpus: Sequence[Sequence[GridFunction]]) -> dict:
    """sup over the corpus of |form| / integral of the maximal form.

    This is a certified lower bound on the sparse norm up to the structural
    factor 2 of the lower direction.  Corpus items with vanishing
    denominator are skipped.
    """
    best, best_index = 0.0, None
    skipped = 0
    for i, gs in enumerate(corpus):
        denom = sparse.integral_of_form(list(gs), list(ps), r=1.0)
        if denom == 0.0:
            skipped += 1
            continue
        val = abs(op.evaluate(list(gs))) / denom
        if val > best:
            best, best_index = val, i
    return {"value": best, "maximizer": best_index, "skipped": skipped,
            "trials": len(corpus)}


# ---------------------------------------------------------------------------
# weighted vector-valued quotients


def weighted_quotient(family: OperatorFamily,
                      inputs: Sequence[GridFunction],
                      wv: weights_mod.WeightVector,
                      qs: Sequence[float], rs: Sequence[float]) -> float | None:
    """|| T(f^1..f^n) ||_{L^q(v; l^r)} / prod_j ||f^j||_{L^{q_j}(v_j; l^{r_j})}.

    The output is materialized per member; the aggregation exponent r comes
    from the Hoelder relation 1/r = sum_{j<=n} 1/r_j.  Returns None when an
    input norm vanishes.
    """
    n = family.arity
    if len(inputs) != n:
        raise SizeMismatchError(f"expected {n} input slots")
    if len(qs) != n or len(rs) < n:
        raise SizeMismatchError("need one q and one r per input slot")
    denom = 1.0
    for f, qj, rj, w in zip(inputs, qs, rs, wv.components):
        norm = maximal.mixed_norm(f, qj, rj, weight=w.values)
        if norm == 0.0:
            return None
        denom *= norm
    out = np.column_stack([
        op.output([f.component(k) for f in inputs])
        for k, op in enumerate(family.members)])
    r = holder_aggregate(list(rs)[:n])
    q = holder_aggregate(qs)
    numer = maximal.mixed_norm(GridFunction(family.spec, out), q, r,
                               weight=wv.v.values)
    return numer / denom


def bht_corner_hypotheses(q: float = 1.0, rh: float = 2.0) -> list:
    """Named weight characteristics of the diagonal corner (s=3/2, t=1).

    Each entry is (name, callable WeightVector -> characteristic value); the
    classes are A_{3q/2} for each component and A_{3q/2} and RH_2 for the
    product weight.
    """
    t = 3.0 * q / 2.0

    def comp(j):
        return lambda wv: weights_mod.muckenhoupt_characteristic(
            wv.components[j], t)

    entries = [(f"v_{j + 1} in A_{t:g}", comp(j)) for j in range(2)]
    entries.append((f"v in A_{t:g}",
                    lambda wv: weights_mod.muckenhoupt_characteristic(wv.v, t)))
    entries.append((f"v in RH_{rh:g}",
                    lambda wv: weights_mod.reverse_holder_characteristic(
                        wv.v, rh)))
    return entries
