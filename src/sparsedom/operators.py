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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import maximal, sparse, weights as weights_mod
from .errors import (
    ExponentOrderError,
    HypothesisViolationError,
    NoCertificateError,
    RequiresPeriodicError,
    SizeMismatchError,
    SpecMismatchError,
    TruncationTooLargeError,
    ZeroInputError,
)
from .lattice import GridFunction, GridSpec, holder_aggregate


@dataclass
class FormOperator:
    """An (n+1)-slot form on scalar grid functions.

    evaluator maps n+1 scalar GridFunctions to the real number
    <T(g^1..g^n), g^{n+1}>.  apply materializes the operator output
    T(g^1..g^n) as a cell array (used by weighted norm quotients).
    certificate_kind is "exact" when the sparse norm bound stored in
    certificate is structural, "empirical" when it is a recorded estimate,
    "none" otherwise.  linear records whether the form is genuinely linear
    in each slot or only sublinear on the nonnegative cone.
    """

    spec: GridSpec
    arity: int
    evaluator: Callable
    apply: Callable
    name: str = "operator"
    certificate: float | None = None
    certificate_kind: str = "none"
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
            if t.certificate_kind != "exact" or t.certificate is None:
                raise NoCertificateError(
                    f"{t.name} carries no exact sparse-norm certificate")
            certs.append(t.certificate)
        return max(certs)


def check_slot_sublinearity(op: FormOperator, rng: np.random.Generator,
                            trials: int = 8, tol: float = 1e-7) -> float:
    """Randomized homogeneity and (sub)additivity probes on each slot.

    Returns the worst relative violation: homogeneity must hold exactly for
    every operator; additivity must hold for linear ones and hold as an
    inequality (subadditivity on nonnegative inputs) otherwise.
    """
    worst = 0.0
    for _ in range(trials):
        base = [GridFunction(op.spec, rng.random(op.spec.ncells))
                for _ in range(op.arity + 1)]
        v0 = op.evaluate(base)
        scale_ref = max(abs(v0), 1.0)
        for slot in range(op.arity + 1):
            c = float(rng.uniform(0.5, 2.0))
            scaled = list(base)
            scaled[slot] = GridFunction(op.spec, c * base[slot].values[:, 0])
            worst = max(worst, abs(op.evaluate(scaled) - c * v0) / scale_ref)
            other = GridFunction(op.spec, rng.random(op.spec.ncells))
            bumped = list(base)
            bumped[slot] = GridFunction(
                op.spec, base[slot].values[:, 0] + other.values[:, 0])
            split = list(base)
            split[slot] = other
            gap = op.evaluate(bumped) - (v0 + op.evaluate(split))
            if op.linear:
                worst = max(worst, abs(gap) / scale_ref)
            else:
                worst = max(worst, max(gap, 0.0) / scale_ref)
    if worst > tol:
        raise SpecMismatchError(
            f"{op.name} failed the slot-linearity probe: {worst:.3g} > {tol}")
    return worst


def model_sparse_operator(collection: sparse.SparseCollection,
                          ps: Sequence[float]) -> FormOperator:
    """Operator whose (n+1)-linear form is the sparse form of a collection.

    The sparse norm of this operator is at most 1 by construction, so the
    certificate is exact.  Averages are taken of absolute values, making the
    form sublinear (additive only when every p_j = 1).
    """
    collection.validate()
    spec = collection.spec
    ps = tuple(float(p) for p in ps)
    n = len(ps) - 1

    def evaluator(gs):
        return sparse.sparse_form(spec, collection.cubes, gs, ps)

    def apply(gs):
        profiles = [g.values[:, 0] for g in gs]
        out = np.zeros(spec.ncells)
        for cube in collection.cubes:
            cells = sparse.cube_cells(spec, cube)
            if len(cells) == 0:
                continue
            out[cells] += sparse._cube_term(1.0, profiles, cells, ps[:-1])
        return out

    linear = all(p == 1.0 for p in ps)
    return FormOperator(spec, n, evaluator,
                        name=f"model-sparse[{len(collection)} cubes]",
                        certificate=1.0, certificate_kind="exact",
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
                        certificate=None, certificate_kind="empirical",
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
                 ps: Sequence[float], shifts: str = "all") -> dict:
    """Vector transfer with the exact factor 2.

    Asserts |vector form| <= 2 * (sup certificate) * integral of the
    multilinear maximal function with every component aggregated in l^1.
    Requires exact certificates on every member.
    """
    cert = family.sup_certificate()
    lhs = abs(vector_form(family, inputs))
    integral = sparse.integral_of_form(list(inputs), list(ps), r=1.0,
                                       shifts=shifts)
    bound = 2.0 * cert * integral
    ratio = np.inf if bound == 0.0 and lhs > 0.0 else \
        (0.0 if bound == 0.0 else lhs / bound)
    return {"lhs": lhs, "integral": integral, "certificate": cert,
            "ratio": ratio, "holds": lhs <= bound * (1.0 + 1e-9) + 1e-12}


def theorem11_check(family: OperatorFamily, inputs: Sequence[GridFunction],
                    ps: Sequence[float], rs: Sequence[float],
                    shifts: str = "all",
                    child_budget: float = 2.0 ** -16) -> dict:
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
                                            variant=2, shifts=shifts,
                                            child_budget=child_budget)
    rhs = sparse.sparse_form(family.spec, report.collection.cubes,
                             list(inputs), list(ps), rs=list(rs))
    c_emp = None if rhs == 0.0 else lhs / (cert * rhs)
    return {"lhs": lhs, "sparse_form": rhs, "certificate": cert,
            "c_emp": c_emp, "collection": report.collection,
            "construction": report}


def estimate_sparse_norm_lower_bound(op: FormOperator, ps: Sequence[float],
                                     corpus: Sequence[Sequence[GridFunction]],
                                     shifts: str = "all") -> dict:
    """sup over the corpus of |form| / integral of the maximal form.

    This is a certified lower bound on the sparse norm up to the structural
    factor 2 of the lower direction.  Corpus items with vanishing
    denominator are skipped.
    """
    best, best_index = 0.0, None
    skipped = 0
    for i, gs in enumerate(corpus):
        denom = sparse.integral_of_form(list(gs), list(ps), r=1.0,
                                        shifts=shifts)
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
        norm = weights_mod.weighted_norm(f, qj, w, r=rj)
        if norm == 0.0:
            return None
        denom *= norm
    out = np.column_stack([
        op.output([f.component(k) for f in inputs])
        for k, op in enumerate(family.members)])
    r = holder_aggregate(list(rs)[:n])
    q = holder_aggregate(qs)
    numer = weights_mod.weighted_norm(GridFunction(family.spec, out), q,
                                      wv.v, r=r)
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


def theorem31_hypotheses(qs: Sequence[float], ps: Sequence[float],
                         t: float) -> list:
    """Named characteristics of the general weighted theorem.

    Condition 2: the multilinear characteristic with inner parameters
    (p_1..p_n, 1); condition 3: the product weight lies in A_t and in
    RH_{p_{n+1} / (t(1 - p_{n+1}) + p_{n+1})}.
    """
    qs = [float(x) for x in qs]
    ps = [float(x) for x in ps]
    n = len(qs)
    if len(ps) != n + 1:
        raise SizeMismatchError("need n component exponents and n+1 sparse ones")
    for qj, pj in zip(qs, ps):
        if not qj > pj:
            raise ExponentOrderError(f"need q_j > p_j, got {qj} <= {pj}")
    p_last = ps[-1]
    if p_last <= 1.0:
        p_conj = np.inf
    else:
        p_conj = p_last / (p_last - 1.0)
    if not 1.0 <= t <= p_conj:
        raise ExponentOrderError(f"need t in [1, {p_conj:g}], got {t}")
    rh_den = t * (1.0 - p_last) + p_last
    entries = [("multilinear", lambda wv: weights_mod.multilinear_characteristic(
        wv, tuple(ps[:n]) + (1.0,)))]
    entries.append((f"v in A_{t:g}",
                    lambda wv: weights_mod.muckenhoupt_characteristic(wv.v, t)))
    if rh_den > 0 and p_last / rh_den > 1.0:
        rh = p_last / rh_den
        entries.append((f"v in RH_{rh:g}",
                        lambda wv: weights_mod.reverse_holder_characteristic(
                            wv.v, rh)))
    return entries


def validate_weight_hypotheses(wv_at: Callable[[int], weights_mod.WeightVector],
                               hypotheses: list,
                               levels: Sequence[int] = (6, 8, 10)) -> dict:
    """Refinement-protocol verdict for each named characteristic.

    Raises HypothesisViolation naming the first characteristic classified
    infinite; inconclusive entries are reported, not failed.
    """
    verdicts = {}
    for name, char in hypotheses:
        verdict = weights_mod.refinement_protocol(wv_at, char, levels=levels)
        verdicts[name] = verdict
        if verdict.verdict == weights_mod.INFINITE:
            raise HypothesisViolationError(
                f"characteristic classified infinite: {name} ({verdict})",
                characteristic=name)
    return verdicts


def weighted_bound_check(family_at: Callable[[int], OperatorFamily],
                         wv_at: Callable[[int], weights_mod.WeightVector],
                         corpus_at: Callable[[int], list],
                         qs: Sequence[float], rs: Sequence[float],
                         hypotheses: list,
                         levels: Sequence[int] = (6, 8, 10),
                         enforce_hypotheses: bool = True) -> dict:
    """Weighted vector-valued quotient across grid refinements.

    family_at, wv_at and corpus_at produce the operator family, the weight
    vector and the list of input tuples at each resolution K.  Records the
    per-K supremum of the weighted quotient, the growth ratios between
    consecutive resolutions, and the hypothesis verdicts.  With enforcement
    on, an infinite characteristic raises HypothesisViolation before any
    quotient is computed.
    """
    try:
        verdicts = validate_weight_hypotheses(wv_at, hypotheses, levels=levels)
        violation = None
    except HypothesisViolationError as err:
        if enforce_hypotheses:
            raise
        verdicts = {err.characteristic: "infinite"}
        violation = err.characteristic
    per_level = []
    for k in levels:
        family = family_at(k)
        wv = wv_at(k)
        best = 0.0
        skipped = 0
        for inputs in corpus_at(k):
            quot = weighted_quotient(family, list(inputs), wv, qs, rs)
            if quot is None:
                skipped += 1
                continue
            best = max(best, quot)
        per_level.append({"level": int(k), "sup_quotient": best,
                          "skipped": skipped})
    sups = [row["sup_quotient"] for row in per_level]
    growth = [b / a if a > 0 else np.inf for a, b in zip(sups, sups[1:])]
    stable = bool(sups and min(sups) > 0.0 and max(sups) <= 2.0 * min(sups))
    return {"levels": list(int(k) for k in levels), "rows": per_level,
            "sup_quotients": sups, "growth_ratios": growth,
            "stable_within_2x": stable, "hypotheses": verdicts,
            "violated": violation}
