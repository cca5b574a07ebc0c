"""Experiment orchestration: corpora, configs, reports, and the experiments.

Every experiment is a pure function of its configuration; corpora are
reproducible from (kind, seed, size, grid) alone.  Reports separate ASSERTED
rows (structural inequalities that must hold exactly or to a stated
tolerance) from RECORDED rows (empirical constants with no reference value);
the process exit status is nonzero exactly when an ASSERTED row fails.
Execution is serial and deterministic.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import maximal, operators, sparse, weights as weights_mod
from .errors import ConfigError, ZeroInputError
from .lattice import GridFunction, GridSpec, holder_aggregate

EXPERIMENT_KINDS = ("maximal", "build-sparse", "equivalence", "weights",
                    "theorem11", "lemma1", "bht", "weighted")

CORPUS_KINDS = ("spikes", "blocks", "bumps", "noise", "mixed", "scaled-mix",
                "sided-inverse")


# ---------------------------------------------------------------------------
# corpus generation


def _profile(kind: str, spec: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """One scalar sample of a generator kind."""
    n = spec.ncells
    if kind == "spikes":
        vals = np.zeros(n)
        m = max(1, n // 10)
        idx = rng.choice(n, size=m, replace=False)
        vals[idx] = rng.random(m) + 0.1
        return vals
    if kind == "blocks":
        vals = np.zeros(n)
        j = int(rng.integers(0, spec.levels + 1))
        length = (1 << j) ** spec.d
        start = int(rng.integers(0, n))
        idx = (start + np.arange(length)) % n if spec.periodic else \
            np.arange(start, min(start + length, n))
        vals[idx] = rng.random() + 0.5
        return vals
    if kind == "bumps":
        coords = spec.cell_coords(np.arange(n)).astype(np.float64)
        mu = rng.integers(0, spec.side, size=spec.d).astype(np.float64)
        sig = max(1.0, spec.side * float(rng.uniform(0.02, 0.2)))
        diff = np.abs(coords - mu)
        if spec.periodic:
            diff = np.minimum(diff, spec.side - diff)
        return np.exp(-np.sum(diff ** 2, axis=1) / (2.0 * sig * sig))
    if kind == "noise":
        return rng.standard_normal(n)
    raise ConfigError(f"unknown generator kind {kind!r}", field="corpus.kind")


_MIX = ("spikes", "blocks", "bumps")


def generate_corpus(kind: str, seed: int, size: int, spec: GridSpec,
                    n_slots: int = 1, n_components: int = 1,
                    weight=None) -> list:
    """Seeded list of GridFunction tuples (one entry per trial).

    spikes: random sparse supports (at most 10 percent of cells); blocks:
    random dyadic indicators; bumps: sampled Gaussians; noise: signed
    Gaussian noise; mixed: cycles through the previous three; scaled-mix:
    one mixed profile per slot replicated across components with random
    scalings (probes component-count independence); sided-inverse: pairs
    adapted to a weight, each slot carrying the inverse weight profile on
    one side of the weight center (probes weighted quotients).
    """
    if kind not in CORPUS_KINDS:
        raise ConfigError(f"unknown corpus kind {kind!r}", field="corpus.kind")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        if kind == "sided-inverse":
            out.append(_sided_inverse_pair(spec, rng, n_components, weight))
            continue
        tup = []
        for _ in range(n_slots):
            if kind == "scaled-mix":
                base = _profile(_MIX[i % 3], spec, rng)
                scales = rng.uniform(0.5, 2.0, size=n_components)
                vals = np.outer(base, scales)
            else:
                one = _MIX[i % 3] if kind == "mixed" else kind
                vals = np.column_stack([_profile(one, spec, rng)
                                        for _ in range(n_components)])
            tup.append(GridFunction(spec, vals))
        out.append(tuple(tup))
    return out


def _sided_inverse_pair(spec: GridSpec, rng: np.random.Generator,
                        n_components: int, weight) -> tuple:
    """Inputs carrying the inverse weight profile on opposite sides of its center."""
    if weight is None:
        raise ConfigError("sided-inverse corpus needs a weight",
                          field="corpus.kind")
    if spec.d != 1:
        raise ConfigError("sided-inverse corpus is one-dimensional",
                          field="grid.d")
    n = spec.ncells
    inv = 1.0 / weight.values
    c = n // 2
    x = np.arange(n)
    j = int(rng.integers(max(1, spec.levels - 3), spec.levels))
    radius = min(1 << j, n // 2 - 1)
    left = (x >= c - radius) & (x < c)
    right = (x >= c) & (x < c + radius)
    fv = np.zeros((n, n_components))
    gv = np.zeros((n, n_components))
    for comp in range(n_components):
        sf, sg = rng.uniform(0.5, 2.0, size=2)
        nf = rng.uniform(0.5, 1.0, size=n)
        ng = rng.uniform(0.5, 1.0, size=n)
        fv[left, comp] = sf * inv[left] * nf[left]
        gv[right, comp] = sg * inv[right] * ng[right]
    pair = (GridFunction(spec, fv), GridFunction(spec, gv))
    return pair if rng.random() < 0.5 else (pair[1], pair[0])


# ---------------------------------------------------------------------------
# configuration


_DEFAULT_PANEL = (-0.9, -0.5, 0.0, 0.5, 0.9, 1.5)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_positive_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) \
        and x >= 1


# numeric experiment params: (is a list, element check, expected shape);
# every other param (centers, center) is left to its runner
_PARAM_TYPES = {
    "ps": (True, _is_real, "a nonempty list of numbers"),
    "rs": (True, _is_real, "a nonempty list of numbers"),
    "qs": (True, _is_real, "a nonempty list of numbers"),
    "panel": (True, _is_real, "a nonempty list of numbers"),
    "levels": (True, _is_positive_int, "a nonempty list of positive integers"),
    "family_sizes": (True, _is_positive_int,
                     "a nonempty list of positive integers"),
    "eps": (False, _is_real, "a number"),
    "child_budget": (False, _is_real, "a number"),
    "bad_exponent": (False, _is_real, "a number"),
    "components": (False, _is_positive_int, "a positive integer"),
}


def _check_params(params: dict):
    """Raise ConfigError naming the first numeric param of the wrong type or
    out of range (exponents and eps positive, child_budget in (0, 1/2))."""
    for key, (is_list, ok, shape) in _PARAM_TYPES.items():
        if key not in params:
            continue
        val = params[key]
        if is_list:
            good = isinstance(val, list) and bool(val) and all(map(ok, val))
        else:
            good = ok(val)
        if not good:
            raise ConfigError(f"must be {shape}", field=f"params.{key}")
    for key in ("ps", "rs", "qs"):
        if key in params and not all(x > 0 for x in params[key]):
            raise ConfigError("entries must be positive",
                              field=f"params.{key}")
    if "eps" in params and not params["eps"] > 0:
        raise ConfigError("must be positive", field="params.eps")
    if "child_budget" in params and not 0 < params["child_budget"] < 0.5:
        raise ConfigError("must lie in (0, 1/2)", field="params.child_budget")


# default (ps, rs) of the kinds that pair the two slot by slot
_PAIRED_DEFAULTS = {
    "maximal": ((1.0, 1.0), (2.0, 2.0)),
    "build-sparse": ((1.0, 1.0), (2.0, 2.0)),
    "theorem11": ((1.0, 1.0, 1.0), (4.0, 4.0, 2.0)),
}


def _paired_exponents(kind: str, params: dict) -> tuple:
    default_ps, default_rs = _PAIRED_DEFAULTS[kind]
    return params.get("ps", default_ps), params.get("rs", default_rs)


def _check_kind_params(kind: str, grid: GridSpec, params: dict):
    """Raise ConfigError naming the param that does not fit the kind: rs
    and ps of different lengths where they pair, p_j >= r_j in build-sparse,
    or a refinement level too large for the kind's grids."""
    if kind in _PAIRED_DEFAULTS:
        ps, rs = _paired_exponents(kind, params)
        where = "params.rs" if "rs" in params else "params.ps"
        if len(rs) != len(ps):
            raise ConfigError(f"needs one r per p ({len(ps)} ps, {len(rs)} "
                              "rs)", field=where)
        if kind == "build-sparse" and not all(p < r for p, r in zip(ps, rs)):
            raise ConfigError("the construction needs p_j < r_j", field=where)
    if kind in ("weights", "bht", "weighted"):
        d = grid.d if kind == "weights" else 1
        for k in params.get("levels", ()):
            try:
                GridSpec(d, k)
            except ValueError as err:
                raise ConfigError(str(err), field="params.levels") from None


@dataclass
class ExperimentConfig:
    """One fully specified experiment run."""

    kind: str
    grid: GridSpec
    corpus_kind: str = "mixed"
    corpus_size: int = 50
    seed: int = 0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        def need(container, key, where):
            if key not in container:
                raise ConfigError("missing required field", field=where)
            return container[key]

        kind = need(doc, "kind", "kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}", field="kind")
        grid_doc = need(doc, "grid", "grid")
        for key in ("d", "levels"):
            val = need(grid_doc, key, f"grid.{key}")
            if not isinstance(val, int) or val < 0:
                raise ConfigError("must be a nonnegative integer",
                                  field=f"grid.{key}")
        if grid_doc["d"] not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", field="grid.d")
        try:
            grid = GridSpec(grid_doc["d"], grid_doc["levels"],
                            bool(grid_doc.get("periodic", True)))
        except ValueError as err:
            raise ConfigError(str(err), field="grid.levels") from None
        corpus = doc.get("corpus", {})
        corpus_kind = corpus.get("kind", "mixed")
        if corpus_kind not in CORPUS_KINDS:
            raise ConfigError(f"unknown corpus kind {corpus_kind!r}",
                              field="corpus.kind")
        size = corpus.get("size", 50)
        if not isinstance(size, int) or size < 0:
            raise ConfigError("must be a nonnegative integer",
                              field="corpus.size")
        if size == 0 and kind != "weights":
            # every other kind asserts its checks over the corpus
            raise ConfigError(f"must be positive for a {kind!r} experiment",
                              field="corpus.size")
        if "seed" not in corpus and "seed" not in doc:
            raise ConfigError("a seed is mandatory", field="corpus.seed")
        seed = int(corpus.get("seed", doc.get("seed", 0)))
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("must be a mapping", field="params")
        _check_params(params)
        _check_kind_params(kind, grid, params)
        return cls(kind, grid, corpus_kind, size, seed, params)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"invalid JSON: {err}", field=str(path))
        return cls.from_dict(doc)


# ---------------------------------------------------------------------------
# report assembly


class ReportBuilder:
    """Collects ASSERTED/RECORDED rows and CSV tables, then writes them."""

    def __init__(self, kind: str, config: ExperimentConfig | None = None):
        self.kind = kind
        self.config = config
        self.rows = []
        self.tables = {}

    def asserted(self, row_id: str, passed: bool, **values):
        self.rows.append({"id": row_id, "status": "ASSERTED",
                          "pass": bool(passed), **values})

    def recorded(self, row_id: str, **values):
        self.rows.append({"id": row_id, "status": "RECORDED", **values})

    def table(self, name: str, header: list, rows: list):
        self.tables[name] = (list(header), [list(r) for r in rows])

    @property
    def failures(self) -> list:
        return [r["id"] for r in self.rows
                if r["status"] == "ASSERTED" and not r["pass"]]

    def summary(self) -> dict:
        doc = {
            "experiment": self.kind,
            "rows": self.rows,
            "n_asserted": sum(r["status"] == "ASSERTED" for r in self.rows),
            "n_recorded": sum(r["status"] == "RECORDED" for r in self.rows),
            "failures": self.failures,
            "ok": not self.failures,
        }
        if self.config is not None:
            doc["config"] = {
                "kind": self.config.kind,
                "grid": {"d": self.config.grid.d,
                         "levels": self.config.grid.levels,
                         "periodic": self.config.grid.periodic},
                "corpus": {"kind": self.config.corpus_kind,
                           "size": self.config.corpus_size,
                           "seed": self.config.seed},
                "params": self.config.params,
            }
        return doc

    def write(self, out_dir) -> int:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True,
                      default=_json_default)
            fh.write("\n")
        for name, (header, rows) in self.tables.items():
            with open(out / f"{name}.csv", "w", encoding="utf-8",
                      newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        return 1 if self.failures else 0


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, weights_mod.RefinementVerdict):
        return {"verdict": obj.verdict, "levels": list(obj.levels),
                "values": list(obj.values)}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# the experiments


def _param(cfg: ExperimentConfig, key, default):
    return cfg.params.get(key, default)


def run_maximal(cfg: ExperimentConfig) -> ReportBuilder:
    """Pointwise Hoelder sandwich and weak-type quotients on a corpus."""
    rep = ReportBuilder("maximal", cfg)
    ps, rs = map(tuple, _paired_exponents(cfg.kind, cfg.params))
    n_comp = int(_param(cfg, "components", 3))
    corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
                             cfg.grid, n_slots=len(ps), n_components=n_comp)
    partition = [[j] for j in range(len(ps))]
    if len(ps) > 1:
        partition = [[0], list(range(1, len(ps)))]
    r = holder_aggregate(rs)
    rows = []
    worst = 0.0
    for i, tup in enumerate(corpus):
        inputs = list(tup)
        left = maximal.vector_maximal(inputs, ps, r=r).values[:, 0]
        mid = maximal.partitioned_maximal(inputs, ps, rs,
                                          partition).values[:, 0]
        right = maximal.holder_dominator(inputs, ps, rs).values[:, 0]
        scale = max(float(right.max()), 1e-300)
        gap = max(float(np.max(left - mid)), float(np.max(mid - right)))
        worst = max(worst, gap / scale)
        try:
            quotient = maximal.weak_type_quotient(inputs, ps, rs)
        except ZeroInputError:
            quotient = None
        rows.append([i, float(left.max()), float(right.max()), quotient])
    rep.asserted("holder-sandwich", worst <= 1e-9, worst_violation=worst,
                 trials=len(corpus))
    rep.recorded("weak-type-quotients",
                 values=[row[3] for row in rows if row[3] is not None])
    rep.table("maximal_trials", ["trial", "sup_M", "sup_dominator",
                                 "weak_type_quotient"], rows)
    return rep


def run_build_sparse(cfg: ExperimentConfig) -> ReportBuilder:
    """Both stopping-time variants on a corpus: sparsity, budgets, factor 2."""
    rep = ReportBuilder("build-sparse", cfg)
    ps, rs = map(list, _paired_exponents(cfg.kind, cfg.params))
    eps = float(_param(cfg, "eps", 0.5))
    budget = float(_param(cfg, "child_budget", 2.0 ** -16))
    n_comp = int(_param(cfg, "components", 2))
    corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
                             cfg.grid, n_slots=len(ps), n_components=n_comp)
    rows = []
    sparsity_ok = budget_ok = lower_ok = True
    d = cfg.grid.d
    prop_bounds = {
        1: 1.0 + 1e-9,
        2: (64.0 / 3.0) ** d,
        3: 96.0 ** (d * sum(1.0 / p for p in ps)),
    }
    prop_worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for i, tup in enumerate(corpus):
        for variant in (1, 2):
            built = sparse.build_sparse_collection(
                list(tup), ps, rs, eps=eps if variant == 1 else None,
                variant=variant, child_budget=budget)
            sparsity_ok &= built.collection.is_valid()
            budget_ok &= all(n.child_measure <= budget * n.size
                             for n in built.nodes)
            for node in built.nodes:
                prop_worst[1] = max(prop_worst[1], node.off_exceptional_ratio)
                if variant == 1:
                    prop_worst[2] = max(prop_worst[2],
                                        node.child_average_ratio)
                prop_worst[3] = max(prop_worst[3], node.child_truncated_ratio)
            form_exps = [p + eps for p in ps] if variant == 1 else ps
            check = sparse.lower_direction_check(built.collection, list(tup),
                                                 form_exps, rs=rs)
            lower_ok &= check["holds"]
            rows.append([i, variant, len(built.collection), built.depth,
                         built.nodes[0].threshold, built.theta_emp,
                         check["ratio"]])
    rep.asserted("sparsity-exact", sparsity_ok, trials=len(corpus))
    rep.asserted("child-measure-budget", budget_ok, budget=budget)
    rep.asserted("factor2-lower-direction", lower_ok)
    if cfg.grid.periodic:
        # stopping-node property ratios against the derived lattice constants
        for key in (1, 2, 3):
            rep.asserted(f"stopping-property-{key}",
                         prop_worst[key] <= prop_bounds[key],
                         worst=prop_worst[key], bound=prop_bounds[key])
    else:
        rep.recorded("stopping-property-ratios", worst=prop_worst)
    rep.recorded("theta-emp", values=[r[5] for r in rows if r[5] is not None])
    rep.table("build_sparse_trials",
              ["trial", "variant", "n_cubes", "depth", "threshold",
               "theta_emp", "lower_ratio"], rows)
    return rep


def run_equivalence(cfg: ExperimentConfig) -> ReportBuilder:
    """Brute-force sparse-form maximization against the maximal integral."""
    rep = ReportBuilder("equivalence", cfg)
    ps = list(_param(cfg, "ps", (1.0, 1.0)))
    if cfg.grid.ncells > 16:
        raise ConfigError("equivalence experiments need at most 16 cells",
                          field="grid.levels")
    corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
                             cfg.grid, n_slots=len(ps), n_components=1)
    rows = []
    upper_ok = True
    c_emps = []
    for i, tup in enumerate(corpus):
        inputs = list(tup)
        value, coll = sparse.sup_sparse_form(inputs, ps, mode="bruteforce")
        coll.validate()
        integral = sparse.integral_of_form(inputs, ps, r=1.0,
                                           shifts="canonical")
        upper_ok &= value <= 2.0 * integral * (1.0 + 1e-9) + 1e-12
        c_emp = integral / value if value > 0 else None
        if c_emp is not None:
            c_emps.append(c_emp)
        greedy_val, _ = sparse.sup_sparse_form(inputs, ps, mode="greedy")
        rows.append([i, value, greedy_val, integral, c_emp, len(coll)])
    rep.asserted("supform-le-2-integral", upper_ok, trials=len(corpus))
    rep.asserted("greedy-le-optimum",
                 all(r[2] <= r[1] * (1 + 1e-9) + 1e-12 for r in rows))
    rep.recorded("equivalence-c-emp",
                 max=max(c_emps) if c_emps else None,
                 min=min(c_emps) if c_emps else None)
    rep.table("equivalence_trials",
              ["trial", "sup_form", "greedy_form", "integral_M", "c_emp",
               "n_cubes"], rows)
    return rep


def _panel(cfg: ExperimentConfig):
    exponents = tuple(_param(cfg, "panel", _DEFAULT_PANEL))
    centers = tuple(_param(cfg, "centers", ("center", "edge")))
    return [(a, c) for a in exponents for c in centers]


def _combine_verdicts(verdicts) -> str:
    if any(v == weights_mod.INFINITE for v in verdicts):
        return weights_mod.INFINITE
    if all(v == weights_mod.FINITE for v in verdicts):
        return weights_mod.FINITE
    return weights_mod.INCONCLUSIVE


def _disagree(a: str, b: str) -> bool:
    return {a, b} == {weights_mod.FINITE, weights_mod.INFINITE}


def run_weights(cfg: ExperimentConfig) -> ReportBuilder:
    """Panel characteristics plus both finiteness-equivalence checks.

    Check 1 (n=1 factorization): the two-parameter characteristic at
    q=2, t=(4/3, 4/3) against its Muckenhoupt and reverse Hoelder factors.
    Check 2 (diagonal two-weight identity at q=1, s=3/2): the bilinear
    characteristic at (2,2) with t=(4/3, 4/3, 1) against the window class
    RC(-2, 2/5) of each component and the Muckenhoupt class A_3 of the
    geometric-mean weight.
    """
    rep = ReportBuilder("weights", cfg)
    levels = tuple(_param(cfg, "levels", (8, 10, 12)))
    d = cfg.grid.d
    periodic = cfg.grid.periodic
    table_rows = []
    disagreements = []

    def spec_at(k):
        return GridSpec(d, k, periodic)

    for a, center in _panel(cfg):
        wid = f"a={a:g}@{center}"

        def w_at(k, a=a, center=center):
            return weights_mod.make_power_weight(spec_at(k), a, center)

        # check 1: n=1 factorization (q=2, t1=t2=4/3)
        q, t1, t2 = 2.0, 4.0 / 3.0, 4.0 / 3.0
        multi = weights_mod.refinement_protocol(
            lambda k: weights_mod.WeightVector([w_at(k)], (q,)),
            lambda wv: weights_mod.multilinear_characteristic(
                wv, (t1, t2)) ** q,
            levels=levels)
        muck = weights_mod.refinement_protocol(
            w_at, lambda w: weights_mod.muckenhoupt_characteristic(w, q / t1),
            levels=levels)
        rh = weights_mod.refinement_protocol(
            w_at, lambda w: weights_mod.reverse_holder_characteristic(
                w, t2 / (q - (q - 1.0) * t2)),
            levels=levels)
        factored = _combine_verdicts([muck.verdict, rh.verdict])
        if _disagree(multi.verdict, factored):
            disagreements.append(("factorization", wid))
        for name, verdict in (("multilinear^q", multi), ("A_3/2", muck),
                              ("RH_2", rh)):
            table_rows.append([wid, "n1-factorization", name,
                               verdict.verdict] + list(verdict.values))

        # check 2: two-weight diagonal identity, q=1, s=3/2
        qs2 = (2.0, 2.0)
        ts2 = (4.0 / 3.0, 4.0 / 3.0, 1.0)
        multi2 = weights_mod.refinement_protocol(
            lambda k: weights_mod.WeightVector([w_at(k), w_at(k)], qs2),
            lambda wv: weights_mod.multilinear_characteristic(wv, ts2),
            levels=levels)
        rc = weights_mod.refinement_protocol(
            w_at, lambda w: weights_mod.rc_characteristic(w, -2.0, 0.4),
            levels=levels)
        a3 = weights_mod.refinement_protocol(
            w_at, lambda w: weights_mod.muckenhoupt_characteristic(w, 3.0),
            levels=levels)
        rhs = _combine_verdicts([rc.verdict, a3.verdict])
        if _disagree(multi2.verdict, rhs):
            disagreements.append(("two-weight-diagonal", wid))
        for name, verdict in (("bilinear", multi2), ("RC(-2,2/5)", rc),
                              ("A_3", a3)):
            table_rows.append([wid, "diagonal-identity", name,
                               verdict.verdict] + list(verdict.values))

    rep.asserted("finiteness-agreement", not disagreements,
                 disagreements=disagreements)
    inconclusive = sorted({r[0] for r in table_rows
                           if r[3] == weights_mod.INCONCLUSIVE})
    rep.recorded("inconclusive-entries", entries=inconclusive)
    rep.table("characteristics",
              ["weight", "check", "class", "verdict"]
              + [f"value_K{k}" for k in levels], table_rows)
    return rep


def _model_family_pool(spec: GridSpec, seed: int, size: int,
                       ps) -> list:
    """Model operators on constructed collections (relaxed budget for depth)."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(size):
        f = GridFunction(spec, rng.random(spec.ncells))
        built = sparse.build_sparse_collection([f, f], [1.0, 1.0], [2.0, 2.0],
                                               variant=2, child_budget=0.4,
                                               c0=1.0)
        pool.append(operators.model_sparse_operator(built.collection,
                                                    tuple(ps)))
    return pool


def run_lemma1(cfg: ExperimentConfig) -> ReportBuilder:
    """Vector transfer factor-2 bound over a corpus of model families."""
    rep = ReportBuilder("lemma1", cfg)
    ps = tuple(_param(cfg, "ps", (1.0, 1.0, 1.0)))
    n_comp = int(_param(cfg, "components", 4))
    pool = _model_family_pool(cfg.grid, cfg.seed + 1, n_comp, ps)
    family = operators.OperatorFamily(pool)
    corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
                             cfg.grid, n_slots=len(ps), n_components=n_comp)
    rows = []
    all_hold = True
    for i, tup in enumerate(corpus):
        check = operators.lemma1_check(family, list(tup), ps)
        all_hold &= check["holds"]
        rows.append([i, check["lhs"], check["integral"], check["ratio"]])
    rep.asserted("factor2-vector-transfer", all_hold, trials=len(corpus))
    rep.recorded("transfer-ratios",
                 max=max((r[3] for r in rows), default=None))
    rep.table("lemma1_trials", ["trial", "lhs", "integral", "ratio"], rows)
    return rep


def run_theorem11(cfg: ExperimentConfig) -> ReportBuilder:
    """Scalar-to-vector domination constant across family sizes."""
    rep = ReportBuilder("theorem11", cfg)
    ps, rs = map(tuple, _paired_exponents(cfg.kind, cfg.params))
    sizes = tuple(_param(cfg, "family_sizes", (1, 4, 16)))
    pool = _model_family_pool(cfg.grid, cfg.seed + 1, max(sizes), ps)
    rows = []
    c_by_n = {}
    for n_members in sizes:
        family = operators.OperatorFamily(pool[:n_members])
        corpus = generate_corpus("scaled-mix", cfg.seed, cfg.corpus_size,
                                 cfg.grid, n_slots=len(ps),
                                 n_components=n_members)
        best = 0.0
        for i, tup in enumerate(corpus):
            check = operators.theorem11_check(family, list(tup), ps, rs)
            if check["c_emp"] is not None:
                best = max(best, check["c_emp"])
            rows.append([n_members, i, check["lhs"], check["sparse_form"],
                         check["c_emp"]])
        c_by_n[n_members] = best
    values = [v for v in c_by_n.values() if v > 0]
    stable = bool(values) and max(values) <= 2.0 * min(values)
    rep.asserted("c-emp-stable-in-family-size", stable, c_emp=c_by_n)
    rep.table("theorem11_trials",
              ["family_size", "trial", "lhs", "sparse_form", "c_emp"], rows)
    rep.table("theorem11_constant", ["family_size", "c_emp"],
              [[n, c] for n, c in c_by_n.items()])
    return rep


def run_bht(cfg: ExperimentConfig) -> ReportBuilder:
    """Singular-sum model: reference match, admissibility, lower bounds in K."""
    rep = ReportBuilder("bht", cfg)
    seed = cfg.seed
    # reference match on small periodic grids
    worst = 0.0
    rng = np.random.default_rng(seed)
    for k in (3, 4, 5, 6):
        spec = GridSpec(1, k, True)
        trunc = max(1, spec.side // 4)
        for variant in ("sign", "smooth"):
            op = operators.discrete_bht(spec, trunc, variant)
            for _ in range(3):
                fs = [GridFunction(spec, rng.standard_normal(spec.ncells))
                      for _ in range(3)]
                ref = operators.discrete_bht_reference(fs, trunc, variant)
                worst = max(worst, abs(op.evaluate(fs) - ref))
    rep.asserted("matches-triple-loop", worst <= 1e-12, worst_gap=worst)
    rep.asserted("tuple-2-2-2-admissible",
                 operators.admissible_sparse_tuple((2.0, 2.0, 2.0)))
    rep.asserted("tuple-1-1-1-rejected",
                 not operators.admissible_sparse_tuple((1.0, 1.0, 1.0)))
    # empirical sparse-norm lower bound across K
    ps = tuple(_param(cfg, "ps", (2.0, 2.0, 2.0)))
    levels = tuple(_param(cfg, "levels", (6, 8, 10)))
    rows = []
    for k in levels:
        spec = GridSpec(1, int(k), True)
        op = operators.discrete_bht(spec, spec.side // 4, "sign")
        corpus = generate_corpus(cfg.corpus_kind, seed, cfg.corpus_size,
                                 spec, n_slots=3, n_components=1)
        est = operators.estimate_sparse_norm_lower_bound(op, ps, corpus)
        rows.append([int(k), est["value"], est["skipped"]])
    values = [r[1] for r in rows if r[1] > 0]
    rep.recorded("sparse-norm-lower-bound", by_level=rows,
                 stable_within_2x=bool(values)
                 and max(values) <= 2.0 * min(values))
    rep.table("bht_lower_bound", ["K", "lower_bound", "skipped"], rows)
    return rep


def run_weighted(cfg: ExperimentConfig) -> ReportBuilder:
    """Weighted vector-valued quotients of the singular model on the panel.

    Good panel weights (every hypothesis characteristic classified finite)
    must keep the supremum quotient within a factor 2 across refinements; the
    designated out-of-class weight must grow monotonically and breach that
    band.  The contrast is the assertion.
    """
    rep = ReportBuilder("weighted", cfg)
    levels = tuple(_param(cfg, "levels", (6, 8, 10, 12)))
    qs = tuple(_param(cfg, "qs", (2.0, 2.0)))
    rs = tuple(_param(cfg, "rs", (4.0, 4.0, 2.0)))
    q = holder_aggregate(qs)
    bad_exponent = float(_param(cfg, "bad_exponent", 1.5))
    panel = tuple(_param(cfg, "panel", _DEFAULT_PANEL))
    center = _param(cfg, "center", "center")
    size = cfg.corpus_size
    hypotheses = operators.bht_corner_hypotheses(q=q)

    def family_at(k):
        spec = GridSpec(1, int(k), True)
        return operators.OperatorFamily([
            operators.discrete_bht(spec, spec.side // 4, "sign"),
            operators.discrete_bht(spec, spec.side // 4, "smooth")])

    rows = []
    quotient_rows = []
    good_all_stable = True
    bad_grows = None
    n_good = 0
    for a in panel:
        def wv_at(k, a=a):
            spec = GridSpec(1, int(k), True)
            w = weights_mod.make_power_weight(spec, a, center)
            return weights_mod.WeightVector([w, w], qs)

        def corpus_at(k, a=a):
            spec = GridSpec(1, int(k), True)
            w = weights_mod.make_power_weight(spec, a, center)
            return generate_corpus("sided-inverse", cfg.seed, size, spec,
                                   n_components=len(qs), weight=w)

        check = operators.weighted_bound_check(
            family_at, wv_at, corpus_at, qs, rs, hypotheses,
            levels=levels, enforce_hypotheses=False)
        verdicts = {name: (v.verdict if hasattr(v, "verdict") else v)
                    for name, v in check["hypotheses"].items()}
        in_class = check["violated"] is None and \
            all(v == weights_mod.FINITE for v in verdicts.values())
        sups = check["sup_quotients"]
        for k, s in zip(levels, sups):
            quotient_rows.append([f"a={a:g}", int(k), s])
        if a == bad_exponent:
            monotone = all(b > x for x, b in zip(sups, sups[1:]))
            breaches = min(sups) > 0 and max(sups) > 2.0 * min(sups)
            bad_grows = monotone and breaches
            rows.append([f"a={a:g}", "out-of-class", check["violated"],
                         monotone, breaches])
        elif in_class:
            n_good += 1
            good_all_stable &= check["stable_within_2x"]
            rows.append([f"a={a:g}", "in-class", None,
                         check["stable_within_2x"], None])
        else:
            rows.append([f"a={a:g}", "reported-only",
                         check["violated"], None, None])
    rep.asserted("good-weights-stable", good_all_stable and n_good > 0,
                 n_good=n_good)
    rep.asserted("bad-weight-grows", bool(bad_grows),
                 bad_exponent=bad_exponent)
    rep.table("weighted_quotients", ["weight", "K", "sup_quotient"],
              quotient_rows)
    rep.table("weighted_panel",
              ["weight", "classification", "violated", "stable_or_monotone",
               "breaches_band"], rows)
    return rep


_RUNNERS = {
    "maximal": run_maximal,
    "build-sparse": run_build_sparse,
    "equivalence": run_equivalence,
    "weights": run_weights,
    "theorem11": run_theorem11,
    "lemma1": run_lemma1,
    "bht": run_bht,
    "weighted": run_weighted,
}


def run_experiment(cfg: ExperimentConfig, out_dir,
                   seed: int | None = None) -> int:
    """Execute one experiment and write report.json plus CSV tables.

    seed overrides the configured one.  Returns the process exit code:
    nonzero iff an ASSERTED row failed.
    """
    if seed is not None:
        cfg = ExperimentConfig(cfg.kind, cfg.grid, cfg.corpus_kind,
                               cfg.corpus_size, int(seed), cfg.params)
    report = _RUNNERS[cfg.kind](cfg)
    return report.write(out_dir)
