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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import maximal, operators, sparse, weights as weights_mod
from .errors import (
    ConfigError,
    DomainError,
    NonpositiveValueError,
    ZeroInputError,
)
from .lattice import GridFunction, GridSpec, holder_aggregate

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
    j = int(rng.integers(max(1, spec.levels - 3), spec.levels))
    radius = min(1 << j, n // 2 - 1)
    left = slice(c - radius, c)
    right = slice(c, c + radius)
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


_DEFAULT_PANEL = [-0.9, -0.5, 0.0, 0.5, 0.9, 1.5]

# every param each kind reads, with its default, spelled as in a config
_PARAMS = {
    "maximal": {"ps": [1.0, 1.0], "rs": [2.0, 2.0], "components": 3},
    "build-sparse": {"ps": [1.0, 1.0], "rs": [2.0, 2.0], "eps": 0.5,
                     "child_budget": 2.0 ** -16, "components": 2},
    "equivalence": {"ps": [1.0, 1.0]},
    "weights": {"levels": [8, 10, 12], "panel": _DEFAULT_PANEL,
                "centers": ["center", "edge"]},
    "theorem11": {"ps": [1.0, 1.0, 1.0], "rs": [4.0, 4.0, 2.0],
                  "family_sizes": [1, 4, 16]},
    "lemma1": {"ps": [1.0, 1.0, 1.0], "components": 4},
    "bht": {"ps": [2.0, 2.0, 2.0], "levels": [6, 8, 10]},
    "weighted": {"levels": [6, 8, 10, 12], "qs": [2.0, 2.0],
                 "rs": [4.0, 4.0], "bad_exponent": 1.5,
                 "panel": _DEFAULT_PANEL, "center": "center"},
}

EXPERIMENT_KINDS = tuple(_PARAMS)

# kinds that run on one corpus kind only, which is their default
_DRAWN_CORPUS = {"theorem11": "scaled-mix", "weighted": "sided-inverse"}


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_nonnegative_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) \
        and x >= 0


def _is_positive_int(x) -> bool:
    return _is_nonnegative_int(x) and x >= 1


def _is_center(x, d: int) -> bool:
    """A weight centre: "center", "edge" or a list of d finite coordinates."""
    return x in ("center", "edge") or (
        isinstance(x, list) and len(x) == d and all(map(_is_finite, x)))


def _is_positive(x) -> bool:
    return _is_real(x) and x > 0


def _is_finite(x) -> bool:
    return _is_real(x) and -np.inf < x < np.inf


# numeric experiment params: (is a list, element check, expected shape).
# Entries of rs and qs may be inf (the l^inf and L^inf branches).
_PARAM_TYPES = {
    "ps": (True, lambda x: _is_real(x) and 1 <= x < np.inf,
           "a nonempty list of numbers in [1, inf)"),
    "rs": (True, _is_positive, "a nonempty list of positive numbers"),
    "qs": (True, _is_positive, "a nonempty list of positive numbers"),
    "panel": (True, _is_finite, "a nonempty list of finite numbers"),
    "levels": (True, _is_positive_int, "a nonempty list of positive integers"),
    "family_sizes": (True, _is_positive_int,
                     "a nonempty list of positive integers"),
    "eps": (False, lambda x: _is_finite(x) and x > 0,
            "a positive finite number"),
    "child_budget": (False, lambda x: _is_real(x) and 0 < x < 0.5,
                     "a number in (0, 1/2)"),
    "bad_exponent": (False, _is_finite, "a finite number"),
    "components": (False, _is_positive_int, "a positive integer"),
}


def _check_params(params: dict):
    """Raise ConfigError naming the first numeric param of the wrong type or
    out of range."""
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


def _check_keys(obj: dict, accepted, where: str = ""):
    """Raise ConfigError naming the first key of obj that is not accepted."""
    for key in obj:
        if key not in accepted:
            raise ConfigError(f"unknown key (accepted: {', '.join(accepted)})",
                              field=f"{where}{key}")


def _check_kind_params(cfg: ExperimentConfig):
    """Raise ConfigError naming the param whose value, configured or
    default, does not fit the kind: a grid that is not periodic 1-d for
    the singular model (bht, weighted), slot counts other than 3 ps (bht),
    2 qs and 2 or more rs (weighted), qs with 3q/2 infinite or below 1,
    rs and ps of different lengths where they pair, p_j >= r_j in
    build-sparse and theorem11, a refinement level too large for the
    kind's grids or below 2 for the singular model (truncation side/4), a
    single level where a refinement protocol runs, a weight centre that is
    not "center", "edge" or one coordinate per axis, a bad_exponent
    missing from the panel, or a theorem11 or weighted corpus kind other
    than the one its runner draws."""
    kind, params, accepted = cfg.kind, cfg.params, _PARAMS[cfg.kind]
    for key, good in (("d", cfg.grid.d == 1), ("periodic", cfg.grid.periodic)):
        if kind in ("bht", "weighted") and not good:
            raise ConfigError("the singular model runs on periodic 1-d grids",
                              field=f"grid.{key}")
    if kind == "bht" and len(cfg.param("ps")) != 3:
        raise ConfigError("the singular model has three slots",
                          field="params.ps")
    if kind == "weighted":
        qs, rs = cfg.param("qs"), cfg.param("rs")
        if len(qs) != 2 or len(rs) < 2:
            raise ConfigError(
                "the bilinear model needs 2 qs and 2 or more rs",
                field="params.rs" if len(qs) == 2 else "params.qs")
        t = 3.0 * holder_aggregate(qs) / 2.0     # as in bht_corner_hypotheses
        if not 1 <= t < np.inf:
            raise ConfigError(f"the corner class A_{{3q/2}} needs a finite "
                              f"3q/2 >= 1, got {t:g}", field="params.qs")
    if "ps" in accepted and "rs" in accepted:
        ps, rs = cfg.param("ps"), cfg.param("rs")
        where = "params.rs" if "rs" in params else "params.ps"
        if len(rs) != len(ps):
            raise ConfigError(f"needs one r per p ({len(ps)} ps, {len(rs)} "
                              "rs)", field=where)
        if kind in ("build-sparse", "theorem11") and \
                not all(p < r for p, r in zip(ps, rs)):
            raise ConfigError("the construction needs p_j < r_j", field=where)
    d = cfg.grid.d
    if "levels" in accepted:
        levels = cfg.param("levels")
        for k in levels:
            try:
                GridSpec(d, k)
            except DomainError as err:
                raise ConfigError(str(err), field="params.levels") from None
        if kind != "weights" and min(levels) < 2:
            raise ConfigError("the singular model needs levels >= 2",
                              field="params.levels")
        if kind != "bht" and len(levels) < 2:
            raise ConfigError("the refinement protocol needs two or more "
                              "levels", field="params.levels")
    if "center" in accepted and not _is_center(cfg.param("center"), d):
        raise ConfigError(f'must be "center", "edge" or a list of {d} finite '
                          "numbers", field="params.center")
    if "centers" in accepted:
        centers = cfg.param("centers")
        if not (isinstance(centers, list) and centers
                and all(_is_center(c, d) for c in centers)):
            raise ConfigError('must be a nonempty list of "center", "edge" '
                              f"or lists of {d} finite numbers",
                              field="params.centers")
    if "bad_exponent" in accepted:
        bad = cfg.param("bad_exponent")
        if bad not in cfg.param("panel"):
            raise ConfigError(f"{bad:g} is not an entry of params.panel",
                              field="params.bad_exponent")
    drawn = _DRAWN_CORPUS.get(kind)
    if drawn is not None and cfg.corpus_kind != drawn:
        raise ConfigError(f"{kind} draws the {drawn} corpus, not "
                          f"{cfg.corpus_kind!r}", field="corpus.kind")


@dataclass
class ExperimentConfig:
    """One fully specified experiment run."""

    kind: str
    grid: GridSpec
    corpus_kind: str
    corpus_size: int
    seed: int
    params: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        def need(container, key, where):
            if key not in container:
                raise ConfigError("missing required field", field=where)
            return container[key]

        kind = need(doc, "kind", "kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}", field="kind")
        _check_keys(doc, ("kind", "grid", "corpus", "params"))
        grid_doc = need(doc, "grid", "grid")
        if not isinstance(grid_doc, dict):
            raise ConfigError("must be a JSON object", field="grid")
        _check_keys(grid_doc, ("d", "levels", "periodic"), "grid.")
        for key in ("d", "levels"):
            val = need(grid_doc, key, f"grid.{key}")
            if not _is_nonnegative_int(val):
                raise ConfigError("must be a nonnegative integer",
                                  field=f"grid.{key}")
        if grid_doc["d"] not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", field="grid.d")
        periodic = grid_doc.get("periodic", True)
        if not isinstance(periodic, bool):
            raise ConfigError("must be true or false", field="grid.periodic")
        try:
            grid = GridSpec(grid_doc["d"], grid_doc["levels"], periodic)
        except DomainError as err:
            raise ConfigError(str(err), field="grid.levels") from None
        corpus = doc.get("corpus", {})
        if not isinstance(corpus, dict):
            raise ConfigError("must be a JSON object", field="corpus")
        _check_keys(corpus, ("kind", "size", "seed"), "corpus.")
        corpus_kind = corpus.get("kind", _DRAWN_CORPUS.get(kind, "mixed"))
        if corpus_kind not in CORPUS_KINDS:
            raise ConfigError(f"unknown corpus kind {corpus_kind!r}",
                              field="corpus.kind")
        size = corpus.get("size", 50)
        if not _is_nonnegative_int(size):
            raise ConfigError("must be a nonnegative integer",
                              field="corpus.size")
        if size == 0 and kind != "weights":
            # every other kind asserts its checks over the corpus
            raise ConfigError(f"must be positive for a {kind!r} experiment",
                              field="corpus.size")
        seed = need(corpus, "seed", "corpus.seed")
        if not _is_nonnegative_int(seed):
            raise ConfigError("must be a nonnegative integer",
                              field="corpus.seed")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("must be a mapping", field="params")
        _check_keys(params, _PARAMS[kind], "params.")
        _check_params(params)
        cfg = cls(kind, grid, corpus_kind, size, seed, params)
        _check_kind_params(cfg)
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read: {err}", field=str(path)) from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}", field=str(path))
        if not isinstance(doc, dict):
            raise ConfigError("must hold a JSON object", field=str(path))
        return cls.from_dict(doc)

    def param(self, key: str):
        """The configured value of a param of this kind, or its default."""
        return self.params.get(key, _PARAMS[self.kind][key])


# ---------------------------------------------------------------------------
# report assembly


class ReportBuilder:
    """Collects ASSERTED/RECORDED rows and CSV tables, then writes them."""

    def __init__(self, config: ExperimentConfig):
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
        cfg = self.config
        return {
            "experiment": cfg.kind,
            "config": {
                "kind": cfg.kind,
                "grid": {"d": cfg.grid.d, "levels": cfg.grid.levels,
                         "periodic": cfg.grid.periodic},
                "corpus": {"kind": cfg.corpus_kind, "size": cfg.corpus_size,
                           "seed": cfg.seed},
                "params": cfg.params,
            },
            "rows": self.rows,
            "n_asserted": sum(r["status"] == "ASSERTED" for r in self.rows),
            "n_recorded": sum(r["status"] == "RECORDED" for r in self.rows),
            "failures": self.failures,
            "ok": not self.failures,
        }

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
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# the experiments


def run_maximal(cfg: ExperimentConfig) -> ReportBuilder:
    """Pointwise Hoelder sandwich and weak-type quotients on a corpus."""
    rep = ReportBuilder(cfg)
    ps, rs = tuple(cfg.param("ps")), tuple(cfg.param("rs"))
    n_comp = int(cfg.param("components"))
    corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
                             cfg.grid, n_slots=len(ps), n_components=n_comp)
    n = len(ps)
    # every contiguous two-block split of the slots; one slot has none, and
    # its one-block partition is the joint maximal function itself
    splits = [[list(range(s)), list(range(s, n))] for s in range(1, n)] \
        or [[[0]]]
    singletons = [[j] for j in range(n)]    # the Hoelder majorant
    r = holder_aggregate(rs)
    rows = []
    worst = 0.0
    sandwich_ok = True
    for i, tup in enumerate(corpus):
        inputs = list(tup)
        left = maximal.vector_maximal(inputs, ps, r=r).values[:, 0]
        right = maximal.partitioned_maximal(inputs, ps, rs,
                                            singletons).values[:, 0]
        scale = max(float(right.max()), 1e-300)
        for split in splits:
            mid = maximal.partitioned_maximal(inputs, ps, rs,
                                              split).values[:, 0]
            gap = max(float(np.max(left - mid)), float(np.max(mid - right)))
            worst = max(worst, gap / scale)
            # pointwise, so a breach far below the sup counts too
            sandwich_ok &= bool(np.all(left <= mid * (1 + 1e-9) + 1e-15)
                                and np.all(mid <= right * (1 + 1e-9) + 1e-15))
        try:
            quotient = maximal.weak_type_quotient(inputs, ps, rs)
        except ZeroInputError:
            quotient = None
        rows.append([i, float(left.max()), float(right.max()), quotient])
    rep.asserted("holder-sandwich", sandwich_ok, worst_violation=worst,
                 trials=len(corpus))
    rep.recorded("weak-type-quotients",
                 values=[row[3] for row in rows if row[3] is not None])
    rep.table("maximal_trials", ["trial", "sup_M", "sup_dominator",
                                 "weak_type_quotient"], rows)
    return rep


def run_build_sparse(cfg: ExperimentConfig) -> ReportBuilder:
    """Both stopping-time variants on a corpus: sparsity, budgets, factor 2."""
    rep = ReportBuilder(cfg)
    ps, rs = list(cfg.param("ps")), list(cfg.param("rs"))
    eps = float(cfg.param("eps"))
    budget = float(cfg.param("child_budget"))
    n_comp = int(cfg.param("components"))
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
    rep = ReportBuilder(cfg)
    ps = list(cfg.param("ps"))
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
        integral = sparse.integral_of_form(inputs, ps, shifts="canonical")
        upper_ok &= value <= 2.0 * integral * (1.0 + 1e-9)
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


@contextmanager
def _panel_step(a: float, center, k: int):
    """One panel weight's step: a weight that is not finite and positive,
    or float64 overflow in the step, is a config error on the panel
    exponent that asked for it."""
    try:
        yield
    except (NonpositiveValueError, FloatingPointError) as err:
        raise ConfigError(f"exponent {a:g} with centre {center!r} at K = "
                          f"{k}: {err}", field="params.panel") from None


def _panel(cfg: ExperimentConfig):
    exponents = tuple(cfg.param("panel"))
    centers = tuple(cfg.param("centers"))
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

    Levels are the outer loop: one weight per (exponent, centre, K) serves
    all six classes and is then dropped.  The classes run in an order in
    which consecutive ones share a power mean, so the weight's two-entry
    memo (Weight.means) computes each of its 7 distinct means once.
    """
    rep = ReportBuilder(cfg)
    levels = tuple(cfg.param("levels"))
    q, t1, t2 = 2.0, 4.0 / 3.0, 4.0 / 3.0                # check 1
    qs2, ts2 = (2.0, 2.0), (4.0 / 3.0, 4.0 / 3.0, 1.0)   # check 2
    classes = {
        "bilinear": lambda w: weights_mod.multilinear_characteristic(
            weights_mod.WeightVector([w, w], qs2), ts2),
        "multilinear^q": lambda w: weights_mod.multilinear_characteristic(
            weights_mod.WeightVector([w], (q,)), (t1, t2)) ** q,
        "RH_2": lambda w: weights_mod.reverse_holder_characteristic(
            w, t2 / (q - (q - 1.0) * t2)),
        "A_3": lambda w: weights_mod.muckenhoupt_characteristic(w, 3.0),
        "A_3/2": lambda w: weights_mod.muckenhoupt_characteristic(w, q / t1),
        "RC(-2,2/5)": lambda w: weights_mod.rc_characteristic(w, -2.0, 0.4),
    }
    panel = _panel(cfg)
    values = [{name: [] for name in classes} for _ in panel]
    for k in levels:
        spec = GridSpec(cfg.grid.d, k, cfg.grid.periodic)
        for (a, center), vals in zip(panel, values):
            with _panel_step(a, center, k):
                w = weights_mod.make_power_weight(spec, a, center)
                for name, characteristic in classes.items():
                    vals[name].append(characteristic(w))
                del w   # its means go before the next weight is built
    table_rows = []
    disagreements = []
    for (a, center), vals in zip(panel, values):
        wid = f"a={a:g}@{center}"
        verdict = {name: weights_mod.classify_growth(vals[name])
                   for name in classes}
        factored = _combine_verdicts([verdict["A_3/2"], verdict["RH_2"]])
        if _disagree(verdict["multilinear^q"], factored):
            disagreements.append(("factorization", wid))
        rhs = _combine_verdicts([verdict["RC(-2,2/5)"], verdict["A_3"]])
        if _disagree(verdict["bilinear"], rhs):
            disagreements.append(("two-weight-diagonal", wid))
        for check, names in (
                ("n1-factorization", ("multilinear^q", "A_3/2", "RH_2")),
                ("diagonal-identity", ("bilinear", "RC(-2,2/5)", "A_3"))):
            for name in names:
                table_rows.append([wid, check, name, verdict[name]]
                                  + vals[name])

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
    rep = ReportBuilder(cfg)
    ps = tuple(cfg.param("ps"))
    n_comp = int(cfg.param("components"))
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


def _within_2x(values) -> bool:
    """The refinement band: every rung positive and max <= 2 * min."""
    return bool(values and min(values) > 0 and max(values) <= 2 * min(values))


def run_theorem11(cfg: ExperimentConfig) -> ReportBuilder:
    """Scalar-to-vector domination constant across family sizes."""
    rep = ReportBuilder(cfg)
    ps, rs = tuple(cfg.param("ps")), tuple(cfg.param("rs"))
    sizes = tuple(cfg.param("family_sizes"))
    pool = _model_family_pool(cfg.grid, cfg.seed + 1, max(sizes), ps)
    rows = []
    c_by_n = {}
    for n_members in sizes:
        family = operators.OperatorFamily(pool[:n_members])
        corpus = generate_corpus(cfg.corpus_kind, cfg.seed, cfg.corpus_size,
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
    rep.asserted("c-emp-stable-in-family-size",
                 _within_2x(list(c_by_n.values())), c_emp=c_by_n)
    rep.table("theorem11_trials",
              ["family_size", "trial", "lhs", "sparse_form", "c_emp"], rows)
    rep.table("theorem11_constant", ["family_size", "c_emp"],
              [[n, c] for n, c in c_by_n.items()])
    return rep


def run_bht(cfg: ExperimentConfig) -> ReportBuilder:
    """Singular-sum model: reference match, admissibility, lower bounds in K."""
    rep = ReportBuilder(cfg)
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
    ps = tuple(cfg.param("ps"))
    levels = tuple(cfg.param("levels"))
    rows = []
    for k in levels:
        spec = GridSpec(1, int(k), True)
        op = operators.discrete_bht(spec, spec.side // 4, "sign")
        corpus = generate_corpus(cfg.corpus_kind, seed, cfg.corpus_size,
                                 spec, n_slots=3, n_components=1)
        est = operators.estimate_sparse_norm_lower_bound(op, ps, corpus)
        rows.append([int(k), est["value"], est["skipped"]])
    rep.recorded("sparse-norm-lower-bound", by_level=rows,
                 stable_within_2x=_within_2x([r[1] for r in rows]))
    rep.table("bht_lower_bound", ["K", "lower_bound", "skipped"], rows)
    return rep


def run_weighted(cfg: ExperimentConfig) -> ReportBuilder:
    """Weighted vector-valued quotients of the singular model on the panel.

    Good panel weights (every hypothesis characteristic classified finite)
    must keep the supremum quotient within a factor 2 across refinements; the
    designated out-of-class weight must grow monotonically and breach that
    band.  The contrast is the assertion.

    Levels are the outer loop: the two-member family is built once per K,
    and one power weight per (exponent, K) serves v_1 = v_2, its hypothesis
    characteristics and its sided-inverse corpus.  The violated hypothesis
    is the first one, in list order, classified infinite.
    """
    rep = ReportBuilder(cfg)
    levels = tuple(cfg.param("levels"))
    qs = tuple(cfg.param("qs"))
    rs = tuple(cfg.param("rs"))
    bad_exponent = float(cfg.param("bad_exponent"))
    panel = tuple(cfg.param("panel"))
    center = cfg.param("center")
    hypotheses = operators.bht_corner_hypotheses(q=holder_aggregate(qs))
    values = [{name: [] for name, _ in hypotheses} for _ in panel]
    sups = [[] for _ in panel]
    for k in levels:
        spec = GridSpec(1, int(k), True)
        family = operators.OperatorFamily([
            operators.discrete_bht(spec, spec.side // 4, "sign"),
            operators.discrete_bht(spec, spec.side // 4, "smooth")])
        for a, vals, sup in zip(panel, values, sups):
            with _panel_step(a, center, k):
                w = weights_mod.make_power_weight(spec, a, center)
                wv = weights_mod.WeightVector([w, w], qs)
                for name, characteristic in hypotheses:
                    vals[name].append(characteristic(wv))
                best = 0.0
                for inputs in generate_corpus(cfg.corpus_kind, cfg.seed,
                                              cfg.corpus_size, spec,
                                              n_components=len(qs), weight=w):
                    quot = operators.weighted_quotient(family, list(inputs),
                                                       wv, rs)
                    if quot is not None:
                        best = max(best, quot)
            sup.append(best)

    rows = []
    quotient_rows = []
    good_all_stable = True
    bad_grows = None
    n_good = 0
    for a, vals, sup in zip(panel, values, sups):
        verdicts = [weights_mod.classify_growth(v) for v in vals.values()]
        violated = next((name for name, v in zip(vals, verdicts)
                         if v == weights_mod.INFINITE), None)
        for k, s in zip(levels, sup):
            quotient_rows.append([f"a={a:g}", int(k), s])
        if a == bad_exponent:
            monotone = all(b > x for x, b in zip(sup, sup[1:]))
            breaches = min(sup) > 0 and not _within_2x(sup)
            bad_grows = monotone and breaches
            rows.append([f"a={a:g}", "out-of-class", violated,
                         monotone, breaches])
        elif all(v == weights_mod.FINITE for v in verdicts):
            stable = _within_2x(sup)
            n_good += 1
            good_all_stable &= stable
            rows.append([f"a={a:g}", "in-class", None, stable, None])
        else:
            rows.append([f"a={a:g}", "reported-only", violated, None, None])
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
    nonzero iff an ASSERTED row failed.  The run computes in float64 with
    overflow, division by zero and invalid operations raised, so a config
    whose numbers leave float64 is a ConfigError, never an inf or nan in a
    report; underflow to 0 stays silent.
    """
    if seed is not None:
        cfg = ExperimentConfig(cfg.kind, cfg.grid, cfg.corpus_kind,
                               cfg.corpus_size, int(seed), cfg.params)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            report = _RUNNERS[cfg.kind](cfg)
        except FloatingPointError as err:
            raise ConfigError(f"the run leaves float64: {err}",
                              field="params") from None
    return report.write(out_dir)
