"""Corpora, configuration validation, experiment runs and the CLI."""

import filecmp
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsedom import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    generate_corpus,
    harness,
    maximal,
    operators,
    run_experiment,
    sparse,
    weights,
)
from sparsedom.cli import build_parser, main
from sparsedom.errors import ConfigError
from sparsedom.harness import EXPERIMENT_KINDS
from sparsedom.weights import make_power_weight
from test_maximal import cube_averages_all_levels


def base_doc(kind="maximal", **params):
    corpus_kind = "sided-inverse" if kind == "weighted" else "mixed"
    return {
        "kind": kind,
        "grid": {"d": 1, "levels": 4, "periodic": True},
        "corpus": {"kind": corpus_kind, "size": 4, "seed": 5},
        "params": params,
    }


# ---------------------------------------------------------------------------
# corpora


def test_corpus_reproducible():
    spec = GridSpec(1, 5, periodic=True)
    a = generate_corpus("mixed", 7, 6, spec, n_slots=2, n_components=3)
    b = generate_corpus("mixed", 7, 6, spec, n_slots=2, n_components=3)
    c = generate_corpus("mixed", 8, 6, spec, n_slots=2, n_components=3)
    for ta, tb in zip(a, b):
        for fa, fb in zip(ta, tb):
            assert np.array_equal(fa.values, fb.values)
    assert any(not np.array_equal(fa.values, fc.values)
               for ta, tc in zip(a, c) for fa, fc in zip(ta, tc))


def test_corpus_shapes_and_kinds():
    spec = GridSpec(1, 6, periodic=True)
    corpus = generate_corpus("spikes", 1, 3, spec, n_slots=2, n_components=2)
    assert len(corpus) == 3
    for tup in corpus:
        assert len(tup) == 2
        for f in tup:
            assert f.values.shape == (64, 2)
            density = np.count_nonzero(f.values) / f.values.size
            assert density <= 0.11
    assert generate_corpus("mixed", 1, 0, spec) == []
    with pytest.raises(ConfigError):
        generate_corpus("bogus", 1, 3, spec)


def test_scaled_mix_shares_profile_across_components():
    spec = GridSpec(1, 5, periodic=True)
    corpus = generate_corpus("scaled-mix", 2, 3, spec, n_slots=2,
                             n_components=4)
    for tup in corpus:
        for f in tup:
            base = f.values[:, 0]
            support = base > 0
            for k in range(1, 4):
                col = f.values[:, k]
                assert np.array_equal(col > 0, support)
                if support.any():
                    ratios = col[support] / base[support]
                    assert np.allclose(ratios, ratios[0])


def test_sided_inverse_pairs_are_separated():
    spec = GridSpec(1, 6, periodic=True)
    w = make_power_weight(spec, 0.5, center="center")
    corpus = generate_corpus("sided-inverse", 3, 5, spec, n_components=2,
                             weight=w)
    mid = spec.ncells // 2
    for f, g in corpus:
        # the pair order is randomized; one side each, never overlapping
        sides = {int(np.count_nonzero(h.values[mid:, :]) == 0) for h in (f, g)}
        assert sides == {0, 1}
        assert np.count_nonzero(f.values * g.values) == 0


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip(tmp_path):
    doc = base_doc()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.kind == "maximal"
    assert cfg.grid == GridSpec(1, 4, True)
    assert cfg.corpus_size == 4 and cfg.seed == 5


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.pop("kind"), "kind"),
    (lambda d: d.update(kind="bogus"), "kind"),
    (lambda d: d["grid"].pop("d"), "grid.d"),
    (lambda d: d["grid"].update(d=3), "grid.d"),
    (lambda d: d["grid"].update(levels="four"), "grid.levels"),
    (lambda d: d["corpus"].update(kind="bogus"), "corpus.kind"),
    (lambda d: d["corpus"].update(size=-1), "corpus.size"),
    (lambda d: d["corpus"].pop("seed"), "corpus.seed"),
    (lambda d: d.update(params=[1, 2]), "params"),
    pytest.param(lambda d: d["params"].update(pannel=[0.0]), "params.pannel",
                 id="misspelt-param"),
    pytest.param(lambda d: d["params"].update(eps=0.5), "params.eps",
                 id="param-of-another-kind"),
    pytest.param(lambda d: d["grid"].update(periodc=False), "grid.periodc",
                 id="misspelt-grid-key"),
    pytest.param(lambda d: d["corpus"].update(sise=4), "corpus.sise",
                 id="misspelt-corpus-key"),
    pytest.param(lambda d: d.update(param={}), "param",
                 id="misspelt-top-level-key"),
    pytest.param(lambda d: d["grid"].update(periodic="false"),
                 "grid.periodic", id="string-periodic"),
    pytest.param(lambda d: d["grid"].update(periodic=0), "grid.periodic",
                 id="integer-periodic"),
])
def test_config_validation_names_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert err.value.field == field


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json"))
                         + sorted(CONFIG_DIR.glob("acceptance/*.json")),
                         ids=lambda p: p.relative_to(CONFIG_DIR).as_posix())
def test_shipped_config_loads(path):
    """Each shipped and acceptance config passes validation, and a shipped
    config's file name names its kind; with every param of the kind spelled
    out at its default it passes too, so no default breaks its own checks."""
    cfg = ExperimentConfig.from_file(path)
    if path.parent == CONFIG_DIR:
        assert cfg.kind == path.stem.replace("_", "-")
    doc = json.loads(path.read_text())
    doc["params"] = dict(harness._PARAMS[cfg.kind])
    ExperimentConfig.from_dict(doc)


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("text", ["5", '"kind"', "[1]"])
def test_cli_config_not_an_object_exits_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["maximal", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("config,out,named", [
    pytest.param("missing.json", "o", "missing.json", id="config-missing"),
    pytest.param("dir", "o", "dir", id="config-is-a-directory"),
    pytest.param("latin1.json", "o", "latin1.json", id="config-not-utf8"),
    pytest.param("cfg.json", "file", "--out", id="out-is-a-file"),
    pytest.param("cfg.json", "file/sub", "--out", id="out-inside-a-file"),
])
def test_cli_unusable_path_exits_2(config, out, named, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "\xff"}')
    (tmp_path / "cfg.json").write_text(json.dumps(base_doc()))
    (tmp_path / "file").write_text("kept")
    assert main(["maximal", "--config", str(tmp_path / config),
                 "--out", str(tmp_path / out)]) == 2
    assert named in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "kept"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# experiment runs


def small_config(kind):
    docs = {
        "maximal": base_doc("maximal"),
        "build-sparse": base_doc("build-sparse"),
        "equivalence": {
            "kind": "equivalence",
            "grid": {"d": 1, "levels": 3, "periodic": False},
            "corpus": {"kind": "mixed", "size": 4, "seed": 5},
            "params": {},
        },
        "lemma1": base_doc("lemma1"),
        "weights": {
            "kind": "weights",
            "grid": {"d": 1, "levels": 6, "periodic": True},
            "corpus": {"kind": "mixed", "size": 0, "seed": 5},
            "params": {"levels": [4, 6], "panel": [0.0, 1.5]},
        },
        "weighted": {
            "kind": "weighted",
            "grid": {"d": 1, "levels": 6, "periodic": True},
            "corpus": {"kind": "sided-inverse", "size": 1, "seed": 5},
            "params": {"levels": [6, 8], "panel": [0.0, 0.4, 1.5]},
        },
    }
    return ExperimentConfig.from_dict(docs[kind])


@pytest.mark.parametrize("kind", ["maximal", "build-sparse", "equivalence",
                                  "lemma1"])
def test_small_experiments_pass(kind, tmp_path):
    cfg = small_config(kind)
    code = run_experiment(cfg, tmp_path / kind)
    assert code == 0
    report = json.loads((tmp_path / kind / "report.json").read_text())
    assert report["experiment"] == kind
    asserted = [r for r in report["rows"] if r["status"] == "ASSERTED"]
    assert asserted and all(r["pass"] for r in asserted)


def test_weights_builds_each_power_weight_once(monkeypatch, tmp_path):
    """One power weight per (exponent, centre, K), shared by every
    characteristic of the run; the report bytes do not change, and a weight
    shared by two components gives the bits of two separately built ones."""
    cfg = small_config("weights")
    run_experiment(cfg, tmp_path / "plain")
    calls = []

    def counted(spec, a, center="center"):
        calls.append((spec.levels, a, center))
        return make_power_weight(spec, a, center)

    monkeypatch.setattr(weights, "make_power_weight", counted)
    rep = harness.run_weights(cfg)
    rep.write(tmp_path / "counted")
    centers = ("center", "edge")   # the default centres
    assert len(calls) == len(cfg.params["panel"]) * len(centers) \
        * len(cfg.params["levels"])
    assert len(set(calls)) == len(calls)
    names = [p.name for p in (tmp_path / "plain").iterdir()]
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "plain", tmp_path / "counted", names, shallow=False)
    assert not mismatch and not errors
    # the bilinear rows feed one weight object to both components; two
    # separately built weights give the same bits
    levels = cfg.params["levels"]
    for row in rep.tables["characteristics"][1]:
        if row[2] != "bilinear":
            continue
        a, center = row[0][2:].split("@")
        for k, value in zip(levels, row[4:]):
            spec = GridSpec(cfg.grid.d, k, cfg.grid.periodic)
            wv = weights.WeightVector(
                [make_power_weight(spec, float(a), center),
                 make_power_weight(spec, float(a), center)], (2.0, 2.0))
            assert value == weights.multilinear_characteristic(
                wv, (4.0 / 3.0, 4.0 / 3.0, 1.0))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("periodic", [False, True])
def test_weights_constant_weight_characteristics_are_one(d, periodic):
    """The a = 0 power weight is constant, so each of the six
    characteristics run_weights computes reads exactly 1.0 at every K."""
    cfg = ExperimentConfig.from_dict({
        "kind": "weights",
        "grid": {"d": d, "levels": 4, "periodic": periodic},
        "corpus": {"kind": "mixed", "size": 0, "seed": 5},
        "params": {"levels": [3, 4], "panel": [0.0]},
    })
    rows = harness.run_weights(cfg).tables["characteristics"][1]
    assert len({row[2] for row in rows}) == 6
    for row in rows:
        assert row[4:] == [1.0, 1.0]


def test_weights_computes_each_mean_once_per_weight(monkeypatch):
    """run_weights makes 7 cube_averages calls per (exponent, centre, K),
    one per distinct (array, exponent): the bilinear product weight at 1,
    1/w at 2, then w at 2, 1, -1/2, -2 and 2/5.  A second run makes as
    many again, so no mean outlives the weight it belongs to."""
    cfg = small_config("weights")
    original = maximal.cube_averages
    calls = []

    def counted(spec, g, p):
        calls.append(p)
        return original(spec, g, p)

    monkeypatch.setattr(maximal, "cube_averages", counted)
    s = (4.0 / 3.0) / (2.0 - 4.0 / 3.0)
    per_weight = [1.0, s, s, 1.0, -0.5, -2.0, 0.4]
    per_run = len(per_weight) * len(cfg.params["panel"]) * 2 \
        * len(cfg.params["levels"])     # two default centres
    for run in (1, 2):
        harness.run_weights(cfg)
        assert len(calls) == run * per_run
    assert calls[:len(per_weight)] == per_weight


def test_weights_report_matches_unmemoized_means(monkeypatch, tmp_path):
    """With Weight.means recomputing on every call, the oracle of its memo,
    the shipped weights config writes the same report and table bytes."""
    path = Path(__file__).resolve().parents[1] / "configs" / "weights.json"
    cfg = ExperimentConfig.from_file(path)
    assert run_experiment(cfg, tmp_path / "memo") == 0
    monkeypatch.setattr(weights.Weight, "means", lambda self, p:
                        maximal.cube_averages(self.spec, self.values, p))
    assert run_experiment(cfg, tmp_path / "oracle") == 0
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "memo", tmp_path / "oracle",
        ["report.json", "characteristics.csv"], shallow=False)
    assert not mismatch and not errors


WEIGHTS_2D = {
    "kind": "weights",
    "grid": {"d": 2, "levels": 3, "periodic": False},
    "corpus": {"kind": "mixed", "size": 0, "seed": 5},
    "params": {"levels": [3, 4, 5]},
}


@pytest.mark.parametrize("doc", ["weights.json", WEIGHTS_2D],
                         ids=["config", "2d"])
def test_weights_report_matches_all_levels_oracle(monkeypatch, tmp_path,
                                                  doc):
    """With the all-levels oracle's means in place of cube_averages, unit
    cubes included, the weights experiment writes the same report and
    table bytes: leaving the unit cubes out changes no characteristic."""
    cfg = (ExperimentConfig.from_dict(doc) if isinstance(doc, dict) else
           ExperimentConfig.from_file(
               Path(__file__).resolve().parents[1] / "configs" / doc))
    assert run_experiment(cfg, tmp_path / "levels-1-K") == 0
    monkeypatch.setattr(maximal, "cube_averages", cube_averages_all_levels)
    assert run_experiment(cfg, tmp_path / "oracle") == 0
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "levels-1-K", tmp_path / "oracle",
        ["report.json", "characteristics.csv"], shallow=False)
    assert not mismatch and not errors


def test_weights_peak_memory_stays_flat():
    """Levels run outermost, a weight keeps at most two of its means and
    the means leave out the unit cubes, so the traced peak of run_weights
    on 1-d K = 12, 14, 16 stays within a few arrays of the finest grid:
    3.5 MiB, against 5.5 MiB when the means held the unit cubes too and
    8.0 MiB when a weight also kept all of them."""
    cfg = ExperimentConfig.from_dict({
        "kind": "weights",
        "grid": {"d": 1, "levels": 12, "periodic": False},
        "corpus": {"kind": "mixed", "size": 0, "seed": 5},
        "params": {"levels": [12, 14, 16], "panel": [0.0, -0.5, 0.5, 1.5]},
    })
    tracemalloc.start()
    try:
        harness.run_weights(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_weighted_builds_each_weight_and_family_once_per_level(monkeypatch):
    """Levels run outermost: one power weight per (exponent, K) serves both
    components, the hypotheses and the corpus, and the two-member singular
    family is built once per K."""
    cfg = small_config("weighted")
    weight_calls, family_calls = [], []
    make_weight, make_bht = weights.make_power_weight, operators.discrete_bht

    def counted_weight(spec, a, center="center"):
        weight_calls.append((spec.levels, a))
        return make_weight(spec, a, center)

    def counted_bht(spec, truncation, variant="sign"):
        family_calls.append((spec.levels, variant))
        return make_bht(spec, truncation, variant)

    monkeypatch.setattr(weights, "make_power_weight", counted_weight)
    monkeypatch.setattr(operators, "discrete_bht", counted_bht)
    harness.run_weighted(cfg)
    levels, panel = cfg.params["levels"], cfg.params["panel"]
    assert len(weight_calls) == len(panel) * len(levels)
    assert len(family_calls) == 2 * len(levels)


def _planted_quotient_times_side(monkeypatch):
    real = operators.weighted_quotient

    def planted(family, inputs, wv, rs):
        quot = real(family, inputs, wv, rs)
        return None if quot is None else quot * family.spec.side

    monkeypatch.setattr(operators, "weighted_quotient", planted)


def _planted_flat_bad_weight(monkeypatch):
    real = weights.make_power_weight

    def planted(spec, a, center="center"):
        return real(spec, 0.0 if a == 1.5 else a, center)

    monkeypatch.setattr(weights, "make_power_weight", planted)


@pytest.mark.parametrize("plant,flipped", [
    pytest.param(_planted_quotient_times_side, "good-weights-stable",
                 id="quotient-times-side"),
    pytest.param(_planted_flat_bad_weight, "bad-weight-grows",
                 id="flat-bad-weight"),
])
def test_weighted_rows_fail_on_planted_fault(plant, flipped, monkeypatch,
                                             tmp_path):
    """Each ASSERTED row of the weighted contrast fails under a fault made
    for it, and only that row: quotients that grow with the side break the
    good weights' band; a bad weight with the constant profile stays flat."""
    doc = json.loads((CONFIG_DIR / "weighted.json").read_text())
    doc["corpus"]["size"] = 2
    cfg = ExperimentConfig.from_dict(doc)
    assert run_experiment(cfg, tmp_path / "clean") == 0
    plant(monkeypatch)
    assert run_experiment(cfg, tmp_path / "planted") == 1
    report = json.loads((tmp_path / "planted" / "report.json").read_text())
    passed = {r["id"]: r["pass"] for r in report["rows"]
              if r["status"] == "ASSERTED"}
    assert passed == {"good-weights-stable": True, "bad-weight-grows": True,
                      flipped: False}


def test_theorem11_fails_when_a_family_size_measures_nothing(monkeypatch,
                                                             tmp_path):
    """A family size whose checks all give c_emp = None is a zero rung:
    c-emp-stable-in-family-size fails, since one measured size shows no
    stability, and the CLI exits 1."""
    real = operators.theorem11_check

    def planted(family, inputs, ps, rs):
        result = real(family, inputs, ps, rs)
        return {**result, "c_emp": None} if family.size > 1 else result

    monkeypatch.setattr(operators, "theorem11_check", planted)
    out = tmp_path / "out"
    assert main(["theorem11", "--config", str(CONFIG_DIR / "theorem11.json"),
                 "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    row = [r for r in report["rows"]
           if r["id"] == "c-emp-stable-in-family-size"][0]
    assert row["pass"] is False


def test_reports_deterministic_across_runs(tmp_path):
    cfg = small_config("maximal")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b",
        [p.name for p in (tmp_path / "a").iterdir()], shallow=False)
    assert not mismatch and not errors


def test_seed_override_changes_corpus(tmp_path):
    cfg = small_config("maximal")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b", seed=99)
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a["config"]["corpus"]["seed"] != b["config"]["corpus"]["seed"]
    assert b["config"]["corpus"]["seed"] == 99


# ---------------------------------------------------------------------------
# command line


def test_parser_covers_every_kind():
    parser = build_parser()
    for kind in EXPERIMENT_KINDS:
        args = parser.parse_args([kind, "--config", "c.json", "--out", "o"])
        assert args.command == kind


def test_cli_runs_small_experiment(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc()))
    out = tmp_path / "out"
    assert main(["maximal", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_cli_kind_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc()))
    assert main(["bht", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    doc = base_doc()
    doc["grid"]["d"] = 3
    path.write_text(json.dumps(doc))
    assert main(["maximal", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "grid.d" in capsys.readouterr().err


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d["grid"].update(levels=0), "grid.levels"),
    (lambda d: d["grid"].update(levels=30), "grid.levels"),
    (lambda d: d["params"].update(ps=[1, "x"]), "params.ps"),
    (lambda d: d["params"].update(rs=2.0), "params.rs"),
    (lambda d: d.update(kind="weighted", params={"qs": []}), "params.qs"),
    (lambda d: d.update(kind="weights", params={"panel": [0.0, None]}),
     "params.panel"),
    (lambda d: d.update(kind="weights", params={"levels": [4, 0]}),
     "params.levels"),
    (lambda d: d.update(kind="weights", params={"levels": [4.0, 6.0]}),
     "params.levels"),
    (lambda d: d.update(kind="theorem11", params={"family_sizes": [1, True]}),
     "params.family_sizes"),
    (lambda d: d.update(kind="build-sparse", params={"eps": "0.5"}),
     "params.eps"),
    (lambda d: d.update(kind="build-sparse", params={"child_budget": [0.25]}),
     "params.child_budget"),
    (lambda d: d.update(kind="weighted", params={"bad_exponent": None}),
     "params.bad_exponent"),
    (lambda d: d["params"].update(components=2.5), "params.components"),
    pytest.param(lambda d: d["params"].update(ps=[0, 1.0]), "params.ps",
                 id="nonpositive-ps"),
    pytest.param(lambda d: d.update(kind="build-sparse", params={"eps": -1}),
                 "params.eps", id="nonpositive-eps"),
    pytest.param(lambda d: d["params"].update(ps=[0.5, 1.0]), "params.ps",
                 id="maximal-ps-below-one"),
    pytest.param(lambda d: d.update(kind="lemma1",
                                    params={"ps": [1.0, 0.5, 1.0]}),
                 "params.ps", id="lemma1-ps-below-one"),
    pytest.param(lambda d: d["params"].update(ps=[1.0, float("inf")]),
                 "params.ps", id="maximal-infinite-ps"),
    pytest.param(lambda d: d.update(kind="build-sparse",
                                    params={"eps": float("inf")}),
                 "params.eps", id="build-sparse-infinite-eps"),
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"panel": [0.0, float("nan")]}),
                 "params.panel", id="weights-nan-panel"),
    pytest.param(lambda d: d.update(kind="weighted", params={
        "panel": [0.0, float("inf")], "bad_exponent": float("inf")}),
                 "params.panel", id="weighted-infinite-panel"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"bad_exponent": float("nan")}),
                 "params.bad_exponent", id="weighted-nan-bad-exponent"),
    pytest.param(lambda d: d.update(kind="build-sparse",
                                    params={"child_budget": 0.75}),
                 "params.child_budget", id="child-budget-above-half"),
    pytest.param(lambda d: d["params"].update(rs=[2.0]), "params.rs",
                 id="maximal-fewer-rs-than-ps"),
    pytest.param(lambda d: d["params"].update(ps=[1, 1, 1]), "params.ps",
                 id="maximal-more-ps-than-default-rs"),
    pytest.param(lambda d: d.update(kind="theorem11",
                                    params={"rs": [4.0, 4.0]}),
                 "params.rs", id="theorem11-fewer-rs-than-ps"),
    pytest.param(lambda d: d.update(kind="build-sparse",
                                    params={"rs": [1.0, 1.0]}),
                 "params.rs", id="build-sparse-r-not-above-p"),
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"levels": [8, 30]}),
                 "params.levels", id="weights-level-too-large"),
    pytest.param(lambda d: d.update(kind="bht", params={"levels": [6, 40]}),
                 "params.levels", id="bht-level-too-large"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"bad_exponent": 2.0}),
                 "params.bad_exponent",
                 id="weighted-bad-exponent-not-in-panel"),
    pytest.param(lambda d: d.update(kind="weighted", params={"panel": [0.0]}),
                 "params.bad_exponent",
                 id="weighted-panel-lacks-default-bad-exponent"),
    pytest.param(lambda d: d["corpus"].update(seed="abc"), "corpus.seed",
                 id="string-seed"),
    pytest.param(lambda d: d["corpus"].update(seed=-1), "corpus.seed",
                 id="negative-seed"),
    pytest.param(lambda d: d["corpus"].update(seed=1.7), "corpus.seed",
                 id="fractional-seed"),
    pytest.param(lambda d: d["corpus"].update(seed=True), "corpus.seed",
                 id="bool-seed"),
    pytest.param(lambda d: d.update(seed=5), "seed: unknown key",
                 id="top-level-seed-is-unknown-key"),
    pytest.param(lambda d: ["--seed", "-3"], "--seed",
                 id="negative-seed-option"),
    pytest.param(lambda d: d.update(corpus=[1, 2]), "corpus",
                 id="corpus-not-an-object"),
    pytest.param(lambda d: d.update(grid=4), "grid",
                 id="grid-not-an-object"),
    pytest.param(lambda d: d["grid"].update(d=True), "grid.d",
                 id="bool-grid-d"),
    pytest.param(lambda d: d["grid"].update(levels=True), "grid.levels",
                 id="bool-grid-levels"),
    pytest.param(lambda d: d["corpus"].update(size=True), "corpus.size",
                 id="bool-corpus-size"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"center": "middle"}),
                 "params.center", id="weighted-unknown-center"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"center": [1.0, 2.0]}),
                 "params.center", id="weighted-center-of-two-coordinates"),
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"centers": "center"}),
                 "params.centers", id="weights-centers-not-a-list"),
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"centers": ["center", [1, 2]]}),
                 "params.centers", id="weights-center-of-two-coordinates"),
    pytest.param(lambda d: d.update(kind="weights", params={
        "centers": ["center", [float("inf")]]}),
                 "params.centers", id="weights-infinite-center"),
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"centers": [[float("nan")]]}),
                 "params.centers", id="weights-nan-center"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"center": [float("inf")]}),
                 "params.center", id="weighted-infinite-center"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"center": [float("nan")]}),
                 "params.center", id="weighted-nan-center"),
    # a finite centre or exponent whose weight overflows or underflows
    pytest.param(lambda d: d.update(kind="weights",
                                    params={"centers": [[1e308]]}),
                 "params.panel", id="weights-overflowing-center"),
    pytest.param(lambda d: d.update(base_doc("weighted", center=[1e308])),
                 "params.panel", id="weighted-overflowing-center"),
    pytest.param(lambda d: d.update(kind="weights", params={"panel": [400]}),
                 "params.panel", id="weights-overflowing-exponent"),
    pytest.param(lambda d: d.update(kind="weights", params={"panel": [-400]}),
                 "params.panel", id="weights-underflowing-exponent"),
    pytest.param(lambda d: d.update(base_doc(
        "weighted", panel=[0, 400], bad_exponent=400)),
                 "params.panel", id="weighted-overflowing-exponent"),
    pytest.param(lambda d: d.update(base_doc(
        "weighted", panel=[0, -400], bad_exponent=-400)),
                 "params.panel", id="weighted-underflowing-exponent"),
    pytest.param(lambda d: d.update(base_doc(
        "weighted", levels=[4, 6], panel=[0, -150], bad_exponent=0),
        corpus={"kind": "sided-inverse", "size": 2, "seed": 1}),
                 "params.panel", id="weighted-overflowing-quotient"),
    # a finite weight whose characteristics leave float64
    pytest.param(lambda d: d.update(
        kind="weights", grid={"d": 1, "levels": 8, "periodic": False},
        corpus={"kind": "mixed", "size": 0, "seed": 1},
        params={"levels": [6, 8], "panel": [0, -100],
                "centers": ["center"]}),
                 "params.panel: exponent -100 with centre 'center' at K = 8",
                 id="weights-overflowing-characteristic"),
    # an l^r aggregate that leaves float64 in a maximal function
    pytest.param(lambda d: d.update(corpus=dict(d["corpus"], size=2, seed=1),
                                    params={"rs": [0.001, 0.001]}),
                 "params: the run leaves float64",
                 id="maximal-overflowing-aggregate"),
    pytest.param(lambda d: d.update(kind="bht", params={"levels": [1, 6]}),
                 "params.levels", id="bht-level-below-two"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"levels": [1, 6]}),
                 "params.levels", id="weighted-level-below-two"),
    pytest.param(lambda d: d.update(kind="weights", params={"levels": [6]}),
                 "params.levels", id="weights-single-level"),
    pytest.param(lambda d: d.update(kind="weighted", params={"levels": [6]}),
                 "params.levels", id="weighted-single-level"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"qs": [2.0, 2.0, 2.0]}),
                 "params.qs", id="weighted-three-qs"),
    pytest.param(lambda d: d.update(kind="weighted", params={"rs": [4.0]}),
                 "params.rs", id="weighted-one-r"),
    pytest.param(lambda d: d.update(kind="weighted",
                                    params={"qs": [1.0, 1.0]}),
                 "params.qs", id="weighted-corner-exponent-below-one"),
    pytest.param(lambda d: d.update(kind="weighted", params={
        "qs": [float("inf"), float("inf")]}),
                 "params.qs", id="weighted-infinite-corner-exponent"),
    pytest.param(lambda d: d.update(kind="bht", params={"ps": [2.0, 2.0]}),
                 "params.ps", id="bht-two-ps"),
    pytest.param(lambda d: d.update(kind="bht", params={"ps": [2.0] * 4}),
                 "params.ps", id="bht-four-ps"),
    pytest.param(lambda d: d.update(kind="theorem11",
                                    params={"rs": [1.0, 1.0, 1.0]}),
                 "params.rs", id="theorem11-r-not-above-p"),
    pytest.param(lambda d: d.update(kind="theorem11", corpus=dict(
        d["corpus"], kind="spikes")),
                 "corpus.kind", id="theorem11-unread-corpus-kind"),
    pytest.param(lambda d: d.update(base_doc("weighted", levels=[4, 5, 6]),
                                    corpus={"kind": "spikes", "size": 2,
                                            "seed": 3}),
                 "corpus.kind", id="weighted-unread-corpus-kind"),
    pytest.param(lambda d: d.update(kind="bht", grid={
        "d": 2, "levels": 4, "periodic": False}),
                 "grid.d", id="bht-2d-grid"),
    pytest.param(lambda d: d.update(kind="weighted", grid={
        "d": 2, "levels": 4, "periodic": False}),
                 "grid.d", id="weighted-2d-grid"),
    pytest.param(lambda d: d.update(kind="bht", grid={
        "d": 1, "levels": 4, "periodic": False}),
                 "grid.periodic", id="bht-clipped-grid"),
    pytest.param(lambda d: d.update(kind="weighted", grid={
        "d": 1, "levels": 4, "periodic": False}),
                 "grid.periodic", id="weighted-clipped-grid"),
] + [
    pytest.param(lambda d, kind=kind: d.update(
        kind=kind, corpus=dict(d["corpus"], size=0)),
                 "corpus.size", id=f"{kind}-empty-corpus")
    for kind in EXPERIMENT_KINDS if kind != "weights"
])
def test_cli_config_value_errors_exit_2(mutate, field, tmp_path, capsys):
    """mutate edits the config and may return extra command-line arguments."""
    path = tmp_path / "cfg.json"
    doc = base_doc()
    extra = mutate(doc) or []
    path.write_text(json.dumps(doc))
    assert main([doc["kind"], "--config", str(path),
                 "--out", str(tmp_path / "o")] + extra) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_weight_names_exponent_and_center(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc(
        "weights", levels=[4, 6], panel=[0.5, 400], centers=[[3.5]])))
    assert main(["weights", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "params.panel" in err and "exponent 400" in err and "[3.5]" in err


def test_infinite_rs_and_qs_stay_legal(tmp_path):
    """inf entries of rs and qs select the l^inf and L^inf branches."""
    ExperimentConfig.from_dict(base_doc(
        "weighted", qs=[2.0, float("inf")]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc(rs=[2.0, float("inf")])))
    assert "Infinity" in path.read_text()
    assert main(["maximal", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 0


def test_weighted_corner_exponents_stay_legal():
    """3q/2 = 1 exactly (qs 4/3, 4/3) and an L^inf slot keep a defined
    corner class, and a third rs entry is accepted."""
    for qs in ([4.0 / 3.0, 4.0 / 3.0], [2.0, float("inf")]):
        ExperimentConfig.from_dict(base_doc("weighted", qs=qs))
    ExperimentConfig.from_dict(base_doc("weighted", rs=[4.0, 4.0, 2.0]))


def test_weights_config_accepts_empty_corpus():
    """weights reads no corpus, so its configs may leave it empty."""
    doc = base_doc("weights", levels=[4, 6])
    doc["corpus"]["size"] = 0
    assert ExperimentConfig.from_dict(doc).corpus_size == 0


def test_config_leaves_centers_unchecked():
    """Valid weight centres pass validation and reach the runner as given."""
    doc = base_doc("weights", centers=["center", "edge"], panel=[0, 1.5])
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.params["centers"] == ["center", "edge"]


def test_maximal_propagates_unexpected_quotient_errors(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("not a vanishing factor norm")

    monkeypatch.setattr(maximal, "weak_type_quotient", broken)
    with pytest.raises(RuntimeError):
        run_experiment(small_config("maximal"), tmp_path)


@pytest.mark.parametrize("faulty_split,excess", [
    pytest.param([[0, 1], [2]], lambda mid, prod: prod * (1 + 1e-6),
                 id="second-split"),
    # within 1e-9 of the sup, so only a pointwise rule sees it
    pytest.param([[0], [1, 2]], lambda mid, prod: np.where(
        prod == prod.min(), prod + 1e-10 * prod.max(), mid),
                 id="far-below-sup"),
])
def test_holder_sandwich_fails_on_planted_excess(faulty_split, excess,
                                                 monkeypatch, tmp_path):
    """A partitioned maximal function above the Hoelder product on one
    split fails the sandwich, wherever the excess sits."""
    real = maximal.partitioned_maximal

    def planted(inputs, ps, rs, partition):
        out = real(inputs, ps, rs, partition)
        if partition == faulty_split:
            product = real(inputs, ps, rs, [[0], [1], [2]]).values[:, 0]
            out = GridFunction(out.spec, excess(out.values[:, 0], product))
        return out

    cfg = ExperimentConfig.from_dict(base_doc(
        ps=[1.0, 1.5, 2.0], rs=[4.0, 4.0, 2.0], components=3))
    assert run_experiment(cfg, tmp_path / "clean") == 0
    monkeypatch.setattr(maximal, "partitioned_maximal", planted)
    assert run_experiment(cfg, tmp_path / "planted") == 1
    report = json.loads((tmp_path / "planted" / "report.json").read_text())
    row = [r for r in report["rows"] if r["id"] == "holder-sandwich"][0]
    assert row["pass"] is False


def test_sparsity_row_fails_on_planted_minor_sets(monkeypatch, tmp_path):
    """A builder whose major sets hold at most half of their cubes fails
    sparsity-exact; the run still writes its report and exits 1."""

    class HalvedMajors(sparse.SparseCollection):
        def __post_init__(self):
            super().__post_init__()
            self.major_sets = [m[:len(m) // 2] for m in self.major_sets]

    cfg = small_config("build-sparse")
    monkeypatch.setattr(sparse, "SparseCollection", HalvedMajors)
    assert run_experiment(cfg, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    row = [r for r in report["rows"] if r["id"] == "sparsity-exact"][0]
    assert row["pass"] is False


def test_maximal_skips_vanishing_factor_norm(monkeypatch, tmp_path):
    def zero_corpus(kind, seed, size, spec, n_slots=1, n_components=1):
        zero = GridFunction(spec, np.zeros((spec.ncells, n_components)))
        return [(zero,) * n_slots]

    monkeypatch.setattr(harness, "generate_corpus", zero_corpus)
    assert run_experiment(small_config("maximal"), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    quotients = [r for r in report["rows"] if r["id"] == "weak-type-quotients"]
    assert quotients[0]["values"] == []
