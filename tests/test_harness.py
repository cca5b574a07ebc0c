"""Corpora, configuration validation, experiment runs and the CLI."""

import filecmp
import json

import numpy as np
import pytest

from sparsedom import (
    ExperimentConfig,
    GridFunction,
    GridSpec,
    generate_corpus,
    harness,
    maximal,
    run_experiment,
)
from sparsedom.cli import build_parser, main
from sparsedom.errors import ConfigError
from sparsedom.harness import EXPERIMENT_KINDS
from sparsedom.weights import make_power_weight


def base_doc(kind="maximal", **params):
    return {
        "kind": kind,
        "grid": {"d": 1, "levels": 4, "periodic": True},
        "corpus": {"kind": "mixed", "size": 4, "seed": 5},
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
])
def test_config_validation_names_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(doc)
    assert err.value.field == field


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


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
    (lambda d: d["params"].update(qs=[]), "params.qs"),
    (lambda d: d["params"].update(panel=[0.0, None]), "params.panel"),
    (lambda d: d["params"].update(levels=[4, 0]), "params.levels"),
    (lambda d: d["params"].update(levels=[4.0, 6.0]), "params.levels"),
    (lambda d: d["params"].update(family_sizes=[1, True]),
     "params.family_sizes"),
    (lambda d: d["params"].update(eps="0.5"), "params.eps"),
    (lambda d: d["params"].update(child_budget=[0.25]), "params.child_budget"),
    (lambda d: d["params"].update(bad_exponent=None), "params.bad_exponent"),
    (lambda d: d["params"].update(components=2.5), "params.components"),
    pytest.param(lambda d: d["params"].update(ps=[0, 1.0]), "params.ps",
                 id="nonpositive-ps"),
    pytest.param(lambda d: d["params"].update(eps=-1), "params.eps",
                 id="nonpositive-eps"),
    pytest.param(lambda d: d["params"].update(child_budget=0.75),
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
] + [
    pytest.param(lambda d, kind=kind: (d.update(kind=kind),
                                       d["corpus"].update(size=0)),
                 "corpus.size", id=f"{kind}-empty-corpus")
    for kind in EXPERIMENT_KINDS if kind != "weights"
])
def test_cli_config_value_errors_exit_2(mutate, field, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    doc = base_doc()
    mutate(doc)
    path.write_text(json.dumps(doc))
    assert main([doc["kind"], "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_weights_config_accepts_empty_corpus():
    """weights reads no corpus, so its configs may leave it empty."""
    doc = base_doc("weights", levels=[4, 6])
    doc["corpus"]["size"] = 0
    assert ExperimentConfig.from_dict(doc).corpus_size == 0


def test_config_leaves_centers_unchecked():
    doc = base_doc("weights", centers=["center", "edge"], panel=[0, 1.5])
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.params["centers"] == ["center", "edge"]


def test_maximal_propagates_unexpected_quotient_errors(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("not a vanishing factor norm")

    monkeypatch.setattr(maximal, "weak_type_quotient", broken)
    with pytest.raises(RuntimeError):
        run_experiment(small_config("maximal"), tmp_path)


def test_maximal_skips_vanishing_factor_norm(monkeypatch, tmp_path):
    def zero_corpus(kind, seed, size, spec, n_slots=1, n_components=1):
        zero = GridFunction(spec, np.zeros((spec.ncells, n_components)))
        return [(zero,) * n_slots]

    monkeypatch.setattr(harness, "generate_corpus", zero_corpus)
    assert run_experiment(small_config("maximal"), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    quotients = [r for r in report["rows"] if r["id"] == "weak-type-quotients"]
    assert quotients[0]["values"] == []
