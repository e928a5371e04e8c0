import csv
import json

import pytest

from submodsum.cli import main, parse_fn_spec
from submodsum.errors import ConfigError
from submodsum.functions import Family
from submodsum.learning import MixtureModel


# ---------------------------------------------------------------------------
# function spec parsing


def test_parse_fn_spec_plain_and_parameters():
    spec = parse_fn_spec("fl1:eta=0.5,nu=2")
    assert spec.family is Family.FACILITY_LOCATION_1
    assert spec.eta == 0.5 and spec.nu == 2.0
    assert parse_fn_spec("sc").family is Family.SET_COVER
    spec = parse_fn_spec("com:com_weights=0.3|0.7,psi=log1p")
    assert spec.com_weights == (0.3, 0.7) and spec.psi == "log1p"
    assert parse_fn_spec("gc:lam=0.25").lam == 0.25


def test_parse_fn_spec_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_fn_spec("sc:zap=1")
    with pytest.raises(ConfigError):
        parse_fn_spec("sc:eta")
    with pytest.raises(ConfigError):
        parse_fn_spec("not_a_family")
    with pytest.raises(ConfigError):
        parse_fn_spec("gc:lam=x")
    with pytest.raises(ConfigError):
        parse_fn_spec("com:com_weights=1|two")


# ---------------------------------------------------------------------------
# fixture collections on disk


def _collection_doc(with_privates=True, with_refs=True):
    items = []
    spots = [(-2.0, 2.0), (-2.2, 1.7), (-1.8, 2.3), (-2.1, 2.1),
             (2.0, -2.0), (2.2, -1.7), (1.8, -2.3), (2.1, -2.1)]
    for i, (x, y) in enumerate(spots):
        cid = "c0" if i < 4 else "c1"
        items.append({"id": f"g{i}", "features": [x, y],
                      "concepts": {cid: 1 + i % 3, "bg": 1}})
    doc = {
        "items": items,
        "queries": [{"id": "q0", "features": [-2.0, 2.0], "concepts": {"c0": 2}}],
    }
    if with_privates:
        doc["privates"] = [{"id": "p0", "features": [2.0, -2.0], "concepts": {"c1": 1}}]
    if with_refs:
        doc["references"] = [["g0", "g1", "g4"], ["g0", "g2", "g4"]]
    return doc


@pytest.fixture()
def coll_path(tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(_collection_doc()))
    return path


# ---------------------------------------------------------------------------
# summarize


def test_summarize_writes_selection_and_manifest(coll_path, tmp_path):
    out = tmp_path / "run1"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "query",
               "--budget", "3", "--fn", "fl1:eta=0.8", "--metric", "rbf",
               "--sigma", "2.0", "--out", str(out)])
    assert rc == 0
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["items"]) == 3 and sel["flavor"] == "query"
    assert all(i.startswith("g") for i in sel["items"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "summarize"
    assert manifest["version"]
    assert "time" not in json.dumps(manifest).lower()

    out2 = tmp_path / "run2"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "query",
               "--budget", "3", "--fn", "fl1:eta=0.8", "--metric", "rbf",
               "--sigma", "2.0", "--out", str(out2)])
    assert rc == 0
    assert (out / "selection.json").read_bytes() == (out2 / "selection.json").read_bytes()
    assert (out / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_summarize_concept_query(coll_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "query",
               "--budget", "2", "--fn", "sc", "--query", "c1", "--out", str(out)])
    assert rc == 0
    sel = json.loads((out / "selection.json").read_text())
    # the c1 concept lives in the second cluster; coverage saturates after one pick
    assert int(sel["items"][0][1]) >= 4
    assert sel["gains"][0] > 0.0

    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "query",
               "--budget", "2", "--fn", "sc", "--query", "nonsense", "--out", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


_MISSING_ROLE = {
    "query": "--query or collection queries",
    "privacy": "--private or collection privates",
    "irrelevance": "--private or collection privates",
    "update": "--prev with previous summary items",
    "query_update": "--query or collection queries",
    "query_privacy": "--query or collection queries",
}


@pytest.mark.parametrize("flavor", list(_MISSING_ROLE))
def test_summarize_missing_role_material(tmp_path, capsys, flavor):
    bare = tmp_path / "bare.json"
    doc = _collection_doc(with_privates=False)
    del doc["queries"]
    bare.write_text(json.dumps(doc))
    base = ["--collection", str(bare), "--budget", "2", "--fn", "fl1", "--out", str(tmp_path / "o")]
    assert main(["summarize", "--flavor", flavor] + base) == 2
    assert capsys.readouterr().err == f"error: flavor {flavor} needs {_MISSING_ROLE[flavor]}\n"


def test_summarize_update_excludes_previous(coll_path, tmp_path):
    out = tmp_path / "run"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "update",
               "--budget", "2", "--fn", "fl1", "--prev", "g0,g4", "--out", str(out)])
    assert rc == 0
    sel = json.loads((out / "selection.json").read_text())
    assert not {"g0", "g4"} & set(sel["items"])


def test_summarize_rejects_bad_config(coll_path, tmp_path, capsys):
    out = str(tmp_path / "o")
    args = ["summarize", "--collection", str(coll_path), "--budget", "2", "--out", out]
    assert main(args + ["--flavor", "sideways", "--fn", "sc"]) == 2
    assert main(args + ["--flavor", "generic", "--fn", "sc:bogus=1"]) == 2
    # graph cut defines no joint conditioned measure
    assert main(args + ["--flavor", "query_privacy", "--fn", "gc"]) == 2
    capsys.readouterr()


BAD_WEIGHTS = {"text_weight": ["w", 1, 1], "weights_object": {"x": 1},
               "nan_weight": [float("nan"), 1, 1], "infinite_weight": [float("inf"), 1, 1]}


@pytest.mark.parametrize("case", ["missing_file", "malformed_json", "universe_without_concepts",
                                  "concept_outside_universe", "fractional_count", "nan_feature",
                                  "infinite_lam", "nan_jitter", "zero_sigma", "infinite_sigma",
                                  *BAD_WEIGHTS])
def test_summarize_rejects_bad_input(case, tmp_path, capsys):
    path = tmp_path / "coll.json"
    doc = _collection_doc()
    fn = "gc"
    if case in BAD_WEIGHTS:
        # set cover reads the weights, so a NaN one would reach its gains
        doc["concept_universe"] = {"concepts": ["c0", "c1", "bg"], "weights": BAD_WEIGHTS[case]}
        fn = "sc"
    kernel = {"nan_jitter": ["--jitter", "nan"], "zero_sigma": ["--metric", "rbf", "--sigma", "0"],
              "infinite_sigma": ["--metric", "rbf", "--sigma", "inf"]}.get(case, [])
    if case == "malformed_json":
        path.write_text('{"items": [')
    elif case == "universe_without_concepts":
        doc["concept_universe"] = {"weights": [1.0]}
    elif case == "concept_outside_universe":
        doc["concept_universe"] = {"concepts": ["c0", "c1"]}  # items also carry "bg"
    elif case == "fractional_count":
        doc["items"][0]["concepts"]["c0"] = 1.7
    elif case == "nan_feature":
        doc["items"][0]["features"][0] = float("nan")
    elif case == "infinite_lam":
        fn = "gc:lam=inf"
    if case not in ("missing_file", "malformed_json"):
        path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["summarize", "--collection", str(path), "--flavor", "generic",
               "--budget", "2", "--fn", fn, "--out", str(out)] + kernel)
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "selection.json").exists()


def test_summarize_empty_ground_set_with_feature_queries(tmp_path, capsys):
    # an empty role adds no feature rows; stacking its (0, 0) matrix on the
    # queries' (1, 1) rows used to end in a numpy traceback, and so did com's
    # check of its empty cross block
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [], "queries": [{"id": "q", "features": [1.0]}]}))
    for fn in ("fl1", "fl2", "com"):
        base = ["summarize", "--collection", str(path), "--flavor", "query", "--fn", fn]
        assert main(base + ["--budget", "0", "--out", str(tmp_path / fn / "o0")]) == 0
        sel = json.loads((tmp_path / fn / "o0" / "selection.json").read_text())
        assert sel["indices"] == [] and sel["value"] == 0.0
        assert main(base + ["--budget", "1", "--out", str(tmp_path / fn / "o1")]) == 2
        assert capsys.readouterr().err == "error: budget 1 exceeds 0 available candidates\n"
        assert not (tmp_path / fn / "o1" / "selection.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_summarize_com_rejects_negative_similarities(tmp_path, capsys):
    # the dot kernel keeps negative cross similarities; sqrt of their sums
    # used to warn and end in exit 3 "non-finite marginal gain nan"
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({
        "items": [{"id": f"g{i}", "features": [x]} for i, x in enumerate((0.0, -1.0, 1.0))],
        "queries": [{"id": "q0", "features": [-1.0]}],
    }))
    out = tmp_path / "o"
    rc = main(["summarize", "--collection", str(path), "--flavor", "query", "--budget", "2",
               "--fn", "com", "--metric", "dot", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nonnegative similarities" in err and "dot" in err
    assert not (out / "selection.json").exists()


def test_summarize_fl2_rejects_similarities_outside_unit_interval(tmp_path, capsys):
    # with a cross similarity of -1 the pairwise form gave I({a}; Q) = -2.0
    # where the definition gives -3.0
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({
        "items": [{"id": "a", "features": [-1.0, -1.0]}, {"id": "b", "features": [-1.0, -1.0]}],
        "queries": [{"id": "q0", "features": [0.0, 1.0]}],
    }))
    out = tmp_path / "o"
    rc = main(["summarize", "--collection", str(path), "--flavor", "query", "--budget", "1",
               "--fn", "fl2", "--metric", "dot", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "in [0, 1]" in err and "dot" in err
    assert not (out / "selection.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_summarize_non_finite_gains_exit_3(coll_path, tmp_path, capsys):
    # a finite but huge lam overflows the cut gains to infinity
    out = tmp_path / "o"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "generic",
               "--budget", "2", "--fn", "gc:lam=1e308", "--out", str(out)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "selection.json").exists()


# ---------------------------------------------------------------------------
# learn


def test_learn_trains_and_saves(tmp_path):
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    for s in range(2):
        (train_dir / f"ex{s}.json").write_text(json.dumps(_collection_doc()))
    out = tmp_path / "model"
    rc = main(["learn", "--train-dir", str(train_dir), "--budget", "3",
               "--components", "sc,fl1", "--epochs", "2", "--metric", "rbf",
               "--sigma", "2.0", "--out", str(out)])
    assert rc == 0
    model = MixtureModel.load(out / "model.json")
    assert len(model.components) == 2
    assert min(model.weights) >= 0.0
    with (out / "training_log.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "mean_hinge", "mean_vrouge"]
    assert len(rows) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["components"] == ["sc", "fl1"]


def test_learn_needs_references(tmp_path, capsys):
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    (train_dir / "ex.json").write_text(json.dumps(_collection_doc(with_refs=False)))
    rc = main(["learn", "--train-dir", str(train_dir), "--budget", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = main(["learn", "--train-dir", str(tmp_path / "empty"), "--budget", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eval


def test_eval_scores_against_references(coll_path, tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"items": ["g0", "g1", "g4"]}))
    out = tmp_path / "rep"
    rc = main(["eval", "--collection", str(coll_path), "--summary", str(summary),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["per_reference"][0] == pytest.approx(1.0)
    assert 0.0 <= report["vrouge"] <= 1.0
    assert report["summary"] == ["g0", "g1", "g4"]

    # a bare id list works too, and --references overrides the collection
    summary.write_text(json.dumps(["g0", "g1"]))
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps([["g0", "g1"]]))
    rc = main(["eval", "--collection", str(coll_path), "--summary", str(summary),
               "--references", str(refs), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["vrouge"] == pytest.approx(1.0)


@pytest.mark.parametrize("doc", [5, [5], [["g0"], 7], {"g0": 1}, "ab"],
                         ids=["number", "list_of_number", "mixed", "object", "string"])
def test_eval_rejects_references_that_are_not_id_lists(doc, coll_path, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0"]))
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["eval", "--collection", str(coll_path), "--summary", str(summary),
               "--references", str(refs), "--out", str(out)])
    assert rc == 2
    assert "must be a list of id lists" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc", [{"items": 5}, {"items": {"g0": 1}}, {"items": "g0"},
                                 {"items": [["g0"]]}, ["g0", None]],
                         ids=["number", "object", "string", "nested_list", "null_id"])
def test_eval_rejects_summaries_that_are_not_id_lists(doc, coll_path, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["eval", "--collection", str(coll_path), "--summary", str(summary),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a list of ids" in err
    assert not (out / "report.json").exists()


def test_eval_requires_references(tmp_path, capsys):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(_collection_doc(with_refs=False)))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0"]))
    rc = main(["eval", "--collection", str(path), "--summary", str(summary),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# synth


def test_synth_privacy_sweep_reaches_zero_violations(tmp_path):
    out = tmp_path / "s1"
    rc = main(["synth", "--study", "privacy", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["nu"] for r in report["runs"]] == [0.0, 1.0, 5.0, 10.0]
    violations = [r["behavior"]["privacy_violations"] for r in report["runs"]]
    assert violations == [3, 2, 0, 0]
    for tag in ("nu_0", "nu_1", "nu_5", "nu_10"):
        assert (out / f"plot_{tag}.csv").exists()

    out2 = tmp_path / "s2"
    assert main(["synth", "--study", "privacy", "--out", str(out2)]) == 0
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out / "plot_nu_0.csv").read_bytes() == (out2 / "plot_nu_0.csv").read_bytes()


def test_synth_query_study_saturates_then_fills(tmp_path):
    out = tmp_path / "s"
    rc = main(["synth", "--study", "query", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    run = report["runs"][0]
    assert run["behavior"]["query_match_count"] == [9, 0]
    assert run["behavior"]["saturation_step"] == 3
    assert (out / "plot.csv").exists()


def test_synth_rejects_bad_sweep(tmp_path, capsys):
    rc = main(["synth", "--study", "generic", "--sweep", "zap=1,2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check


def test_check_requires_suite_selection(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


def test_check_oracle_passes(capsys):
    assert main(["check", "--oracle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("ok") for line in lines)
