import argparse
import csv
import json

import numpy as np
import pytest

from submodsum import cli, learning
from submodsum.cli import build_parser, main, parse_fn_spec
from submodsum.errors import ConfigError
from submodsum.functions import Family, FunctionSpec
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
    for text in ("gc:family=sc", "com:com_weights=1|2|3", "com:com_weights=0.5", "sc:eta=1,"):
        with pytest.raises(ConfigError):
            parse_fn_spec(text)


def test_parse_fn_spec_reads_model_json_spec_objects():
    """--fn spells the spec object model.json holds, and reads it by the same rule."""
    for text, obj in [("fl1:eta=0.5,nu=2", {"family": "fl1", "eta": "0.5", "nu": "2"}),
                      ("com:com_weights=0.3|0.7,psi= log1p", {"family": "com", "com_weights": ["0.3", "0.7"],
                                                             "psi": "log1p"}),
                      (" gc : lam=0.25 ", {"family": "gc", "lam": "0.25"})]:
        assert parse_fn_spec(text) == FunctionSpec.from_json(obj)


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


@pytest.mark.parametrize("where", ["coverage", "universe"])
def test_summarize_concept_query_reads_the_context_universe(tmp_path, capsys, where):
    """A concept that no ground item counts, but that an item covers or the
    declared concept_universe names, is a concept of the context: --query
    accepts it.  A name outside the universe still exits 2, with the same
    message."""
    doc = _collection_doc()
    if where == "coverage":
        doc["items"][5]["coverage"] = {"c1": 0.9, "bg": 1.0, "rare": 0.6}
    else:
        doc["concept_universe"] = {"concepts": ["c0", "c1", "bg", "rare"]}
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    base = ["summarize", "--collection", str(path), "--flavor", "query", "--budget", "2", "--fn", "psc"]
    out = tmp_path / "run"
    assert main(base + ["--query", "rare", "--out", str(out)]) == 0
    assert json.loads((out / "selection.json").read_text())["budget"] == 2
    bad = tmp_path / "bad"
    assert main(base + ["--query", "rare,nonsense", "--out", str(bad)]) == 2
    assert capsys.readouterr().err == \
        "error: --query tokens ['nonsense'] match neither query item ids nor concepts\n"
    assert not bad.exists()


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


@pytest.mark.parametrize("fn", ["com:com_weights=1|2|3", "com:com_weights=1", "fl1:nu=a",
                                "gc:family=sc"])
def test_summarize_bad_fn_spec_exits_2_with_one_line(fn, coll_path, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["summarize", "--collection", str(coll_path), "--flavor", "query", "--budget", "2",
                 "--fn", fn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


BAD_WEIGHTS = {"text_weight": ["w", 1, 1], "weights_object": {"x": 1},
               "nan_weight": [float("nan"), 1, 1], "infinite_weight": [float("inf"), 1, 1],
               "weights_length": [1.0, 1.0]}


@pytest.mark.parametrize("case", ["missing_file", "malformed_json", "universe_without_concepts",
                                  "concept_outside_universe", "fractional_count", "nan_feature",
                                  "infinite_lam", "nan_jitter", "zero_sigma", "infinite_sigma",
                                  "subnormal_sigma", "duplicate_universe_concepts", "query_id_of_a_ground_item",
                                  "query_feature_length", *BAD_WEIGHTS])
def test_summarize_rejects_bad_input(case, tmp_path, capsys):
    path = tmp_path / "coll.json"
    doc = _collection_doc()
    fn = "gc"
    if case in BAD_WEIGHTS:
        # set cover reads the weights, so a NaN one would reach its gains
        doc["concept_universe"] = {"concepts": ["c0", "c1", "bg"], "weights": BAD_WEIGHTS[case]}
        fn = "sc"
    kernel = {"nan_jitter": ["--jitter", "nan"], "zero_sigma": ["--metric", "rbf", "--sigma", "0"],
              "infinite_sigma": ["--metric", "rbf", "--sigma", "inf"],
              # 2 sigma^2 underflows, so the kernel held NaN where d^2 = 0
              # and dsum summarized it with exit 0
              "subnormal_sigma": ["--metric", "rbf", "--sigma", "1e-320"]}.get(case, [])
    if case == "subnormal_sigma":
        fn = "dsum"
    if case == "malformed_json":
        path.write_text('{"items": [')
    elif case == "universe_without_concepts":
        doc["concept_universe"] = {"weights": [1.0]}
    elif case == "concept_outside_universe":
        doc["concept_universe"] = {"concepts": ["c0", "c1"]}  # items also carry "bg"
    elif case == "duplicate_universe_concepts":
        doc["concept_universe"] = {"concepts": ["c0", "c1", "bg", "c0"]}
    elif case == "query_id_of_a_ground_item":
        doc["queries"][0]["id"] = "g0"
    elif case == "query_feature_length":
        doc["queries"][0]["features"] = [1.0, 2.0, 3.0]
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "eval"])
def test_no_components_and_a_summary_without_items_exit_2_with_one_line(command, tmp_path, capsys):
    """learn with an empty component list, and eval given a summary object
    without 'items': exit 2, one line on stderr, no --out."""
    path = tmp_path / "train" / "coll.json"
    path.parent.mkdir()
    path.write_text(json.dumps(_collection_doc()))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"ids": ["g0"]}))
    argv = {"learn": ["learn", "--train-dir", str(path.parent), "--budget", "3", "--components", ","],
            "eval": ["eval", "--collection", str(path), "--summary", str(summary)]}[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


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


def test_summarize_non_finite_gains_exit_3(coll_path, tmp_path, capsys):
    # a finite but huge lam overflows the cut gains to infinity; numpy's
    # overflow warning raises under main and is answered as one line
    out = tmp_path / "o"
    rc = main(["summarize", "--collection", str(coll_path), "--flavor", "generic",
               "--budget", "2", "--fn", "gc:lam=1e308", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and err.count("\n") == 1
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


_LEARN_MISSING = {
    "update": ("full", "needs a previous summary, which learn does not take"),
    "query_update": ("full", "needs a previous summary, which learn does not take"),
    "query": ("no_queries", "needs query items, but collection ex1.json has none"),
    "query_privacy": ("no_privates", "needs private items, but collection ex1.json has none"),
    "privacy": ("no_privates", "needs private items, but collection ex1.json has none"),
    "irrelevance": ("no_privates", "needs private items, but collection ex1.json has none"),
}


@pytest.mark.parametrize("task", list(_LEARN_MISSING))
def test_learn_rejects_a_task_it_cannot_condition(tmp_path, capsys, task):
    """A task whose query or conditioning set learn cannot supply would
    train another objective: learn exits 2 with one line naming the
    collection that lacks it, and writes nothing."""
    case, reason = _LEARN_MISSING[task]
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    (train_dir / "ex0.json").write_text(json.dumps(_collection_doc()))
    lacking = _collection_doc(with_privates=case != "no_privates")
    if case == "no_queries":
        del lacking["queries"]
    (train_dir / "ex1.json").write_text(json.dumps(lacking))
    out = tmp_path / "model"
    rc = main(["learn", "--train-dir", str(train_dir), "--budget", "3", "--components", "sc",
               "--epochs", "1", "--task", task, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: task {task} {reason}\n"
    assert not out.exists()


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


_UNKNOWN_ID = "error: item 'nope' is not in the ground set\n"


@pytest.mark.parametrize("argv, err", [
    (["summarize", "--flavor", "update", "--fn", "fl1", "--budget", "2", "--prev", "g0,nope"], _UNKNOWN_ID),
    (["summarize", "--flavor", "privacy", "--fn", "fl1", "--budget", "2", "--private", "nope"],
     "error: no private item with id 'nope' in the collection\n"),
    (["eval", "--summary"], _UNKNOWN_ID),
], ids=["prev", "private", "eval_summary"])
def test_unknown_item_id_exits_2_with_one_line(argv, err, coll_path, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0", "nope"]))
    if argv[-1] == "--summary":
        argv = [*argv, str(summary)]
    out = tmp_path / "o"
    assert main([*argv, "--collection", str(coll_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


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


@pytest.mark.parametrize("option", ["--fn=--", "--budget=--", "--sweep=--"])
def test_option_value_of_double_dash_exits_2(option, tmp_path, capsys):
    """argparse reads an option value of '--' as an empty list."""
    assert main(["synth", "--study", "generic", option, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: an option got '--' for its value\n"


@pytest.mark.parametrize("argv, err", [
    (["synth", "--study", "generic", "--budget=nan"], "error: argument --budget: invalid int value: 'nan'\n"),
    (["synth", "--study", "generic", "--sigma=x"], "error: unrecognized arguments: --sigma=x\n"),
    (["synth"], "error: the following arguments are required: --study\n"),
    ([], "error: the following arguments are required: command\n"),
], ids=["unconvertible-value", "unknown-option", "missing-option", "missing-command"])
def test_argparse_errors_exit_2_with_one_line(argv, err, tmp_path, capsys):
    """argparse printed its usage block over its error line and raised
    SystemExit(2) out of main."""
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)] if argv else argv) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["synth", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def _assert_synth_sweep_rejected(sweep, out, capsys):
    rc = main(["synth", "--study", "generic", "--sweep", sweep, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--study", "generic", "--seed", "-1"],
    ["synth", "--study", "generic", "--delta", "nan"],
    ["synth", "--study", "generic", "--delta", "inf"],
    ["synth", "--study", "generic", "--delta", "0"],
    ["learn", "--budget", "3", "--seed", "-1"],
    ["check", "--oracle", "--seed", "-1"],
], ids=["synth-seed", "synth-delta-nan", "synth-delta-inf", "synth-delta-zero", "learn-seed", "check-seed"])
def test_bad_seed_or_delta_exits_2_before_any_output(argv, tmp_path, capsys):
    """A negative seed ended in numpy's ValueError traceback, and a NaN
    delta wrote report.json and plot.csv before its exit 3."""
    train = tmp_path / "train"
    train.mkdir()
    (train / "ex.json").write_text(json.dumps(_collection_doc()))
    out = tmp_path / "o"
    rest = {"synth": ["--out", str(out)], "learn": ["--train-dir", str(train), "--out", str(out)], "check": []}
    assert main(argv + rest[argv[0]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--seed" if "--seed" in argv else "delta") in err
    assert not out.exists()


@pytest.mark.parametrize("argv, rc", [
    (["--sweep", "lam=0.5,1e308"], 3),
    (["--budget", "1000"], 2),
    (["--budget=-1"], 2),
], ids=["sweep-overflow", "over-budget", "negative-budget"])
def test_failed_synth_leaves_no_out(argv, rc, tmp_path, capsys):
    """synth made --out before it solved: a sweep whose later value fails
    left the earlier plots, and a budget error an empty directory."""
    out = tmp_path / "o"
    assert main(["synth", "--study", "generic", *argv, "--out", str(out)]) == rc
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_out_naming_a_file_exits_2(coll_path, tmp_path, capsys):
    """An --out that names a file ended in a FileExistsError traceback."""
    train = tmp_path / "train"
    train.mkdir()
    (train / "ex.json").write_text(json.dumps(_collection_doc()))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0", "g4"]))
    out = tmp_path / "taken"
    out.write_text("keep")
    for argv in (["summarize", "--collection", str(coll_path), "--flavor", "query", "--budget", "2", "--fn", "fl1"],
                 ["learn", "--train-dir", str(train), "--budget", "3", "--epochs", "1"],
                 ["eval", "--collection", str(coll_path), "--summary", str(summary)],
                 ["synth", "--study", "query"]):
        assert main([*argv, "--out", str(out)]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to --out {out}") and err.count("\n") == 1, argv[0]
        assert out.read_text() == "keep"


@pytest.mark.parametrize("command", ["eval", "learn"])
def test_zero_mass_reference_prints_one_line(command, tmp_path, capsys):
    """vrouge's UserWarning about a reference of zero weighted concept mass
    reached stderr with its source line: before eval's error, and on a learn
    run (zero_one margin) that went on to exit 0.  Through the CLI it is an
    error that names the reference, and nothing is skipped."""
    doc = _collection_doc()
    doc["concept_universe"] = {"concepts": ["c0", "c1", "bg"], "weights": [1.0, 0.0, 0.0]}
    doc["references"].append(["g4", "g5"])  # only c1 and bg: zero weighted mass
    path = tmp_path / "train" / "coll.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0", "g4"]))
    out = tmp_path / "o"
    argv = {"eval": ["eval", "--collection", str(path), "--summary", str(summary)],
            "learn": ["learn", "--train-dir", str(path.parent), "--budget", "3", "--epochs", "1",
                      "--margin", "zero_one"]}[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: reference ['g4', 'g5'] has zero weighted concept mass\n"
    assert not out.exists()


def test_synth_rejects_bad_sweep(tmp_path, capsys):
    _assert_synth_sweep_rejected("zap=1,2", tmp_path / "o", capsys)


@pytest.mark.parametrize("sweep", ["nu=a", "lam=1,x", "eta=-1", "nu=nan", "nu=,", "nu=1,1.0000001"])
def test_synth_rejects_bad_sweep_value(sweep, tmp_path, capsys):
    """A sweep value is read by the spec's rule: each bad one exits 2 before
    any output.  Two values that print alike under :g would write one plot
    file and two runs."""
    _assert_synth_sweep_rejected(sweep, tmp_path / "o", capsys)


# ---------------------------------------------------------------------------
# manifest


def _option_dests(command: str) -> set:
    """The dests of a subcommand's options as its parser declares them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_manifest_echoes_every_option_but_out_with_resolved_values(coll_path, tmp_path):
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    (train_dir / "ex.json").write_text(json.dumps(_collection_doc()))
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(["g0", "g4"]))
    runs = {
        "summarize": (["--collection", str(coll_path), "--flavor", "Query-Privacy", "--budget", "2",
                       "--fn", "fl1:nu=2"],
                      {"flavor": "query_privacy", "fn": "fl1:nu=2", "budget": 2, "query": None,
                       "stop_on_nonpositive": False, "metric": "cosine"}),
        "learn": (["--train-dir", str(train_dir), "--budget", "3", "--task", "Query",
                   "--components", "sc,gc", "--epochs", "1"],
                  {"task": "query", "components": ["sc", "gc"], "epochs": 1, "lr": 0.05}),
        "eval": (["--collection", str(coll_path), "--summary", str(summary)],
                 {"summary": str(summary), "references": None, "jitter": 1e-6}),
        "synth": (["--study", "privacy", "--budget", "3"],
                  {"fn": "gc:lam=0.5", "sweep": "nu=0,1,5,10", "study": "privacy", "seed": 7}),
    }
    for command, (argv, want) in runs.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["config"]) == _option_dests(command) - {"out"}, command
        assert manifest["config"].items() >= want.items(), command


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


def test_check_oracle_reports_each_failing_form_once(monkeypatch, capsys):
    """An oracle that disagrees on one family fails each of its checked forms
    at the first trial, and a finite-difference gap of 1 fails every
    collection: both suites print FAIL, and the command exits 1."""
    oracle = cli.definitional_oracle
    com = Family.CONCAVE_OVER_MODULAR

    def skewed(spec, mode, ctx, *sets):
        return oracle(spec, mode, ctx, *sets) + (1.0 if spec.family is com else 0.0)

    monkeypatch.setattr(cli, "definitional_oracle", skewed)
    monkeypatch.setattr(cli, "finite_diff_check", lambda model, ex: 1.0)
    assert main(["check", "--oracle"]) == 1
    lines = capsys.readouterr().out.splitlines()
    forms = [f"{com.value} {mode}" for mode in ("smi", "cg", "csmi")]
    assert [line.split(":")[0] for line in lines] == [
        "FAIL closed-forms-vs-definitional", *(f"  {form}" for form in forms),
        "FAIL gradients-vs-finite-difference", *(f"  collection {t}" for t in range(3))]
    assert all(line.endswith("at trial 0") for line in lines[1:4])
    assert all(line.endswith("finite-difference gap 1.00e+00") for line in lines[5:])


@pytest.mark.parametrize("seed", range(12))
def test_gradient_check_passes_at_every_seed(seed):
    """init_mixture starts log-det's eta and nu at their bound 1, where D
    loses definiteness just past it: the differences stay inside the box."""
    assert cli._check_gradients(seed) == []


def test_nan_gradient_fails_the_gradient_check(monkeypatch):
    monkeypatch.setattr(learning, "gradients", lambda model, *args: np.full(len(learning.theta_slots(model)), np.nan))
    assert cli._check_gradients(11) == [f"collection {t}: finite-difference gap nan" for t in range(3)]
