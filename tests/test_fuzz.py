"""Property tests: generated collections and arguments through `submodsum
summarize`, `learn` and `eval`.

Whatever the input, a run ends with exit code 0, 2 (config/format error) or
3 (numeric error), never with an uncaught exception, and every JSON file it
leaves behind is strict JSON (no NaN or Infinity tokens).  NaN-producing
arithmetic is an error here rather than a warning, so it cannot hide behind
a later exit 3.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from submodsum.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FAMILIES = ("sc", "psc", "gc", "fl1", "fl2", "logdet", "com", "rouge", "dsum", "dmin", "nope")
FLAVORS = ("generic", "query", "privacy", "irrelevance", "update", "query_update",
           "query_privacy", "sideways")
# valid parameter values first, then ones the parser or FunctionSpec must
# reject (or, for 1e308, that overflow a gain)
NUMBERS = ("0", "0.25", "0.5", "0.9", "1", "2", "-1", "1e308", "nan", "inf", "x")
KEYS = ("lam", "eta", "nu") * 2 + ("psi", "bogus")  # numeric keys drawn twice as often

# at most one defect per collection, so most runs get through loading
DEFECTS = (None,) * 6 + ("nan_feature", "inf_feature", "fractional_count", "negative_count",
                         "text_count", "bare_item")


@st.composite
def collections(draw, defects=DEFECTS):
    dim = draw(st.integers(1, 3))
    with_features = draw(st.booleans())

    def item(name):
        counts = st.dictionaries(st.sampled_from("abcd"), st.integers(1, 3), min_size=1, max_size=3)
        rec = {"id": name, "concepts": draw(counts)}
        if with_features:
            rec["features"] = draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim))
        return rec

    n = draw(st.integers(2, 8))
    doc = {"items": [item(f"g{i}") for i in range(n)],
           "queries": [item(f"q{i}") for i in range(draw(st.integers(0, 2)))],
           "privates": [item(f"p{i}") for i in range(draw(st.integers(0, 2)))]}
    defect = draw(st.sampled_from(defects))
    victim = doc["items"][draw(st.integers(0, n - 1))]
    if defect in ("nan_feature", "inf_feature"):
        victim["features"] = [float("nan") if defect == "nan_feature" else float("inf")] * dim
    elif defect is not None:
        victim["concepts"] = {"fractional_count": {"a": 1.5}, "negative_count": {"a": -1},
                              "text_count": {"a": "two"}, "bare_item": {}}[defect]
        if defect == "bare_item":
            victim.pop("features", None)
    return doc, n


@st.composite
def fn_specs(draw):
    text = draw(st.sampled_from(FAMILIES))
    params = draw(st.lists(st.tuples(st.sampled_from(KEYS),
                                     st.sampled_from(NUMBERS + ("log1p", "identity"))),
                           max_size=2))
    if params:
        text += ":" + ",".join(f"{k}={v}" for k, v in params)
    return text


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(coll=collections(), fn=fn_specs(), flavor=st.sampled_from(FLAVORS),
       budget=st.integers(0, 6), metric=st.sampled_from(("cosine", "dot", "rbf")),
       prev=st.booleans(), stop=st.booleans())
def test_summarize_exits_cleanly_on_generated_input(coll, fn, flavor, budget, metric, prev, stop):
    doc, n = coll
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.json"
        path.write_text(json.dumps(doc))  # may hold NaN/Infinity tokens on purpose
        out = Path(tmp) / "out"
        argv = ["summarize", "--collection", str(path), "--flavor", flavor,
                "--budget", str(budget), "--fn", fn, "--metric", metric, "--out", str(out)]
        if prev:
            argv += ["--prev", "g0"]
        if stop:
            argv.append("--stop-on-nonpositive")
        rc = _run(argv, out)
        sel_path = out / "selection.json"
        assert (rc == 0) == sel_path.exists()
        if sel_path.exists():
            sel = _strict(sel_path)
            assert len(sel["indices"]) <= budget
            assert all(0 <= i < n for i in sel["indices"])


def _item_ids(draw, n, size):
    """Ground ids, now and then one that is not in the collection."""
    ids = st.sampled_from([f"g{i}" for i in range(n)] * 4 + ["g99"])
    return draw(st.lists(ids, min_size=size[0], max_size=size[1]))


# learn needs every setting valid to get past its checks, so each draw
# favours valid values and keeps one or two broken ones
LEARN_FAMILIES = ("sc", "psc", "gc", "fl1", "fl2", "logdet", "com", "rouge", "dsum") * 3 + ("nope",)
LEARN_TASKS = ("generic", "query", "privacy", "query_privacy") * 3 + ("update", "sideways")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), components=st.lists(st.sampled_from(LEARN_FAMILIES), min_size=1, max_size=3),
       task=st.sampled_from(LEARN_TASKS), budget=st.sampled_from((1, 2, 3) * 3 + (0,)),
       epochs=st.sampled_from((1, 2) * 4 + (0,)),
       margin=st.sampled_from(("one_minus_vrouge",) * 3 + ("zero_one",) * 2 + ("hinge",)),
       lr=st.sampled_from(("0.05", "0.5") * 6 + ("-1", "nan", "inf")),
       metric=st.sampled_from(("cosine", "dot", "rbf")))
def test_learn_exits_cleanly_on_generated_input(data, components, task, budget, epochs, margin,
                                                lr, metric):
    with tempfile.TemporaryDirectory() as tmp:
        train_dir = Path(tmp) / "train"
        train_dir.mkdir()
        for c in range(data.draw(st.integers(1, 2))):
            doc, n = data.draw(collections(defects=(None,) * 18 + DEFECTS))
            doc["references"] = [_item_ids(data.draw, n, (1, max(budget, 1)))
                                 for _ in range(data.draw(st.integers(1, 2)))]
            (train_dir / f"c{c}.json").write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        rc = _run(["learn", "--train-dir", str(train_dir), "--components", ",".join(components),
                   "--task", task, "--budget", str(budget), "--epochs", str(epochs),
                   "--margin", margin, "--lr", lr, "--metric", metric, "--out", str(out)], out)
        assert (rc == 0) == (out / "model.json").exists()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), coll=collections(), as_object=st.booleans(), own_refs=st.booleans(),
       metric=st.sampled_from(("cosine", "dot", "rbf")))
def test_eval_exits_cleanly_on_generated_input(data, coll, as_object, own_refs, metric):
    doc, n = coll
    doc["references"] = [_item_ids(data.draw, n, (0, 3)) for _ in range(data.draw(st.integers(0, 2)))]
    summary = _item_ids(data.draw, n, (0, 4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.json"
        path.write_text(json.dumps(doc))
        spath = Path(tmp) / "summary.json"
        spath.write_text(json.dumps({"items": summary} if as_object else summary))
        out = Path(tmp) / "out"
        argv = ["eval", "--collection", str(path), "--summary", str(spath), "--metric", metric,
                "--out", str(out)]
        if not own_refs:
            rpath = Path(tmp) / "refs.json"
            rpath.write_text(json.dumps([_item_ids(data.draw, n, (0, 3))]))
            argv += ["--references", str(rpath)]
        rc = _run(argv, out)
        report = out / "report.json"
        assert (rc == 0) == report.exists()
        if report.exists():
            assert 0.0 <= _strict(report)["vrouge"] <= 1.0


def _run(argv, out) -> int:
    """main(argv) with the exit-code and strict-JSON contract checked."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    for path in out.glob("*.json") if out.exists() else ():
        _strict(path)
    return rc


def _strict(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")
