"""Property tests: generated collections and --fn strings through `submodsum summarize`.

Whatever the input, a run ends with exit code 0, 2 (config/format error) or
3 (numeric error), never with an uncaught exception, and any selection.json
it leaves behind is strict JSON (no NaN or Infinity tokens).
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from submodsum.cli import main

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
def collections(draw):
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
    defect = draw(st.sampled_from(DEFECTS))
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN gains are provoked on purpose
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        sel_path = out / "selection.json"
        assert (rc == 0) == sel_path.exists()
        if sel_path.exists():
            sel = json.loads(sel_path.read_text(), parse_constant=_reject_constant)
            assert len(sel["indices"]) <= budget
            assert all(0 <= i < n for i in sel["indices"])


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON token {token} in selection.json")
