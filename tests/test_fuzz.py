"""Property tests: generated collections and arguments through `submodsum
summarize`, `learn`, `eval` and `synth`.

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

import numpy as np

from submodsum.bench import random_instance, summary_counts, vrouge
from submodsum.cli import main
from submodsum.errors import ConfigError, SubmodsumError
from submodsum.functions import (
    EvalContext,
    Family,
    FunctionSpec,
    definitional_oracle,
    evaluate,
    make_state,
    modes_supported,
    partials,
)
from submodsum.functions.api import near_kink

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
# a concept_universe over the items' concepts "abcd", now and then with one bad weight
UNIVERSES = (None,) * 4 + ("valid",) * 2 + ("nan", "inf", "negative", "text")
BAD_WEIGHT = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0, "text": "w"}


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
    universe = draw(st.sampled_from(UNIVERSES))
    if universe is not None:
        weights = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=4, max_size=4))
        if universe in BAD_WEIGHT:
            weights[draw(st.integers(0, 3))] = BAD_WEIGHT[universe]
        doc["concept_universe"] = {"concepts": list("abcd"), "weights": weights}
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


# the option strings themselves: --fn in the grammar family[:key=value,...]
# (com_weights as a|b) and --sweep as param=v1,v2,...; each drawn from known
# and unknown names, numbers, garbage and '|' lists, or as raw text

# each key mostly with values of its own kind, now and then with another's
SPEC_VALUES = {"lam": NUMBERS, "eta": NUMBERS, "nu": NUMBERS, "psi": ("log1p", "identity", "cbrt"),
               "com_weights": ("0.3|0.7", "1|2", "1|2|3", "1", "1|x", "|", "0.5|nan", "-1|1"),
               "family": ("sc", "gc"), "bogus": ("1",), "": ("1",)}
SPEC_TEXT = st.text(alphabet="scglfo12:=,|.-eatnu x", max_size=16)


@st.composite
def fn_strings(draw):
    text = draw(st.sampled_from(FAMILIES + ("FL1", "graph-cut", "")))
    params = []
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(KEYS + ("com_weights",) * 2 + ("family", "")))
        pool = SPEC_VALUES[key] if draw(st.integers(0, 3)) else SPEC_VALUES["com_weights"] + ("", "x")
        value = draw(st.sampled_from(pool))
        params.append(f"{key}={value}" if draw(st.integers(0, 7)) else key)
    return text + (":" + ",".join(params) if params else "")


@st.composite
def sweep_strings(draw):
    param = draw(st.sampled_from(("lam", "eta", "nu") * 3 + ("psi", "com_weights", "zap", "")))
    values = draw(st.lists(st.sampled_from(NUMBERS + ("", " 2 ", "1|2")), max_size=4))
    return f"{param}={','.join(values)}"


@settings(deadline=None)
@given(fn=st.one_of(fn_strings(), SPEC_TEXT), sweep=st.one_of(st.none(), sweep_strings(), SPEC_TEXT),
       study=st.sampled_from(("generic", "query", "privacy", "joint")), flavor=st.sampled_from(FLAVORS),
       synth_fn=st.booleans())
def test_cli_strings_exit_cleanly(fn, sweep, study, flavor, synth_fn):
    """summarize and synth on drawn --fn and --sweep strings exit 0, 2 or 3;
    synth takes the drawn --fn or, so its --sweep gets read, its study's."""
    doc = {"items": [{"id": f"g{i}", "features": [float(i), 1.0 - i], "concepts": {"ab"[i % 2]: 1 + i}}
                     for i in range(4)],
           "queries": [{"id": "q0", "features": [0.0, 1.0], "concepts": {"a": 1}}],
           "privates": [{"id": "p0", "features": [3.0, -2.0], "concepts": {"b": 1}}]}
    # a huge lam or eta overflows a gain, which main answers with exit 3
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coll.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "summarize"
        _run(["summarize", "--collection", str(path), "--flavor", flavor, "--budget", "2",
              f"--fn={fn}", "--metric", "rbf", "--out", str(out)], out)
        out = Path(tmp) / "synth"
        argv = ["synth", "--study", study, "--budget", "2", "--out", str(out)]
        argv += [f"--fn={fn}"] if synth_fn else []
        _run(argv + ([] if sweep is None else [f"--sweep={sweep}"]), out)


# numeric option values, each passed as --opt=value (argparse reads a bare
# '-inf' as a flag): subnormal, huge, NaN, +-inf, negative, zero and a valid
# one; the int options take the integers among them, and both take strings
# argparse cannot convert.  A huge --epochs is a long run rather than an
# error, so --epochs draws none.
FLOATS = ("5e-324", "1e308", "nan", "inf", "-inf", "-1", "0", "0.5", "x", "1e", "")
INTS = ("-1", "0", "2", str(2**64), "nan", "1.5", "x", "")
NUMERIC_OPTIONS = {
    "summarize": {"sigma": FLOATS, "jitter": FLOATS, "budget": INTS},
    "learn": {"sigma": FLOATS, "jitter": FLOATS, "budget": INTS, "lr": FLOATS, "momentum": FLOATS,
              "reg": FLOATS, "epochs": ("-1", "0", "2"), "seed": INTS},
    "synth": {"budget": INTS, "delta": FLOATS, "seed": INTS},
}
SMALL_DOC = {"items": [{"id": f"g{i}", "features": [float(i), 1.0 - i], "concepts": {"ab"[i % 2]: 1 + i}}
                       for i in range(6)],
             "queries": [{"id": "q0", "features": [0.0, 1.0], "concepts": {"a": 1}}],
             "privates": [{"id": "p0", "features": [3.0, -2.0], "concepts": {"b": 1}}],
             "references": [["g0", "g1"], ["g2", "g5"]]}


@settings(deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(NUMERIC_OPTIONS)),
       study=st.sampled_from(("generic", "query", "privacy", "joint")))
def test_numeric_option_values_exit_cleanly(data, command, study):
    """summarize, learn and synth with one to three numeric options set to
    edge values exit 0 with nothing on stderr, or 2 or 3 with one line and
    no --out."""
    options = NUMERIC_OPTIONS[command]
    names = data.draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3, unique=True))
    values = [f"--{name}={data.draw(st.sampled_from(options[name]))}" for name in names]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train" / "coll.json"
        path.parent.mkdir()
        path.write_text(json.dumps(SMALL_DOC))
        argv = {"summarize": ["summarize", "--collection", str(path), "--flavor", "query_privacy",
                              "--budget", "2", "--fn", "fl1", "--metric", "rbf"],
                "learn": ["learn", "--train-dir", str(path.parent), "--budget", "2", "--epochs", "1",
                          "--components", "sc,fl1", "--metric", "rbf"],
                "synth": ["synth", "--study", study]}[command]
        out = Path(tmp) / "out"
        _run(argv + values + ["--out", str(out)], out)


# the same problem written in another order under other names: items,
# queries, privates, references and the concept universe permuted, and every
# id renamed consistently
SOLVE_FAMILIES = tuple(f for f in FAMILIES if f != "nope")
SOLVE_FLAVORS = tuple(f for f in FLAVORS if f != "sideways")
# repeated items (equal features or concept counts) leave log-det's Schur
# complements near the 1e-6 jitter, where another summation order moves a
# gain by about eps * |K| / jitter: up to 5e-9 relative was seen on dot
# kernels with entries near 10, and |K| reaches 75 here
REORDER_TOL = 1e-6


def _twin(data, doc):
    """doc permuted and renamed, with the renaming and the reference order."""
    roles = ("items", "queries", "privates")
    ids = [rec["id"] for role in roles for rec in doc[role]]
    rename = dict(zip(ids, data.draw(st.permutations([f"x{k}" for k in range(len(ids))]))))
    twin = json.loads(json.dumps(doc))
    for role in roles:
        twin[role] = data.draw(st.permutations(twin[role]))
        for rec in twin[role]:
            rec["id"] = rename[rec["id"]]
    order = data.draw(st.permutations(range(len(doc["references"]))))
    twin["references"] = [[rename[i] for i in doc["references"][k]] for k in order]
    if "concept_universe" in doc:
        cu = doc["concept_universe"]
        perm = data.draw(st.permutations(range(len(cu["concepts"]))))
        twin["concept_universe"] = {key: [cu[key][k] for k in perm] for key in ("concepts", "weights")}
    return twin, rename, order


@settings(deadline=None)
@given(data=st.data(), coll=collections(defects=(None,)), family=st.sampled_from(SOLVE_FAMILIES),
       flavor=st.sampled_from(SOLVE_FLAVORS), metric=st.sampled_from(("cosine", "dot", "rbf")))
def test_item_order_and_ids_do_not_change_the_summary(data, coll, family, flavor, metric):
    """summarize and eval on a permuted, renamed twin of a collection: the
    same exit codes; gains equal (within REORDER_TOL) up to and including the
    first pick that differs (a tie, which input order breaks), and the same
    picks and value when none does; the same V-ROUGE, reference for
    reference."""
    doc, n = coll
    ground = [f"g{i}" for i in range(n)]
    doc["references"] = [data.draw(st.lists(st.sampled_from(ground), min_size=1, max_size=3, unique=True))
                         for _ in range(data.draw(st.integers(1, 2)))]
    prev = data.draw(st.lists(st.sampled_from(ground), max_size=2, unique=True))
    budget = data.draw(st.integers(1, n))
    twin, rename, order = _twin(data, doc)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        summary = None
        for name, coll_doc, ids in (("doc", doc, {i: i for i in rename}), ("twin", twin, rename)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(coll_doc))
            out = Path(tmp) / f"{name}_summarize"
            argv = ["summarize", "--collection", str(path), "--flavor", flavor, "--budget", str(budget),
                    "--fn", family, "--metric", metric, "--out", str(out)]
            rc = _run(argv + (["--prev", ",".join(ids[i] for i in prev)] if prev else []), out)
            sel = _strict(out / "selection.json") if rc == 0 else None
            if summary is None:
                summary = sel["items"] if sel else doc["references"][0]
            spath = Path(tmp) / f"{name}_summary.json"
            spath.write_text(json.dumps([ids[i] for i in summary]))
            out = Path(tmp) / f"{name}_eval"
            erc = _run(["eval", "--collection", str(path), "--summary", str(spath), "--metric", metric,
                        "--out", str(out)], out)
            runs.append((rc, sel, erc, _strict(out / "report.json") if erc == 0 else None))
    (rc, sel, erc, report), (twin_rc, twin_sel, twin_erc, twin_report) = runs
    assert (rc, erc) == (twin_rc, twin_erc)
    if sel is not None:
        back = {new: old for old, new in rename.items()}
        picks = [back[i] for i in twin_sel["items"]]
        assert len(picks) == len(sel["items"])
        differ = [t for t, (a, b) in enumerate(zip(sel["items"], picks)) if a != b]
        stop = differ[0] + 1 if differ else len(picks)
        tol = REORDER_TOL * max(1.0, abs(sel["value"]))
        np.testing.assert_allclose(twin_sel["gains"][:stop], sel["gains"][:stop], rtol=REORDER_TOL, atol=tol)
        if not differ:
            assert twin_sel["value"] == pytest.approx(sel["value"], rel=REORDER_TOL, abs=tol)
    if report is not None:
        assert twin_report["vrouge"] == pytest.approx(report["vrouge"], rel=1e-12, abs=1e-12)
        want = [report["per_reference"][k] for k in order]
        assert twin_report["per_reference"] == pytest.approx(want, rel=1e-12, abs=1e-12)


# the library boundary: each entry point of every family and mode, on contexts
# built by hand with counts, coverage, both or neither, and on index sets that
# break the contract of submodsum.functions.api now and then


def _answers(call):
    """call()'s result, checked finite, or None where it raised a typed error."""
    try:
        out = call()
    except SubmodsumError:
        return None
    values = list(out.values()) if isinstance(out, dict) else out
    assert np.all(np.isfinite(np.asarray(values, dtype=float)))
    return out


def _config_error(call) -> bool:
    """True where call() raised ConfigError; another typed error or a finite
    answer (as in _answers) reads False."""
    try:
        out = call()
    except SubmodsumError as err:
        return isinstance(err, ConfigError)
    _answers(lambda: out)
    return False


MALFORMED = ("negative", "beyond", "non_integer", "aux_in_A", "A_and_Q", "Q_and_P", "ground_in_Q")
# indices that are not integers: each raises ConfigError, none is cast to an int
NON_INTEGERS = (0.5, 1.0, True, "1")


def _malformed(defect, rng, ctx, A, Q, P):
    """(A, Q, P, bad): the sets with the defect drawn into them, and the
    index placed for "negative", "beyond" and "non_integer" (else None)."""
    sets = [list(A), list(Q), list(P)]
    ground_left = [j for j in range(ctx.n_ground) if j not in A]
    bad = None
    if defect in ("negative", "beyond", "non_integer"):
        if defect == "negative":
            bad = -int(rng.integers(1, 4))
        elif defect == "beyond":
            bad = ctx.size + int(rng.integers(0, 3))
        else:
            bad = NON_INTEGERS[int(rng.integers(len(NON_INTEGERS)))]
        sets[int(rng.integers(3))].append(bad)
    elif defect == "aux_in_A":
        sets[0].append(int(rng.integers(ctx.n_ground, ctx.size)))
    elif defect == "A_and_Q":
        g = int(rng.integers(ctx.n_ground))
        sets[0].append(g)
        sets[1].append(g)
    elif defect == "Q_and_P":
        sets[2].append(int(rng.choice(Q)))
    elif defect == "ground_in_Q" and ground_left:
        sets[1].append(int(rng.choice(ground_left)))
    return (*map(tuple, sets), bad)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(("rbf", "cosine", "dot")),
       with_counts=st.booleans(), with_cover=st.booleans(), size=st.integers(0, 8),
       defect=st.sampled_from((None,) * 4 + MALFORMED))
def test_library_entry_points_answer_or_raise_typed_errors(seed, metric, with_counts, with_cover, size,
                                                           defect):
    """Every entry point answers or raises a typed error.  On an rbf context
    with counts and coverage, where no family lacks or rejects the data it
    reads, each one raises ConfigError exactly when evaluate does on the same
    sets (make_state against evaluate with A = ()): all of them read one
    index-set contract."""
    rng = np.random.default_rng(seed)
    base, Q, P = random_instance(rng, metric=metric)
    ctx = EvalContext(base.kernel, base.n_ground, ids=base.ids, metric=metric, jitter=base.jitter,
                      counts=base.counts if with_counts else None,
                      cover_prob=base.cover_prob if with_cover else None,
                      role_indices=base.role_indices)
    A = tuple(rng.permutation(ctx.n_ground)[:size].tolist())
    A, Q, P, bad = _malformed(defect, rng, ctx, A, Q, P)
    exact = with_counts and with_cover and metric == "rbf"
    for family in Family:
        spec = FunctionSpec(family)
        for mode in modes_supported(family):
            raised = _config_error(lambda: evaluate(spec, mode, ctx, A, Q, P))
            for call in (partials, near_kink, definitional_oracle):
                got = _config_error(lambda: call(spec, mode, ctx, A, Q, P))
                assert got == raised or not exact, (call.__name__, family, mode, defect)
            empty_raised = _config_error(lambda: evaluate(spec, mode, ctx, (), Q, P))
            try:
                state = make_state(spec, mode, ctx, Q, P)
            except ConfigError:
                assert empty_raised or not exact, ("make_state", family, mode, defect)
                continue
            except SubmodsumError:
                continue
            assert not empty_raised, ("make_state", family, mode, defect)
            _answers(lambda: state.gain(np.arange(ctx.n_ground)))
            j = int(rng.integers(ctx.n_ground))
            _answers(lambda: state.gain(np.array([j])))
            with contextlib.suppress(SubmodsumError):  # add answers nothing, or a typed error
                state.add(j)
    if bad is not None and with_counts:
        for call in (lambda: summary_counts(ctx, (0, bad)), lambda: vrouge((0, bad), [(0,)], ctx),
                     lambda: vrouge((0,), [(1,), (bad,)], ctx)):
            with pytest.raises(ConfigError):
                call()


def _run(argv, out) -> int:
    """main(argv) with the exit-code and output contract checked: exit 0
    prints nothing to stderr, exit 2 or 3 prints one line and leaves no
    --out, and every JSON file written is strict."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 2, 3), text
    assert text == "" if rc == 0 else (text.count("\n") == 1 and text.endswith("\n")), text
    assert rc == 0 or not out.exists(), text
    for path in out.glob("*.json") if out.exists() else ():
        _strict(path)
    return rc


def _strict(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")
