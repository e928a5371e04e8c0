import json
import re

import numpy as np
import pytest

from submodsum.data import (
    AuxiliarySet,
    ConceptUniverse,
    GroundSet,
    build_kernel,
    count_matrix,
    coverage_matrix,
    load_collection,
    write_json,
)
from submodsum.cli import main
from submodsum.errors import FormatError, NumericError
from submodsum.functions import EvalContext, Family, FunctionSpec
from submodsum.optimize import Flavor, master_solve


def test_ground_set_basic():
    gs = GroundSet(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
    assert len(gs) == 2
    assert gs.ids == ("a", "b")
    assert gs.features.shape == (2, 2)
    assert gs.index_of("b") == 1
    with pytest.raises(LookupError):
        gs.index_of("zz")


def test_duplicate_ids_rejected():
    with pytest.raises(FormatError, match=re.escape("duplicate item ids: ['a']")):
        GroundSet(["a", "a"], [[1.0], [2.0]])


def test_feature_dim_mismatch_rejected():
    with pytest.raises(FormatError, match=re.escape("inconsistent feature dimensions: [1, 2]")):
        GroundSet(["a", "b"], [[1.0], [1.0, 2.0]])


def test_record_requires_some_payload():
    with pytest.raises(FormatError, match="item 'empty': needs features or concepts"):
        GroundSet(["a", "empty"], [[1.0], None], [{"x": 1}, {}])
    with pytest.raises(FormatError, match="item 'empty': needs features or concepts"):
        GroundSet(["empty"])


def test_columns_need_one_entry_per_id():
    with pytest.raises(FormatError, match=re.escape("each item column needs one entry per id (2)")):
        GroundSet(["a", "b"], concepts=[{"x": 1}])


def test_count_and_coverage_matrices():
    gs = GroundSet(["a", "b"], concepts=[{"x": 2}, {"y": 1}], coverage=[{"x": 0.5}, {"y": 0.25}])
    uni = ConceptUniverse(["x", "y"])
    assert count_matrix(gs, uni).tolist() == [[2, 0], [0, 1]]
    assert coverage_matrix(gs, uni).tolist() == [[0.5, 0.0], [0.0, 0.25]]


def test_cosine_kernel_values():
    gs = GroundSet(["a", "b", "c"], [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    kern = build_kernel(gs, [], metric="cosine")
    assert kern.matrix[0, 1] == pytest.approx(1.0)
    assert kern.matrix[0, 2] == pytest.approx(0.0)


def test_cosine_zero_vector_maps_to_zero_similarity():
    gs = GroundSet(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
    kern = build_kernel(gs, [], metric="cosine")
    assert kern.matrix[0, 0] == pytest.approx(1.0)
    assert kern.matrix[0, 1] == pytest.approx(0.0)


def test_rbf_kernel_factorizes(rng):
    gs = GroundSet([f"i{k}" for k in range(10)], rng.normal(size=(10, 3)))
    kern = build_kernel(gs, [], metric="rbf", sigma=1.0, jitter=1e-6)
    np.linalg.cholesky(kern.matrix + kern.psd_jitter * np.eye(10))


@pytest.mark.parametrize("features", [True, False], ids=["features", "concepts"])
def test_empty_auxiliary_set_adds_no_rows_and_no_role(rng, features):
    # an empty set is dropped the way a collection drops its empty roles,
    # instead of failing to stack its zero feature rows
    def items(prefix, count):
        return ([f"{prefix}{k}" for k in range(count)], rng.normal(size=(count, 3)) if features else None,
                [{f"c{k % 3}": 1 + k % 2} for k in range(count)])

    ground, queries = GroundSet(*items("g", 8)), AuxiliarySet(*items("q", 2), role_tag="query")
    empty = AuxiliarySet([], role_tag="query")
    fl1 = FunctionSpec(Family.FACILITY_LOCATION_1)
    for aux in ([], [queries]):
        want = EvalContext.build(ground, aux)
        got = EvalContext.build(ground, [empty, *aux])
        assert np.array_equal(got.kernel, want.kernel)
        assert got.role_indices == want.role_indices
        Q = got.role_indices.get("query", ())
        assert (master_solve(Flavor.QUERY, fl1, got, 3, Q=Q).indices
                == master_solve(Flavor.QUERY, fl1, want, 3, Q=Q).indices)
    assert "query" not in EvalContext.build(ground, empty).role_indices


def test_collection_round_trip(tmp_path):
    doc = {
        "items": [
            {"id": "a", "features": [1.0, 0.0], "concepts": {"x": 1}},
            {"id": "b", "features": [0.0, 1.0], "concepts": {"y": 2}},
        ],
        "queries": [{"id": "q", "concepts": {"x": 1}}],
        "references": [["a"]],
        "concept_universe": {"concepts": ["x", "y"], "weights": [1.0, 2.0]},
    }
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    coll = load_collection(path)
    assert coll.ground.ids == ("a", "b")
    assert coll.queries.ids == ("q",)
    assert coll.references == [("a",)]
    assert coll.universe.concepts == ("x", "y")
    assert coll.universe.weights.tolist() == [1.0, 2.0]


def test_collection_rejects_unknown_reference(tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [{"id": "a", "concepts": {"x": 1}}],
                                "references": [["nope"]]}))
    with pytest.raises(FormatError):
        load_collection(path)


def test_collection_names_unknown_concepts_sorted(tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({
        "items": [{"id": "a", "concepts": {"x": 1}}],
        "queries": [{"id": "q", "concepts": {"z": 1, "x": 1}, "coverage": {"w": 0.5}}],
        "concept_universe": {"concepts": ["x"]},
    }))
    with pytest.raises(FormatError, match=re.escape("item 'q': concepts ['w', 'z'] not in concept_universe")):
        load_collection(path)


def test_write_json_is_strict(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"value": 1.5, "gains": [0.5, 1.0]})
    assert json.loads(path.read_text()) == {"gains": [0.5, 1.0], "value": 1.5}
    for bad in (float("nan"), float("inf"), -float("inf")):
        path.unlink(missing_ok=True)
        with pytest.raises(NumericError):
            write_json(path, {"gains": [0.5, bad]})
        assert not path.exists()


@pytest.mark.parametrize("doc", [{"rows": []}, [{"id": "a", "features": [1.0]}], 7])
def test_collection_must_be_an_object_with_items(tmp_path, doc):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="JSON object with an 'items' array"):
        load_collection(path)


@pytest.mark.parametrize("key, value", [("queries", 3), ("privates", {"id": "p"}),
                                        ("references", [5]), ("references", "a"),
                                        ("items", {"id": "p"})])
def test_collection_lists_must_be_lists(tmp_path, key, value):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [{"id": "a", "concepts": {"x": 1}}], key: value}))
    with pytest.raises(FormatError, match=f"'{key}' must be a list"):
        load_collection(path)


# ---------------------------------------------------------------------------
# loading roles as columns


def _role_doc():
    def rec(prefix, i):
        return {"id": f"{prefix}{i}", "features": [1.0 + i, 2.0, 0.5 * i],
                "concepts": {"a": 1, "b": i + 1}, "coverage": {"a": 0.5, "c": 0.25}}
    return {"items": [rec("g", i) for i in range(3)], "queries": [rec("q", i) for i in range(3)],
            "privates": [rec("p", i) for i in range(3)]}


# defect -> (mutation of one record, the message that names it or None where
# the rest of the message is numpy's or Python's own text)
DEFECTS = {
    "ragged_features": (lambda r: r["features"].append(1.0), "inconsistent feature dimensions: [3, 4]"),
    "text_feature": (lambda r: r["features"].__setitem__(1, "x"), None),
    "nested_feature": (lambda r: r.__setitem__("features", [[1.0], [2.0], [3.0]]),
                       "item {id!r}: features must be a flat vector"),
    "fractional_count": (lambda r: r["concepts"].__setitem__("b", 1.5),
                         "item {id!r}: concept 'b' count must be a nonnegative integer"),
    "negative_count": (lambda r: r["concepts"].__setitem__("b", -1),
                       "item {id!r}: concept 'b' count must be a nonnegative integer"),
    "text_count": (lambda r: r["concepts"].__setitem__("b", "two"),
                   "item {id!r}: concept 'b' count must be a nonnegative integer"),
    "coverage_above_one": (lambda r: r["coverage"].__setitem__("c", 1.5),
                           "item {id!r}: coverage 'c' must lie in [0, 1]"),
    "coverage_below_zero": (lambda r: r["coverage"].__setitem__("c", -0.5),
                            "item {id!r}: coverage 'c' must lie in [0, 1]"),
    "coverage_text": (lambda r: r["coverage"].__setitem__("c", "lots"), None),
    "no_id": (lambda r: r.pop("id"), "item record must be an object with an 'id': {rec!r}"),
    "bare_item": (lambda r: [r.pop(k) for k in ("features", "concepts", "coverage")],
                  "item {id!r}: needs features or concepts"),
    "unknown_concept": (lambda r: r["concepts"].__setitem__("zz", 1),
                        "item {id!r}: concepts ['zz'] not in concept_universe"),
}


def _defective_doc(defect, role, k):
    """(document, message, id): a role document under a concept universe with one defect
    in record k of role, and the message that names it (None where the rest of the message
    is numpy's or Python's own text)."""
    doc = _role_doc()
    doc["concept_universe"] = {"concepts": ["a", "b", "c"]}
    victim = doc[role][k]
    item_id = victim["id"]
    if defect == "not_an_object":
        doc[role][k] = "oops"
        want = "item record must be an object with an 'id': 'oops'"
    elif defect == "duplicate_id":
        victim["id"] = doc[role][1 - k // 2]["id"]
        want = f"duplicate item ids: [{victim['id']!r}]"
    else:
        mutate, want = DEFECTS[defect]
        mutate(victim)
        want = want and want.format(id=item_id, rec=victim)
    return doc, want, item_id


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("role", ["items", "queries", "privates"])
@pytest.mark.parametrize("defect", [*DEFECTS, "not_an_object", "duplicate_id"])
def test_load_names_the_first_offending_item(tmp_path, capsys, defect, role, k):
    doc, want, item_id = _defective_doc(defect, role, k)
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        load_collection(path)
    if want is None:
        assert str(info.value).startswith(f"item {item_id!r}: ")
    else:
        assert str(info.value) == want
    assert main(["summarize", "--collection", str(path), "--flavor", "generic", "--budget", "1",
                 "--fn", "fl1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def _columns(records):
    """The ids, features, concepts and coverage columns of JSON item records."""
    return ([r["id"] for r in records], [r.get("features") for r in records],
            [r.get("concepts") for r in records], [r.get("coverage") for r in records])


def _build_from_columns(doc) -> EvalContext:
    """The roles of a collection document built through the item-set constructors from
    their columns, then the context over them under the document's concept universe."""
    ground = GroundSet(*_columns(doc["items"]))
    aux = [AuxiliarySet(*_columns(doc["queries"]), role_tag="query"),
           AuxiliarySet(*_columns(doc["privates"]), role_tag="private")]
    return EvalContext.build(ground, aux, universe=ConceptUniverse(doc["concept_universe"]["concepts"]))


def _messages(tmp_path, doc) -> tuple[str, str]:
    """The FormatError texts of loading doc and of building it from its columns."""
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as loaded:
        load_collection(path)
    with pytest.raises(FormatError) as built:
        _build_from_columns(json.loads(path.read_text()))
    return str(loaded.value), str(built.value)


# a column holds no record that could lack an 'id' or be no object
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("role", ["items", "queries", "privates"])
@pytest.mark.parametrize("defect", [*(d for d in DEFECTS if d != "no_id"), "duplicate_id"])
def test_constructor_and_loader_give_one_message(tmp_path, defect, role, k):
    doc, _, _ = _defective_doc(defect, role, k)
    loaded, built = _messages(tmp_path, doc)
    assert built == loaded


# two defects in one role: an item rule broken by the first offending item, in
# order, comes before a later item's defect, and before repeated ids and
# mixed feature lengths; each message is the one the record-by-record reader
# gave for the same document
TWO_DEFECTS = {
    "bad_coverage_g0_nested_features_g2": ((("coverage_above_one", 0), ("nested_feature", 2)),
                                           "item 'g0': coverage 'c' must lie in [0, 1]"),
    "negative_count_g0_text_feature_g2": ((("negative_count", 0), ("text_feature", 2)),
                                          "item 'g0': concept 'b' count must be a nonnegative integer"),
    "bad_count_g2_repeated_id": ((("fractional_count", 2), ("repeat_g0", 1)),
                                 "item 'g2': concept 'b' count must be a nonnegative integer"),
    "ragged_features_g0_bad_coverage_g2": ((("ragged_features", 0), ("coverage_above_one", 2)),
                                           "item 'g2': coverage 'c' must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", list(TWO_DEFECTS))
def test_first_offending_item_wins_over_later_defects(tmp_path, case):
    defects, want = TWO_DEFECTS[case]
    doc = _role_doc()
    doc["concept_universe"] = {"concepts": ["a", "b", "c"]}
    for defect, k in defects:
        if defect == "repeat_g0":
            doc["items"][k]["id"] = "g0"
        else:
            DEFECTS[defect][0](doc["items"][k])
    assert _messages(tmp_path, doc) == (want, want)


def test_record_that_is_no_object_comes_after_an_earlier_item_defect(tmp_path):
    doc = _role_doc()
    DEFECTS["coverage_above_one"][0](doc["items"][0])
    doc["items"][2] = "oops"
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=re.escape("item 'g0': coverage 'c' must lie in [0, 1]")):
        load_collection(path)


def test_count_beyond_numpy_integers_is_a_format_error(tmp_path, capsys):
    # a whole count keeps the item rules but no numpy integer holds it
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [{"id": "a", "concepts": {"x": 2**64}}]}))
    assert main(["summarize", "--collection", str(path), "--flavor", "generic", "--budget", "1",
                 "--fn", "sc", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: item values fail the format checks\n"


def test_concept_outside_the_universe_is_a_format_error_when_building(tmp_path):
    ground = GroundSet(["a", "b"], concepts=[{"x": 1}, {"y": 2, "x": 1}])
    universe = ConceptUniverse(["x"])
    want = re.escape("item 'b': concepts ['y'] not in concept_universe")
    for build in (EvalContext.build, build_kernel, count_matrix, coverage_matrix):
        with pytest.raises(FormatError, match=want):
            build(ground, universe=universe)
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [{"id": "a", "concepts": {"x": 1}},
                                          {"id": "b", "concepts": {"y": 2, "x": 1}}],
                                "concept_universe": {"concepts": ["x"]}}))
    with pytest.raises(FormatError, match=want):
        load_collection(path)


def test_loaded_columns_equal_those_of_the_records(tmp_path):
    rows = [{"id": "a", "features": [1.0, 0.0], "concepts": {"x": 2, "y": 0}},
            {"id": "b", "features": [0.5, float("nan")], "concepts": {"y": 1}, "coverage": {"y": 0.25}},
            {"id": "c", "features": [0.0, 3.0], "coverage": {"x": 1.0, "z": 0.0}}]
    queries = [{"id": "q", "concepts": {"z": 3}}]
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": rows, "queries": queries}))
    coll = load_collection(path)  # NaN features load; the kernel rejects them only if it reads them
    for got, want in ((coll.ground, GroundSet(*_columns(rows))),
                      (coll.queries, AuxiliarySet(["q"], concepts=[{"z": 3}], role_tag="query"))):
        assert got.ids == want.ids
        assert (got.features is None) == (want.features is None)
        if want.features is not None:
            assert np.array_equal(got.features, want.features, equal_nan=True)
        for column in ("counts", "cover"):
            for g, w in zip(getattr(got, column), getattr(want, column)):
                assert np.array_equal(g, w)
    assert coll.ground.cover.names == ["y", "x", "z", "x", "y"]  # b and c give coverage, a falls back
    # the query has no features, so the kernel comes from the concept counts
    uni = ConceptUniverse.from_items(coll.ground, coll.queries)
    counts = count_matrix([coll.ground, coll.queries], uni)
    assert counts.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 3]]
    kern = build_kernel(coll.ground, coll.queries, metric="dot")
    assert np.array_equal(kern.matrix, counts @ counts.T)
