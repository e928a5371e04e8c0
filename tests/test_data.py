import json
import re

import numpy as np
import pytest

from submodsum.data import (
    AuxiliarySet,
    ConceptUniverse,
    GroundSet,
    ItemRecord,
    build_kernel,
    count_matrix,
    coverage_matrix,
    load_collection,
    write_json,
)
from submodsum.errors import FormatError, NumericError
from submodsum.functions import EvalContext, Family, FunctionSpec
from submodsum.optimize import Flavor, master_solve


def test_ground_set_basic():
    gs = GroundSet([ItemRecord("a", features=[1.0, 0.0]), ItemRecord("b", features=[0.0, 1.0])])
    assert len(gs) == 2
    assert gs.ids == ("a", "b")
    assert gs.dim == 2
    assert gs.index_of("b") == 1
    with pytest.raises(LookupError):
        gs.index_of("zz")


def test_duplicate_ids_rejected():
    with pytest.raises(FormatError):
        GroundSet([ItemRecord("a", features=[1.0]), ItemRecord("a", features=[2.0])])


def test_feature_dim_mismatch_rejected():
    with pytest.raises(FormatError):
        GroundSet([ItemRecord("a", features=[1.0]), ItemRecord("b", features=[1.0, 2.0])])


def test_record_requires_some_payload():
    with pytest.raises(FormatError):
        ItemRecord("empty")


def test_count_and_coverage_matrices():
    gs = GroundSet([
        ItemRecord("a", concepts={"x": 2}, coverage={"x": 0.5}),
        ItemRecord("b", concepts={"y": 1}, coverage={"y": 0.25}),
    ])
    uni = ConceptUniverse(["x", "y"])
    assert count_matrix(gs, uni).tolist() == [[2, 0], [0, 1]]
    assert coverage_matrix(gs, uni).tolist() == [[0.5, 0.0], [0.0, 0.25]]


def test_cosine_kernel_values():
    gs = GroundSet([
        ItemRecord("a", features=[1.0, 0.0]),
        ItemRecord("b", features=[2.0, 0.0]),
        ItemRecord("c", features=[0.0, 3.0]),
    ])
    kern = build_kernel(gs, [], metric="cosine")
    assert kern.matrix[0, 1] == pytest.approx(1.0)
    assert kern.matrix[0, 2] == pytest.approx(0.0)


def test_cosine_zero_vector_maps_to_zero_similarity():
    gs = GroundSet([ItemRecord("a", features=[0.0, 0.0]), ItemRecord("b", features=[1.0, 0.0])])
    kern = build_kernel(gs, [], metric="cosine")
    assert kern.matrix[0, 0] == pytest.approx(1.0)
    assert kern.matrix[0, 1] == pytest.approx(0.0)


def test_rbf_kernel_factorizes(rng):
    gs = GroundSet([ItemRecord(f"i{k}", features=rng.normal(size=3).tolist()) for k in range(10)])
    kern = build_kernel(gs, [], metric="rbf", sigma=1.0, jitter=1e-6)
    np.linalg.cholesky(kern.matrix + kern.psd_jitter * np.eye(10))


@pytest.mark.parametrize("features", [True, False], ids=["features", "concepts"])
def test_empty_auxiliary_set_adds_no_rows_and_no_role(rng, features):
    # an empty set is dropped the way a collection drops its empty roles,
    # instead of failing to stack its zero feature rows
    def items(prefix, count):
        return [ItemRecord(f"{prefix}{k}", features=rng.normal(size=3) if features else None,
                           concepts={f"c{k % 3}": 1 + k % 2}) for k in range(count)]

    ground, queries = GroundSet(items("g", 8)), AuxiliarySet(items("q", 2), "query")
    empty = AuxiliarySet([], "query")
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
