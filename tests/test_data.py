import json

import numpy as np
import pytest

from submodsum.data import (
    AuxiliarySet,
    ConceptUniverse,
    GroundSet,
    ItemRecord,
    build_kernel,
    collection_to_json,
    count_matrix,
    coverage_matrix,
    cross_only_kernel,
    embed_query,
    load_collection,
    load_items,
    write_json,
)
from submodsum.errors import FormatError, NumericError


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


def test_load_items_json(tmp_path):
    path = tmp_path / "items.json"
    rows = [{"id": f"i{k}", "features": [float(k), 0.0, 1.0, 2.0]} for k in range(3)]
    path.write_text(json.dumps(rows))
    gs = load_items(path, "json")
    assert len(gs) == 3 and gs.dim == 4


def test_load_items_duplicate_id(tmp_path):
    path = tmp_path / "items.json"
    path.write_text(json.dumps([{"id": "x", "features": [1.0]}, {"id": "x", "features": [2.0]}]))
    with pytest.raises(FormatError):
        load_items(path, "json")


def test_embed_query():
    uni = ConceptUniverse(["aircraft", "sky", "water"])
    v = embed_query(["aircraft", "sky"], uni)
    assert v.tolist() == [1.0, 1.0, 0.0]
    assert embed_query([], uni).tolist() == [0.0, 0.0, 0.0]
    # duplicates collapse to a 1-hot entry
    assert embed_query(["sky", "sky"], uni).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(LookupError):
        embed_query(["ocean"], uni)


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


def test_cross_only_kernel_idempotent(rng):
    gs = GroundSet([ItemRecord(f"g{k}", features=rng.normal(size=2).tolist()) for k in range(3)])
    aux = AuxiliarySet([ItemRecord("q", features=rng.normal(size=2).tolist())], "query")
    kern = build_kernel(gs, [aux], metric="rbf")
    cross = cross_only_kernel(kern)
    assert np.allclose(cross.matrix[:3, :3], np.eye(3))
    assert np.allclose(cross.matrix[3:, 3:], np.eye(1))
    assert np.allclose(cross.matrix[:3, 3:], kern.matrix[:3, 3:])
    again = cross_only_kernel(cross)
    assert np.allclose(again.matrix, cross.matrix)


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
    back = collection_to_json(coll)
    assert back["items"][0]["id"] == "a"
    assert back["references"] == [["a"]]


def test_collection_rejects_unknown_reference(tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(json.dumps({"items": [{"id": "a", "concepts": {"x": 1}}],
                                "references": [["nope"]]}))
    with pytest.raises(FormatError):
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
