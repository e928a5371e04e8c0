import csv

import numpy as np
import pytest

from submodsum.bench import (
    BehaviorReport,
    SyntheticConfig,
    behavior_metrics,
    make_collection,
    plot_csv,
    random_instance,
    rouge_q,
    summary_counts,
    synth_context,
    synth_generate,
    vrouge,
)
from submodsum.data import GroundSet
from submodsum.errors import ConfigError, FormatError
from submodsum.functions import EvalContext
from submodsum.optimize import Selection


# ---------------------------------------------------------------------------
# count overlap scores


def test_rouge_q_hand_values():
    assert rouge_q((2, 0, 1), (1, 1, 1)) == pytest.approx(2.0)
    assert rouge_q((0, 0, 0), (1, 1, 1)) == pytest.approx(0.0)
    c = (3, 1, 2)
    assert rouge_q(c, c) == pytest.approx(6.0)
    assert rouge_q((2, 0, 1), (1, 1, 1), (0.5, 2.0, 3.0)) == pytest.approx(3.5)


def test_rouge_q_shape_checks():
    with pytest.raises(FormatError):
        rouge_q((1, 2), (1, 2, 3))
    with pytest.raises(FormatError):
        rouge_q((1, 2, 3), (1, 2, 3), weights=(1.0, 1.0))


def test_rouge_q_monotone_in_summary_counts(rng):
    for _ in range(30):
        cq = rng.integers(0, 4, size=5)
        ca = rng.integers(0, 4, size=5)
        bumped = ca.copy()
        bumped[int(rng.integers(0, 5))] += 1
        assert rouge_q(bumped, cq) >= rouge_q(ca, cq)


def _tiny_counts_ctx():
    ground = GroundSet(["a", "b", "c"], [None, None, [0.0, 1.0]], [{"k1": 1, "k2": 1}, {"k3": 2}, None])
    return EvalContext.build(ground, [], metric="rbf")


def test_vrouge_identity_and_disjoint():
    ctx = _tiny_counts_ctx()
    assert vrouge((0,), [(0,)], ctx) == pytest.approx(1.0)
    assert vrouge((0,), [(1,)], ctx) == pytest.approx(0.0)
    # matches one reference exactly, misses the other entirely
    assert vrouge((0,), [(0,), (1,)], ctx) == pytest.approx(0.5)


def test_vrouge_skips_zero_mass_reference():
    ctx = _tiny_counts_ctx()
    with pytest.warns(UserWarning):
        v = vrouge((0,), [(0,), (2,)], ctx)
    assert v == pytest.approx(1.0)
    with pytest.raises(ConfigError), pytest.warns(UserWarning):
        vrouge((0,), [(2,)], ctx)
    with pytest.raises(ConfigError):
        vrouge((0,), [], ctx)


def test_summary_counts_empty_selection():
    ctx = _tiny_counts_ctx()
    assert np.all(summary_counts(ctx, ()) == 0.0)
    assert summary_counts(ctx, (0, 1)).sum() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# synthetic layouts


def test_synth_generate_is_deterministic():
    a = synth_generate(SyntheticConfig())[0].features
    b = synth_generate(SyntheticConfig())[0].features
    assert np.array_equal(a, b)


def test_synth_layout_shape():
    cfg = SyntheticConfig()
    assert cfg.n_items == 102
    ground, queries, privates = synth_generate(cfg)
    assert len(ground) == 102
    assert len(queries) == 2 and len(privates) == 2
    # cluster points stay near their centers; the outliers sit where configured
    xy = ground.features
    centers = np.asarray(cfg.centers)
    spread = np.min(np.linalg.norm(xy[:100, None, :] - centers[None], axis=2), axis=1)
    assert spread.max() < 3.0 * cfg.cluster_std
    assert np.allclose(xy[100:], np.asarray(cfg.outliers))


def test_synth_context_roles():
    ctx = synth_context(SyntheticConfig())
    assert ctx.n_ground == 102
    assert len(ctx.role_indices["query"]) == 2
    assert len(ctx.role_indices["private"]) == 2
    assert all(j >= 102 for j in ctx.role_indices["query"])


def test_random_instance_respects_com_guard(rng):
    for _ in range(40):
        ctx, Q, P = random_instance(rng)
        n = ctx.n_ground
        cross = ctx.cross.T
        guard = np.sqrt(n) + 1e-9
        if cross.size:
            assert cross.sum(axis=1).max() <= guard
            assert cross.sum(axis=0).max() <= guard


# ---------------------------------------------------------------------------
# behavior reports


def _sel(indices, gains):
    return Selection(ids=[f"g{i}" for i in indices], indices=list(indices),
                     gains=list(gains), value=float(sum(gains)), budget=len(indices))


def test_behavior_metrics_query_matching():
    ground_xy = [[0.0, 0.0], [5.0, 0.0], [0.2, 0.0], [9.0, 9.0]]
    sel = _sel([0, 2, 3], [3.0, 2.0, 1.0])
    rep = behavior_metrics(sel, ground_xy, query_xy=[[0.0, 0.1], [5.0, 0.0]])
    assert rep.query_match_count == [2, 0]
    assert rep.fairness == 0
    assert rep.privacy_violations is None


def test_behavior_metrics_counts_bounded_by_budget():
    ground_xy = np.zeros((6, 2))
    sel = _sel([0, 1, 2], [1.0, 1.0, 1.0])
    rep = behavior_metrics(sel, ground_xy, query_xy=[[0.0, 0.0]])
    assert rep.query_match_count == [3]
    assert rep.fairness == 3


def test_behavior_metrics_saturation_step():
    ground_xy = np.zeros((5, 2))
    sel = _sel([0, 1, 2, 3], [5.0, 3.0, 0.0001, 2.0])
    rep = behavior_metrics(sel, ground_xy)
    assert rep.saturation_step == 3
    rep = behavior_metrics(_sel([0], [5.0]), ground_xy)
    assert rep.saturation_step is None


def test_behavior_metrics_privacy_hits():
    ground_xy = [[0.0, 0.0], [4.0, 4.0], [8.0, 8.0]]
    sel = _sel([0, 1, 2], [1.0, 1.0, 1.0])
    rep = behavior_metrics(sel, ground_xy, private_xy=[[4.2, 4.0]])
    assert rep.privacy_violations == 1


def test_behavior_metrics_rejects_bad_delta():
    sel = _sel([0], [1.0])
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="delta"):
            behavior_metrics(sel, [[0.0, 0.0]], delta=delta)
    # a first pick that gains nothing saturates at once
    assert behavior_metrics(_sel([0], [0.0]), [[0.0, 0.0]]).saturation_step == 1


def test_behavior_report_json_round_trip():
    rep = BehaviorReport(query_match_count=[2, 0], fairness=0,
                         saturation_step=3, privacy_violations=1)
    out = rep.to_json()
    assert out == {"query_match_count": [2, 0], "fairness": 0,
                   "saturation_step": 3, "privacy_violations": 1}


# ---------------------------------------------------------------------------
# training collections


def test_make_collection_is_deterministic():
    ctx1, refs1, q1 = make_collection(100)
    ctx2, refs2, q2 = make_collection(100)
    assert np.array_equal(ctx1.kernel, ctx2.kernel)
    assert refs1 == refs2 and q1 == q2


def test_make_collection_reference_shape():
    ctx, refs, Q = make_collection(31, budget=4)
    assert ctx.n_ground == 24 and Q == (24,)
    assert len(refs) == 2
    for ref in refs:
        assert len(ref) == 4
        assert all(0 <= j < ctx.n_ground for j in ref)
    # the two annotators agree except for the final pick
    assert refs[0][:-1] == refs[1][:-1]
    assert refs[0][-1] != refs[1][-1]


# ---------------------------------------------------------------------------
# plot export


def test_write_plot_csv():
    ground_xy = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    sel = _sel([2, 0], [2.0, 1.0])
    text = plot_csv(ground_xy, sel, query_xy=[[5.0, 5.0]], private_xy=[[6.0, 6.0]])
    assert text.count("\r\n") == text.count("\n") == 1 + 3 + 1 + 1  # csv's own row ends
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["x", "y", "role", "pick_order"]
    assert len(rows) == 1 + 3 + 1 + 1
    roles = [r[2] for r in rows[1:]]
    assert roles.count("selected") == 2 and roles.count("data") == 1
    assert roles.count("query") == 1 and roles.count("private") == 1
    by_xy = {(r[0], r[1]): r for r in rows[1:]}
    assert by_xy[("2", "2")][3] == "1"
    assert by_xy[("0", "0")][3] == "2"
    assert by_xy[("1", "1")][3] == ""
