import json

import numpy as np
import pytest

from conftest import ScratchObjective
from submodsum.bench import make_collection, random_instance, vrouge
from submodsum.errors import ConfigError, FormatError, NumericError
from submodsum.functions import EvalContext, Family, FunctionSpec, MeasureMode, evaluate
from submodsum.learning import (
    MixtureModel,
    TrainConfig,
    TrainingExample,
    example_hinge,
    finite_diff_check,
    gradients,
    hinge_loss,
    init_mixture,
    loss_augmented_inference,
    make_margin,
    mixture_eval,
    mixture_objective,
    pack_theta,
    summarize_with_mixture,
    theta_slots,
    train,
    training_log_csv,
)
from submodsum.optimize import Flavor, brute_force_opt, greedy_maximize


@pytest.fixture(scope="module")
def example():
    ctx, refs, Q = make_collection(100)
    return TrainingExample(ctx, refs, 4, Q=Q)


def test_mixture_eval_scaling(example):
    single = MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([2.0]))
    got = mixture_eval(single, (0, 1, 2), example, Flavor.QUERY)
    direct = evaluate(FunctionSpec(Family.SET_COVER), MeasureMode.SMI,
                      example.ctx, (0, 1, 2), example.Q, ())
    assert got == pytest.approx(2.0 * direct)
    zero = MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([0.0]))
    assert mixture_eval(zero, (0, 3, 7), example, Flavor.QUERY) == 0.0


def test_mixture_eval_matches_component_sum(example):
    model = MixtureModel([FunctionSpec(Family.SET_COVER),
                          FunctionSpec(Family.GRAPH_CUT, lam=0.5)], np.array([0.6, 0.4]))
    Y = (0, 2, 5)
    want = (0.6 * evaluate(FunctionSpec(Family.SET_COVER), MeasureMode.SMI,
                           example.ctx, Y, example.Q, ())
            + 0.4 * evaluate(FunctionSpec(Family.GRAPH_CUT, lam=0.5), MeasureMode.SMI,
                             example.ctx, Y, example.Q, ()))
    assert mixture_eval(model, Y, example, Flavor.QUERY) == pytest.approx(want)


def test_model_validation():
    with pytest.raises(ConfigError):
        MixtureModel([], np.array([]))
    with pytest.raises(ConfigError):
        MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([-0.5]))
    with pytest.raises(ConfigError):
        MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_parameters(bad):
    with pytest.raises(ConfigError):
        MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([bad]))
    with pytest.raises(ConfigError):
        MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([1.0]), reg_strength=bad)


def test_model_save_refuses_non_finite_numbers(tmp_path):
    model = MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([1.0]),
                         metadata={"loss_trace": [{"epoch": 1, "mean_hinge": float("nan")}]})
    path = tmp_path / "model.json"
    with pytest.raises(NumericError):
        model.save(path)
    assert not path.exists()


def test_model_json_round_trip(tmp_path):
    model = MixtureModel(
        [FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.3, nu=1.7),
         FunctionSpec(Family.CONCAVE_OVER_MODULAR, eta=0.5, psi="log1p")],
        np.array([0.25, 1.5]), reg_strength=2e-3, metadata={"task": "query"})
    path = tmp_path / "model.json"
    model.save(path)
    back = MixtureModel.load(path)
    assert np.allclose(back.weights, model.weights)
    assert back.reg_strength == model.reg_strength
    assert back.components[0].eta == 0.3 and back.components[0].nu == 1.7
    assert back.components[1].psi == "log1p"
    assert back.metadata["task"] == "query"


def test_model_loads_old_layout_with_every_key(tmp_path):
    # model files used to carry every spec key, defaults included
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "components": [
            {"family": "facility_location_1", "lam": 1.0, "eta": 0.3, "nu": 1.7, "psi": "sqrt"},
            {"family": "concave_over_modular", "lam": 1.0, "eta": 0.5, "nu": 1.0,
             "psi": "log1p", "com_weights": [0.2, 0.8]},
        ],
        "weights": [0.25, 1.5], "reg_strength": 2e-3, "metadata": {"task": "query"},
    }))
    back = MixtureModel.load(path)
    assert back.components == [
        FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.3, nu=1.7),
        FunctionSpec(Family.CONCAVE_OVER_MODULAR, eta=0.5, psi="log1p", com_weights=(0.2, 0.8))]
    assert back.weights.tolist() == [0.25, 1.5]
    assert back.reg_strength == 2e-3 and back.metadata == {"task": "query"}
    # saved again, only the keys off their defaults are written
    back.save(path)
    assert json.loads(path.read_text())["components"][0] == {
        "family": "facility_location_1", "eta": 0.3, "nu": 1.7}


@pytest.mark.parametrize("text,error", [
    ("", FormatError),  # the file is missing
    ('{"components": [', FormatError),
    ("[1, 2]", FormatError),
    ('{"components": {"family": "sc"}}', FormatError),
    ('{"components": [{"lam": 2}], "weights": [1]}', ConfigError),
    ('{"components": [{"family": "sc", "lamb": 2}], "weights": [1]}', ConfigError),
    ('{"components": ["sc"], "weights": [1]}', ConfigError),
    ('{"components": [{"family": "sc", "lam": "x"}], "weights": [1]}', ConfigError),
    ('{"components": [{"family": "com", "com_weights": [1, 2, 3]}], "weights": [1]}', ConfigError),
    ('{"components": [{"family": "sc"}], "weights": ["x"]}', FormatError),
], ids=["missing", "malformed", "not_object", "components_not_list", "no_family",
        "misspelled_key", "spec_not_object", "non_numeric_param", "three_com_weights",
        "non_numeric_weight"])
def test_model_load_rejects_malformed_files(text, error, tmp_path):
    path = tmp_path / "model.json"
    if text:
        path.write_text(text)
    with pytest.raises(error):
        MixtureModel.load(path)


def test_training_example_validation():
    ctx, refs, Q = make_collection(101)
    with pytest.raises(ConfigError):
        TrainingExample(ctx, [], 4, Q=Q)
    with pytest.raises(ConfigError):
        TrainingExample(ctx, [(0, 99)], 4, Q=Q)  # index outside ground set
    with pytest.raises(ConfigError):
        TrainingExample(ctx, [(0, 1, 2, 3, 4)], 4, Q=Q)  # larger than budget
    with pytest.raises(ConfigError):
        TrainingExample(ctx, refs, 0, Q=Q)
    # every set under the index-set rule: integers only, kept sorted and unique
    for sets in ({"references": [(0, 1.5)]}, {"Q": (True,)}, {"P": ("1",)}, {"previous": (0.0,)}):
        with pytest.raises(ConfigError, match="flat collection of integers"):
            TrainingExample(ctx, **{"references": refs, "budget": 4, **sets})
    ex = TrainingExample(ctx, [np.array([2, 0, 2])], 4, Q=reversed(Q), previous=range(3))
    assert ex.references == [(0, 2)] and ex.Q == tuple(sorted(Q)) and ex.previous == (0, 1, 2)


def test_weight_gradient_is_exact(example):
    model = init_mixture(["sc", "gc", "fl1", "fl2"], seed=5)
    ref = example.references[0]
    sel = loss_augmented_inference(model, example, make_margin(example, "one_minus_vrouge", ref))
    yhat = tuple(sel.indices)
    grad = gradients(model, example, ref, yhat=yhat)
    for k, slot in enumerate(theta_slots(model)):
        if slot[0] != "w":
            continue
        i = slot[1]
        spec = model.components[i]
        fy = evaluate(spec, MeasureMode.SMI, example.ctx, yhat, example.Q, ())
        fr = evaluate(spec, MeasureMode.SMI, example.ctx, ref, example.Q, ())
        want = fy - fr + model.reg_strength * model.weights[i]
        assert grad[k] == pytest.approx(want, abs=1e-12)


def test_identical_sets_leave_only_regularizer(example):
    model = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=2)
    ref = example.references[0]
    grad = gradients(model, example, ref, yhat=tuple(ref))
    assert np.allclose(grad, model.reg_strength * pack_theta(model), atol=1e-12)


def test_finite_difference_gap_small(example):
    base = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=20)
    model = MixtureModel(base.components, base.weights + 0.1, reg_strength=base.reg_strength)
    assert finite_diff_check(model, example) < 1e-3


def test_finite_difference_gap_small_with_a_weight_at_zero(example):
    # train() projects weights onto the box, so a weight can sit at its bound 0
    base = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=20)
    weights = base.weights + 0.1
    weights[1] = 0.0
    model = MixtureModel(base.components, weights, reg_strength=base.reg_strength)
    assert finite_diff_check(model, example) < 1e-3


def test_zero_margin_matches_plain_greedy(example):
    model = init_mixture(["sc", "fl1"], seed=7)
    plain = summarize_with_mixture(model, example, Flavor.QUERY)
    zero = ScratchObjective(lambda Y: 0.0, example.ctx.n_ground)
    augmented = loss_augmented_inference(model, example, zero)
    assert augmented.indices == plain.indices


def test_vrouge_margin_state_gains_match_margin(example):
    """At every step, every candidate's state gain is l(Y + j) - l(Y), and
    the gains of the picks telescope from l(empty set) to l(Y)."""
    ref = example.references[0]
    margin = make_margin(example, "one_minus_vrouge", ref)
    state = margin.fresh_state()
    picked: list[int] = []
    total = margin(picked)
    for step in range(example.budget + 2):
        before = margin(picked)
        assert total == pytest.approx(before, abs=1e-12)
        rest = [j for j in range(example.ctx.n_ground) if j not in picked]
        got = state.gain(np.array(rest))
        for j, g in zip(rest, got):
            assert g == pytest.approx(margin(picked + [j]) - before, abs=1e-12)
        # alternate the most-overlapping pick (drives the counts into the
        # min with c_R) with an arbitrary one
        i = int(np.argmin(got)) if step % 2 == 0 else 7 * step % len(rest)
        total += got[i]
        state.add(rest[i])
        picked.append(rest[i])


@pytest.mark.parametrize("name", ["one_minus_vrouge", "zero_one"])
def test_loss_augmented_objective_value_is_mixture_plus_margin(name):
    """F + l read as one objective is mixture_eval plus the margin, and the
    exhaustive optimum of F + l is at least the value of the greedy's summary."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        ctx, Q, P = random_instance(rng, n_range=(5, 8))
        n = ctx.n_ground
        ex = TrainingExample(ctx, [tuple(rng.choice(n, size=2, replace=False).tolist())], 3, Q=Q)
        model = init_mixture(["sc", "gc", "fl1", "logdet"], seed=int(rng.integers(100)))
        margin = make_margin(ex, name, ex.references[0])
        obj = mixture_objective(model, ex, Flavor.QUERY, margin=margin)
        for Y in ((), ex.references[0], tuple(rng.choice(n, size=3, replace=False).tolist())):
            assert obj.value(Y) == pytest.approx(mixture_eval(model, Y, ex) + margin(Y), rel=0, abs=1e-12)
        best = brute_force_opt(obj, ex.budget)
        assert best.value == pytest.approx(obj.value(best.indices), rel=0, abs=1e-12)
        greedy = greedy_maximize(obj, ex.budget)
        assert best.value >= obj.value(greedy.indices) - 1e-12


def test_vrouge_margin_state_needs_concepts_and_reference_mass():
    no_concepts = TrainingExample(EvalContext(np.eye(4), 4, metric="dot"), [(0, 1)], 2)
    with pytest.raises(ConfigError, match="concept counts"):
        make_margin(no_concepts, "one_minus_vrouge", (0, 1)).fresh_state()
    with pytest.raises(ConfigError, match="concept counts"):
        hinge_loss(init_mixture(["gc"], seed=0), no_concepts, (0, 1))
    ctx, refs, Q = make_collection(102)
    empty = EvalContext(ctx.kernel, ctx.n_ground, counts=np.zeros_like(ctx.counts))
    with pytest.raises(ConfigError, match="zero weighted concept mass"):
        make_margin(TrainingExample(empty, refs, 4), "one_minus_vrouge", refs[0]).fresh_state()


def _margin_picks_match_from_scratch_margin(example, name, seed):
    """Loss-augmented inference with the incremental margin state against
    the same margin re-scored from scratch per candidate: (fast, slow) pairs."""
    model = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=seed)
    zero = MixtureModel(model.components, np.zeros(len(model.components)))  # margin ties only
    other = make_collection(103 + seed)
    other = TrainingExample(other[0], other[1], 4, Q=other[2])
    for m in (model, zero):
        for ex in (example, other):
            for ref in ex.references:
                margin = make_margin(ex, name, ref)
                slow = ScratchObjective(margin, ex.ctx.n_ground)
                yield loss_augmented_inference(m, ex, margin), loss_augmented_inference(m, ex, slow)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vrouge_margin_picks_match_from_scratch_margin(example, seed):
    for fast, slow in _margin_picks_match_from_scratch_margin(example, "one_minus_vrouge", seed):
        assert fast.indices == slow.indices
        assert fast.gains == pytest.approx(slow.gains, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_one_margin_picks_match_from_scratch_margin(example, seed):
    # the zero_one gains are -1, 0 or +1, so both paths add the same floats
    for fast, slow in _margin_picks_match_from_scratch_margin(example, "zero_one", seed):
        assert fast.indices == slow.indices
        assert fast.gains == slow.gains and fast.value == slow.value


def test_update_summary_never_picks_a_previous_item(example):
    # fl2 has no conditional gain, so in the mixture it runs as its base
    # function, which alone would pick the generic summary again
    model = init_mixture(["fl2"], seed=0)
    generic = summarize_with_mixture(model, example, Flavor.GENERIC).indices
    ex = TrainingExample(example.ctx, example.references, 4, Q=example.Q, previous=generic)
    for task in (Flavor.UPDATE, Flavor.QUERY_UPDATE):
        sel = summarize_with_mixture(model, ex, task)
        assert len(sel) == 4 and not set(generic) & set(sel.indices), task


def test_zero_weights_make_hinge_equal_margin(example):
    model = MixtureModel([FunctionSpec(Family.SET_COVER)], np.array([0.0]))
    ref = example.references[0]
    loss = hinge_loss(model, example, ref, "zero_one", Flavor.QUERY)
    assert loss == pytest.approx(1.0)  # greedy finds any non-reference set


def test_multi_reference_hinge_is_mean(example):
    model = init_mixture(["sc", "gc"], seed=3)
    cfg = TrainConfig(epochs=1)
    per_ref = [hinge_loss(model, example, ref, cfg.margin, cfg.task)
               for ref in example.references]
    assert example_hinge(model, example, cfg) == pytest.approx(float(np.mean(per_ref)))


def test_train_runs_and_projects(example):
    model0 = init_mixture(["sc", "gc", "fl1", "fl2"], seed=42)
    cfg = TrainConfig(epochs=3)
    trained = train([example], model0, cfg)
    assert np.all(trained.weights >= 0)
    for comp in trained.components:
        assert comp.lam >= 0 and comp.eta >= 0 and comp.nu >= 0
    trace = trained.metadata["loss_trace"]
    assert len(trace) == 3
    assert {"epoch", "mean_hinge", "mean_vrouge"} <= set(trace[0])


def test_train_keeps_logdet_parameters_in_unit_box():
    # eta/nu start at 1.0, the edge of the range where log-det's scaled kernel
    # stays definite; a projection onto >= 0 alone let one step leave it
    ctx, refs, Q = make_collection(3)
    ex = TrainingExample(ctx, refs, 4, Q=Q)
    trained = train([ex], init_mixture(["logdet"], seed=3), TrainConfig(epochs=4, lr=0.5))
    spec = trained.components[0]
    assert 0.0 <= spec.eta <= 1.0 and 0.0 <= spec.nu <= 1.0


def test_train_at_budget_one_without_concepts_logs_no_vrouge():
    """Budget 1 is the least an example takes; a collection with no concepts
    trains under the zero_one margin and leaves the V-ROUGE column blank."""
    ctx = random_instance(np.random.default_rng(7), n_range=(6, 6), concepts=False)[0]
    assert ctx.counts is None
    ex = TrainingExample(ctx, [(2,)], 1)
    cfg = TrainConfig(epochs=2, margin="zero_one", task="generic")
    rows = training_log_csv(train([ex], init_mixture(["gc", "logdet"], seed=5), cfg)).splitlines()
    assert rows[0] == "epoch,mean_hinge,mean_vrouge"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]
    assert all(r.endswith(",") for r in rows[1:])


def test_zero_learning_rate_freezes_theta(example):
    model0 = init_mixture(["sc", "gc"], seed=1)
    trained = train([example], model0, TrainConfig(epochs=2, lr=0.0))
    assert np.allclose(pack_theta(trained), pack_theta(model0))


def test_training_reduces_hinge():
    dataset = []
    for s in range(3):
        ctx, refs, Q = make_collection(100 + s)
        dataset.append(TrainingExample(ctx, refs, 4, Q=Q))
    model0 = init_mixture(["sc", "gc", "fl1", "fl2"], seed=42)
    cfg = TrainConfig(epochs=20)
    before = float(np.mean([example_hinge(model0, ex, cfg) for ex in dataset]))
    trained = train(dataset, model0, cfg)
    after = float(np.mean([example_hinge(trained, ex, cfg) for ex in dataset]))
    assert after <= before + 1e-9


def test_convex_in_weights_reaches_same_objective(example):
    # with no internal parameters the objective is convex in w
    cfg = TrainConfig(epochs=500, lr=0.02, momentum=0.9)

    def final_objective(seed):
        model0 = init_mixture(["sc", "rouge"], seed=seed)
        trained = train([example], model0, cfg)
        loss = example_hinge(trained, example, cfg)
        theta = pack_theta(trained)
        return loss + 0.5 * trained.reg_strength * float(theta @ theta)

    a = final_objective(11)
    b = final_objective(77)
    assert abs(a - b) < 1e-3


def test_divergence_raises_numeric_error(example):
    # finite and symmetric but indefinite: log-det fails to factor at epoch 1
    bad = np.full((4, 4), 2.0)
    np.fill_diagonal(bad, 1.0)
    ctx = EvalContext(bad, 3, metric="dot")
    ex = TrainingExample(ctx, [(0, 1)], 2, Q=(3,))
    model0 = MixtureModel([FunctionSpec(Family.LOG_DET)], np.array([1.0]))
    with pytest.raises(NumericError) as err:
        train([ex], model0, TrainConfig(epochs=2, margin="zero_one"))
    assert getattr(err.value, "last_model", None) is not None


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(margin="squared")
    assert TrainConfig(task="query").task is Flavor.QUERY


def test_summarize_with_mixture_tags_flavor(example):
    model = init_mixture(["fl1"], seed=0)
    sel = summarize_with_mixture(model, example, Flavor.QUERY)
    assert sel.flavor == "query"
    assert len(sel) == example.budget
    score = vrouge(sel.indices, example.references, example.ctx)
    assert score > 0.5
