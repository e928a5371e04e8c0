import numpy as np
import pytest

from submodsum.bench import make_collection, vrouge
from submodsum.errors import ConfigError, NumericError
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
    pack_theta,
    summarize_with_mixture,
    theta_slots,
    train,
)
from submodsum.optimize import Flavor


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


def test_zero_margin_matches_plain_greedy(example):
    model = init_mixture(["sc", "fl1"], seed=7)
    plain = summarize_with_mixture(model, example, Flavor.QUERY)
    augmented = loss_augmented_inference(model, example, lambda Y: 0.0)
    assert augmented.indices == plain.indices


def test_vrouge_margin_state_gains_match_margin(example):
    """At every step, every candidate's state gain is l(Y + j) - l(Y)."""
    ref = example.references[0]
    margin = make_margin(example, "one_minus_vrouge", ref)
    state = margin.fresh_state()
    picked: list[int] = []
    for step in range(example.budget + 2):
        before = margin(picked)
        assert state.value == pytest.approx(before, abs=1e-12)
        rest = [j for j in range(example.ctx.n_ground) if j not in picked]
        for j in rest:
            assert state.gain(j) == pytest.approx(margin(picked + [j]) - before, abs=1e-12)
        # alternate the most-overlapping pick (drives the counts into the
        # min with c_R) with an arbitrary one
        j = min(rest, key=state.gain) if step % 2 == 0 else rest[7 * step % len(rest)]
        state.add(j)
        picked.append(j)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vrouge_margin_picks_match_from_scratch_margin(example, seed):
    """Loss-augmented inference picks the same items with the incremental
    margin state as with the margin re-scored from scratch per candidate."""
    model = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=seed)
    zero = MixtureModel(model.components, np.zeros(len(model.components)))  # margin ties only
    other = make_collection(103 + seed)
    other = TrainingExample(other[0], other[1], 4, Q=other[2])
    for m in (model, zero):
        for ex in (example, other):
            for ref in ex.references:
                margin = make_margin(ex, "one_minus_vrouge", ref)
                fast = loss_augmented_inference(m, ex, margin)
                slow = loss_augmented_inference(m, ex, lambda Y, margin=margin: margin(Y))
                assert fast.indices == slow.indices
                assert fast.gains == pytest.approx(slow.gains, abs=1e-12)


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
    bad = np.full((4, 4), np.nan)
    ctx = EvalContext(bad, 3, metric="dot")
    ex = TrainingExample(ctx, [(0, 1)], 2, Q=(3,))
    model0 = MixtureModel([FunctionSpec(Family.GRAPH_CUT)], np.array([1.0]))
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
