"""Release acceptance suite.

Each test function is one gate; run with -v to get a per-gate pass/fail
line.  The gates: closed forms against the definitional oracle, sign and
growth properties with the conditioning identities, the greedy optimality
ratio against brute force, analytic gradients against central differences,
the count-overlap score identities, frozen seeded behavior studies, the
learned mixture against its single-component baselines, and the corpus
ingest path.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import relerr, seed_from
from submodsum.bench import (
    SyntheticConfig,
    behavior_metrics,
    make_collection,
    random_instance,
    rouge_q,
    summary_counts,
    synth_context,
    synth_generate,
    vrouge,
)
from submodsum.data import load_collection
from submodsum.functions import (
    EvalContext,
    Family,
    FunctionSpec,
    MeasureMode,
    definitional_oracle,
    evaluate,
    modes_supported,
    partials,
)
from submodsum.functions.api import near_kink
from submodsum.functions.oracle import conditioned_smi, smi_conditional_gain
from submodsum.learning import (
    MixtureModel,
    TrainConfig,
    TrainingExample,
    init_mixture,
    loss_augmented_inference,
    make_margin,
    mixture_eval,
    pack_theta,
    summarize_with_mixture,
    theta_slots,
    train,
    unpack_theta,
)
from submodsum.optimize import (
    Flavor,
    MeasureObjective,
    brute_force_opt,
    greedy_maximize,
    master_solve,
)

SMI_FAMILIES = [Family.SET_COVER, Family.PROB_SET_COVER, Family.GRAPH_CUT,
                Family.FACILITY_LOCATION_1, Family.FACILITY_LOCATION_2,
                Family.LOG_DET, Family.CONCAVE_OVER_MODULAR, Family.ROUGE]

# the released closed forms; the extra count-overlap conditioned modes are
# covered by the function-level suite
CLOSED_FORMS = [
    (Family.SET_COVER, MeasureMode.SMI),
    (Family.SET_COVER, MeasureMode.CG),
    (Family.SET_COVER, MeasureMode.CSMI),
    (Family.PROB_SET_COVER, MeasureMode.SMI),
    (Family.PROB_SET_COVER, MeasureMode.CG),
    (Family.PROB_SET_COVER, MeasureMode.CSMI),
    (Family.GRAPH_CUT, MeasureMode.SMI),
    (Family.GRAPH_CUT, MeasureMode.CG),
    (Family.FACILITY_LOCATION_1, MeasureMode.SMI),
    (Family.FACILITY_LOCATION_1, MeasureMode.CG),
    (Family.FACILITY_LOCATION_1, MeasureMode.CSMI),
    (Family.FACILITY_LOCATION_2, MeasureMode.SMI),
    (Family.LOG_DET, MeasureMode.SMI),
    (Family.LOG_DET, MeasureMode.CG),
    (Family.LOG_DET, MeasureMode.CSMI),
    (Family.ROUGE, MeasureMode.SMI),
    (Family.CONCAVE_OVER_MODULAR, MeasureMode.SMI),
]


def _draw_spec(rng, family):
    hi = 1.0 if family is Family.LOG_DET else 2.0
    return FunctionSpec(family, lam=float(rng.uniform(0.1, 1.0)),
                        eta=float(rng.uniform(0.0, hi)), nu=float(rng.uniform(0.0, hi)))


def _metric_for(family):
    return "cosine" if family in (Family.GRAPH_CUT, Family.LOG_DET) else "rbf"


def _draw_subset(rng, n, lo=1):
    size = int(rng.integers(lo, n + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


# ---------------------------------------------------------------------------
# gate 1: every closed form equals the definitional oracle


def test_a1_closed_forms_match_definitional_oracle():
    assert len(CLOSED_FORMS) == 17
    start = time.time()
    for family, mode in CLOSED_FORMS:
        rng = np.random.default_rng(seed_from(" ".join((family.value, mode.value))))
        metric = _metric_for(family)
        for _ in range(200):
            ctx, Q, P = random_instance(rng, metric=metric)
            spec = _draw_spec(rng, family)
            A = _draw_subset(rng, ctx.n_ground)
            got = evaluate(spec, mode, ctx, A, Q, P)
            want = definitional_oracle(spec, mode, ctx, A, Q, P)
            assert relerr(got, want) < 1e-8, (family, mode, A)
    assert time.time() - start < 30.0


# ---------------------------------------------------------------------------
# gate 2: sign/growth properties and the conditioning identities


def test_a2_measures_nonnegative_monotone_and_self_consistent():
    rng = np.random.default_rng(20260814)
    pool = [random_instance(rng, metric="rbf") for _ in range(1000)]
    for family in SMI_FAMILIES:
        frng = np.random.default_rng(seed_from(family.value + "growth"))
        for ctx, Q, P in pool:
            spec = _draw_spec(frng, family)
            A = _draw_subset(frng, ctx.n_ground, lo=0)
            if len(A) == ctx.n_ground:
                A = A[:-1]
            rest = [j for j in range(ctx.n_ground) if j not in A]
            j = int(frng.choice(rest))
            base_val = evaluate(spec, MeasureMode.SMI, ctx, A, Q)
            grown = evaluate(spec, MeasureMode.SMI, ctx, tuple(sorted(A + (j,))), Q)
            assert base_val >= -1e-9, (family, A, Q)
            assert grown - base_val >= -1e-9, (family, A, j, Q)

    csmi_families = [f for f in SMI_FAMILIES if MeasureMode.CSMI in modes_supported(f)]
    small = pool[:200]
    for family in csmi_families:
        frng = np.random.default_rng(seed_from(family.value + "faces"))
        for ctx, Q, P in small:
            spec = _draw_spec(frng, family)
            A = _draw_subset(frng, ctx.n_ground)
            joint = definitional_oracle(spec, MeasureMode.CSMI, ctx, A, Q, P)
            assert abs(joint - conditioned_smi(spec, ctx, A, Q, P)) < 1e-8
            assert abs(joint - smi_conditional_gain(spec, ctx, A, Q, P)) < 1e-8


# ---------------------------------------------------------------------------
# gate 3: greedy meets the (1 - 1/e) ratio against brute force

# monotone submodular pairwise-info forms carry the worst-case guarantee;
# the log-determinant form is a difference of submodular terms, so for it
# this is an empirical check on the frozen seeds rather than a theorem
RATIO_FAMILIES = [Family.SET_COVER, Family.PROB_SET_COVER, Family.GRAPH_CUT,
                  Family.FACILITY_LOCATION_1, Family.FACILITY_LOCATION_2,
                  Family.ROUGE, Family.CONCAVE_OVER_MODULAR, Family.LOG_DET]


def test_a3_greedy_meets_optimality_ratio_on_small_instances():
    ratio = 1.0 - 1.0 / np.e
    for family in RATIO_FAMILIES:
        rng = np.random.default_rng(seed_from(family.value + "ratio"))
        for _ in range(50):
            ctx, Q, P = random_instance(rng, n_range=(8, 12), metric="rbf")
            spec = _draw_spec(rng, family)
            k = int(rng.integers(1, 5))
            obj = MeasureObjective(spec, MeasureMode.SMI, ctx, Q=Q)
            greedy = greedy_maximize(obj, k)
            best = brute_force_opt(obj, k)
            assert greedy.value >= ratio * best.value - 1e-9, (family, k)
            if family is Family.GRAPH_CUT:
                # modular in the summary, so greedy is exactly optimal
                assert greedy.value == pytest.approx(best.value, abs=1e-9)


# ---------------------------------------------------------------------------
# gate 4: analytic gradients match central differences on smooth samples

PARTIAL_COMBOS = [
    (Family.GRAPH_CUT, MeasureMode.SMI, ("lam",)),
    (Family.GRAPH_CUT, MeasureMode.CG, ("lam", "nu")),
    (Family.FACILITY_LOCATION_1, MeasureMode.SMI, ("eta",)),
    (Family.FACILITY_LOCATION_1, MeasureMode.CG, ("nu",)),
    (Family.FACILITY_LOCATION_1, MeasureMode.CSMI, ("eta", "nu")),
    (Family.FACILITY_LOCATION_2, MeasureMode.SMI, ("eta",)),
    (Family.LOG_DET, MeasureMode.SMI, ("eta",)),
    (Family.LOG_DET, MeasureMode.CG, ("nu",)),
    (Family.LOG_DET, MeasureMode.CSMI, ("eta", "nu")),
    (Family.CONCAVE_OVER_MODULAR, MeasureMode.SMI, ("eta",)),
]


def _fd_partial(spec, mode, ctx, A, Q, P, key, h=1e-4):
    hi = dataclasses.replace(spec, **{key: getattr(spec, key) + h})
    lo = dataclasses.replace(spec, **{key: getattr(spec, key) - h})
    return (evaluate(hi, mode, ctx, A, Q, P) - evaluate(lo, mode, ctx, A, Q, P)) / (2.0 * h)


def _grad_close(a, num):
    # unit-floor relative error: factorization roundoff makes plain relative
    # error meaningless for gradients far below the evaluation scale
    return relerr(a, num) < 1e-4


def test_a4_analytic_gradients_match_central_differences():
    # per-family internal parameters, kinked draws excluded by detection
    for family, mode, keys in PARTIAL_COMBOS:
        rng = np.random.default_rng(seed_from(" ".join((family.value, mode.value, "fd"))))
        metric = _metric_for(family)
        checked = 0
        for _ in range(600):
            if checked >= 100:
                break
            ctx, Q, P = random_instance(rng, metric=metric)
            params = {k: float(rng.uniform(0.2, 0.9)) for k in ("lam", "eta", "nu")}
            spec = FunctionSpec(family, **params)
            A = _draw_subset(rng, ctx.n_ground)
            q = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else ()
            p = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else ()
            if near_kink(spec, mode, ctx, A, q, p, tol=1e-3):
                continue
            grads = partials(spec, mode, ctx, A, q, p)
            for key in keys:
                assert _grad_close(grads.get(key, 0.0),
                                   _fd_partial(spec, mode, ctx, A, q, p, key)), \
                    (family, mode, key, A)
            checked += 1
        assert checked == 100, (family, mode)

    # mixture weights: the loss is linear in w at frozen Y_hat, so central
    # differences must agree to far better than the tolerance
    ctx, refs, Q = make_collection(100)
    ex = TrainingExample(ctx, refs, 4, Q=Q)
    base = init_mixture(["sc", "gc", "fl1", "fl2", "logdet", "com"], seed=5)
    model = MixtureModel(base.components, base.weights + 0.1,
                         reg_strength=base.reg_strength)
    rng = np.random.default_rng(5)
    theta = pack_theta(model)
    slots = theta_slots(model)
    checked = 0
    for _ in range(20):
        ref = _draw_subset(rng, ctx.n_ground)[:4]
        margin_fn = make_margin(ex, "one_minus_vrouge", ref)
        yhat = tuple(loss_augmented_inference(model, ex, margin_fn).indices)

        def objective(vec):
            m = unpack_theta(model, vec)
            return (mixture_eval(m, yhat, ex) - mixture_eval(m, ref, ex)
                    + 0.5 * model.reg_strength * float(vec @ vec))

        for k, slot in enumerate(slots):
            if slot[0] != "w":
                continue
            i = slot[1]
            analytic = (mixture_eval(MixtureModel([model.components[i]], [1.0]), yhat, ex)
                        - mixture_eval(MixtureModel([model.components[i]], [1.0]), ref, ex)
                        + model.reg_strength * theta[k])
            step = np.zeros_like(theta)
            step[k] = 1e-5
            numeric = (objective(theta + step) - objective(theta - step)) / 2e-5
            assert _grad_close(analytic, numeric), slot
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# gate 5: count-overlap measures reduce to their direct formulas

_PSI = {"sqrt": np.sqrt, "log1p": np.log1p, "identity": lambda x: x}


def test_a5_count_overlap_identities():
    rng = np.random.default_rng(555)
    for _ in range(100):
        ctx, Q, P = random_instance(rng)
        A = _draw_subset(rng, ctx.n_ground)

        spec = FunctionSpec(Family.ROUGE)
        got = evaluate(spec, MeasureMode.SMI, ctx, A, Q)
        want = rouge_q(summary_counts(ctx, A), summary_counts(ctx, Q), ctx.concept_weights)
        assert abs(got - want) < 1e-10

        spec = FunctionSpec(Family.CONCAVE_OVER_MODULAR,
                            eta=float(rng.uniform(0.0, 2.0)),
                            psi=("sqrt", "log1p", "identity")[int(rng.integers(0, 3))],
                            com_weights=((0.3, 0.7) if rng.random() < 0.5 else None))
        got = evaluate(spec, MeasureMode.SMI, ctx, A, Q)
        idx = np.arange(ctx.size)
        X = np.where(idx[:, None] == idx, 1.0, 0.0)  # the dense cross-only kernel
        X[ctx.n_ground:, :ctx.n_ground] = ctx.cross
        X[:ctx.n_ground, ctx.n_ground:] = ctx.cross.T
        psi = _PSI[spec.psi]
        da, dq = spec.com_deltas()
        qrows = np.asarray(Q, dtype=int)
        arows = np.asarray(A, dtype=int)
        want = (dq * psi(X[np.ix_(qrows, arows)].sum(axis=1)).sum()
                + da * psi(X[np.ix_(arows, qrows)].sum(axis=1)).sum())
        assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# gate 6: frozen seeded behavior studies


def test_a6_seeded_behavior_studies():
    cfg = SyntheticConfig()
    ground, queries, privates = synth_generate(cfg)
    ctx = synth_context(cfg)
    gxy, qxy, pxy = ground.features, queries.features, privates.features
    Q = list(ctx.role_indices["query"])
    P = list(ctx.role_indices["private"])

    # pairwise graph-cut relevance: every pick lands at the supported query,
    # none at the unsupported one, so the min-coverage fairness count is zero
    sel = master_solve(Flavor.QUERY, FunctionSpec(Family.GRAPH_CUT, lam=0.5), ctx, 10, Q=Q)
    rep = behavior_metrics(sel, gxy, qxy, pxy)
    assert rep.query_match_count == [10, 0]
    assert rep.fairness == 0

    # saturating coverage: with no representation term the gains collapse
    # once each supported query is served, budget keeps filling regardless
    sel = master_solve(Flavor.QUERY, FunctionSpec(Family.FACILITY_LOCATION_2, eta=0.0),
                       ctx, 10, Q=Q)
    rep = behavior_metrics(sel, gxy, qxy, pxy)
    assert len(sel) == 10
    assert rep.saturation_step == 3

    sel = master_solve(Flavor.QUERY, FunctionSpec(Family.FACILITY_LOCATION_2, eta=0.2),
                       ctx, 5, Q=Q)
    rep = behavior_metrics(sel, gxy, qxy, pxy)
    assert rep.query_match_count == [5, 0]

    # privacy sweeps: violations fall to zero as the conditioning weight grows
    sweeps = [
        (FunctionSpec(Family.GRAPH_CUT, lam=0.5), "nu",
         [(0.0, 3), (1.0, 2), (5.0, 0), (10.0, 0)]),
        (FunctionSpec(Family.FACILITY_LOCATION_1), "nu",
         [(0.0, 3), (1.0, 1), (5.0, 0), (10.0, 0)]),
        (FunctionSpec(Family.LOG_DET), "nu",
         [(0.0, 1), (0.5, 1), (0.9, 0), (1.0, 0)]),
    ]
    for spec, param, expected in sweeps:
        for value, want in expected:
            run = dataclasses.replace(spec, **{param: value})
            sel = master_solve(Flavor.PRIVACY, run, ctx, 10, P=P)
            rep = behavior_metrics(sel, gxy, qxy, pxy)
            assert rep.privacy_violations == want, (spec.family, value)
        zero = dataclasses.replace(spec, **{param: expected[0][0]})
        top = dataclasses.replace(spec, **{param: expected[-1][0]})
        v0 = behavior_metrics(master_solve(Flavor.PRIVACY, zero, ctx, 10, P=P),
                              gxy, qxy, pxy).privacy_violations
        v1 = behavior_metrics(master_solve(Flavor.PRIVACY, top, ctx, 10, P=P),
                              gxy, qxy, pxy).privacy_violations
        assert v0 > 0 and v1 == 0


# ---------------------------------------------------------------------------
# gate 7: the learned mixture beats every single-component baseline


def test_a7_learned_mixture_beats_single_component_baselines():
    start = time.time()
    data = []
    for s in range(6):
        ctx, refs, Q = make_collection(100 + s)
        data.append(TrainingExample(ctx, refs, 4, Q=Q))
    families = ["sc", "gc", "fl1", "fl2"]

    baselines = {}
    for fam in families:
        single = init_mixture([fam], seed=42)
        scores = [vrouge(summarize_with_mixture(single, ex).indices, ex.references, ex.ctx)
                  for ex in data]
        baselines[fam] = float(np.mean(scores))

    held_out = []
    for i in range(len(data)):
        fold = [ex for j, ex in enumerate(data) if j != i]
        model = train(fold, init_mixture(families, seed=42), TrainConfig())
        held_out.append(vrouge(summarize_with_mixture(model, data[i]).indices,
                               data[i].references, data[i].ctx))
    trained = float(np.mean(held_out))

    for fam, score in baselines.items():
        assert trained >= score, (fam, score, trained)
    assert time.time() - start < 300.0


# ---------------------------------------------------------------------------
# gate 8: corpus ingest path


def test_a8_corpus_ingest_path(tmp_path):
    """Absolute benchmark scores from the original evaluation corpus are not
    reproducible here because that corpus is not redistributable; this gate
    instead drives the full ingest path on a bundled sample in the same
    format, with the numeric and behavioral gates above standing in for the
    absolute numbers."""
    doc = {
        "items": [
            {"id": f"s{i}", "features": [float(np.cos(i)), float(np.sin(i))],
             "concepts": {f"c{i % 3}": 1 + i % 2, "bg": 1},
             "coverage": {f"c{i % 3}": 0.6}}
            for i in range(10)
        ],
        "queries": [{"id": "q0", "features": [1.0, 0.0], "concepts": {"c0": 2}}],
        "privates": [{"id": "p0", "features": [0.0, 1.0], "concepts": {"c1": 1}}],
        "references": [["s0", "s1", "s2"], ["s0", "s2", "s4"]],
        "concept_universe": {"concepts": ["c0", "c1", "c2", "bg"],
                             "weights": [1.0, 1.0, 1.0, 0.25]},
    }
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(doc))

    coll = load_collection(path)
    assert len(coll.ground) == 10
    assert coll.references == [("s0", "s1", "s2"), ("s0", "s2", "s4")]
    ctx = EvalContext.build(coll.ground, coll.aux_sets, metric="rbf", sigma=1.5,
                            universe=coll.universe)
    assert ctx.counts.shape == (12, 4)
    assert ctx.kernel.shape == (12, 12)
    assert list(ctx.concept_weights) == [1.0, 1.0, 1.0, 0.25]

    sel = master_solve(Flavor.QUERY_PRIVACY, FunctionSpec(Family.FACILITY_LOCATION_1),
                       ctx, 3, Q=ctx.role_indices["query"], P=ctx.role_indices["private"])
    assert len(sel) == 3
    refs = [tuple(coll.ground.index_of(i) for i in ref) for ref in coll.references]
    score = vrouge(sel.indices, refs, ctx)
    assert 0.0 <= score <= 1.0
