import dataclasses

import numpy as np
import pytest

from conftest import concept_ctx, pair_ctx, psd_ctx, relerr, seed_from, with_copies
from submodsum.bench import random_instance
from submodsum.errors import ConfigError, NumericError, UnsupportedError
from submodsum.functions import (
    Family,
    FunctionSpec,
    MeasureMode,
    definitional_oracle,
    evaluate,
    make_state,
    modes_supported,
    parse_family,
    partials,
)
from submodsum.functions.api import eval_base, near_kink
from submodsum.functions.logdet import GrowingCholesky
from submodsum.functions.oracle import conditioned_smi, smi_conditional_gain
from submodsum.optimize import Flavor, master_solve

ALL_SMI = [Family.SET_COVER, Family.PROB_SET_COVER, Family.GRAPH_CUT,
           Family.FACILITY_LOCATION_1, Family.FACILITY_LOCATION_2, Family.LOG_DET,
           Family.CONCAVE_OVER_MODULAR, Family.ROUGE]
ALL_CSMI = [f for f in ALL_SMI if MeasureMode.CSMI in modes_supported(f)]


# ---------------------------------------------------------------------------
# hand-checked values


def test_set_cover_hand_values():
    ctx = concept_ctx()
    sc = FunctionSpec(Family.SET_COVER)
    assert eval_base(sc, (0, 1), ctx) == pytest.approx(3.0)
    assert evaluate(sc, MeasureMode.SMI, ctx, (0,), (2,)) == pytest.approx(1.0)
    assert evaluate(sc, MeasureMode.CG, ctx, (0,), P=(3,)) == pytest.approx(1.0)
    assert evaluate(sc, MeasureMode.CSMI, ctx, (0,), (2,), (3,)) == pytest.approx(0.0)


def test_graph_cut_hand_values():
    smi_ctx = pair_ctx(0.5)
    gc = FunctionSpec(Family.GRAPH_CUT, lam=1.0)
    assert evaluate(gc, MeasureMode.SMI, smi_ctx, (0,), (1,)) == pytest.approx(1.0)
    assert definitional_oracle(gc, MeasureMode.SMI, smi_ctx, (0,), (1,)) == pytest.approx(1.0)

    cg_ctx = pair_ctx(0.4)
    gc2 = FunctionSpec(Family.GRAPH_CUT, lam=1.0, nu=2.0)
    assert eval_base(gc2, (0,), cg_ctx) == pytest.approx(0.0)
    assert evaluate(gc2, MeasureMode.CG, cg_ctx, (0,), P=(1,)) == pytest.approx(-1.6)


def test_facility_location_hand_values():
    ctx = pair_ctx(0.7)
    fl2 = FunctionSpec(Family.FACILITY_LOCATION_2, eta=1.0)
    assert evaluate(fl2, MeasureMode.SMI, ctx, (0,), (1,)) == pytest.approx(1.4)
    fl1 = FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.5)
    assert evaluate(fl1, MeasureMode.SMI, ctx, (0,), (1,)) == pytest.approx(0.35)


def test_logdet_zero_cross_block_gives_zero_smi():
    kernel = np.eye(4)
    kernel[0, 1] = kernel[1, 0] = 0.3  # within-ground correlation only
    from submodsum.functions import EvalContext

    ctx = EvalContext(kernel, 2, metric="dot", jitter=0.0)
    ld = FunctionSpec(Family.LOG_DET, eta=1.0)
    assert evaluate(ld, MeasureMode.SMI, ctx, (0, 1), (2, 3)) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# degenerate sets and normalization


@pytest.mark.parametrize("family", list(Family))
def test_empty_set_is_zero(family, rng):
    ctx, Q, P = random_instance(rng)
    assert eval_base(FunctionSpec(family), (), ctx) == 0.0


@pytest.mark.parametrize("family", ALL_SMI)
def test_degenerate_conditioning(family, rng):
    ctx, Q, P = random_instance(rng)
    spec = FunctionSpec(family, lam=0.5, eta=0.7, nu=0.6)
    A = (0, 2)
    assert evaluate(spec, MeasureMode.SMI, ctx, A, ()) == 0.0
    assert evaluate(spec, MeasureMode.SMI, ctx, (), Q) == 0.0
    assert make_state(spec, MeasureMode.SMI, ctx, Q=()).gain(0) == 0.0
    if MeasureMode.CG in modes_supported(family):
        assert evaluate(spec, MeasureMode.CG, ctx, A, P=()) == pytest.approx(
            eval_base(spec, A, ctx))
        assert evaluate(spec, MeasureMode.CG, ctx, (), P=P) == 0.0
        assert make_state(spec, MeasureMode.CG, ctx, P=()).gain(0) == pytest.approx(
            eval_base(spec, (0,), ctx))
    if MeasureMode.CSMI in modes_supported(family):
        assert evaluate(spec, MeasureMode.CSMI, ctx, A, Q, ()) == pytest.approx(
            evaluate(spec, MeasureMode.SMI, ctx, A, Q))
        assert evaluate(spec, MeasureMode.CSMI, ctx, A, (), P) == 0.0
        assert make_state(spec, MeasureMode.CSMI, ctx, Q=Q, P=()).gain(0) == pytest.approx(
            evaluate(spec, MeasureMode.SMI, ctx, (0,), Q))


def test_unsupported_modes_raise(rng):
    ctx, Q, P = random_instance(rng)
    with pytest.raises(UnsupportedError):
        evaluate(FunctionSpec(Family.GRAPH_CUT), MeasureMode.CSMI, ctx, (0,), Q, P)
    with pytest.raises(UnsupportedError):
        evaluate(FunctionSpec(Family.FACILITY_LOCATION_2), MeasureMode.CG, ctx, (0,), P=P)
    with pytest.raises(UnsupportedError):
        evaluate(FunctionSpec(Family.DISPARITY_SUM), MeasureMode.SMI, ctx, (0,), Q)


def test_overlapping_sets_rejected(rng):
    ctx, Q, P = random_instance(rng)
    with pytest.raises(ConfigError):
        evaluate(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, (0, 1), (1,))


# ---------------------------------------------------------------------------
# context views


_VIEWS = {"nonneg", "cross_nonneg"}


@pytest.mark.parametrize("alias, built", [
    ("sc", set()), ("rouge", set()), ("gc", set()), ("fl1", {"nonneg"}),
    ("fl2", {"cross_nonneg"}), ("logdet", set()),
])
def test_solve_builds_only_the_views_it_reads(alias, built):
    ctx = concept_ctx()
    master_solve(Flavor.QUERY, FunctionSpec(parse_family(alias)), ctx, 1,
                 Q=ctx.role_indices["query"])
    assert _VIEWS & set(vars(ctx)) == built


def test_copy_with_kernel_drops_cached_views(rng):
    ctx, Q, P = random_instance(rng)
    ctx.nonneg  # random_instance already built cross_nonneg
    moved = ctx.copy_with(kernel=ctx.kernel * 0.5)
    assert not _VIEWS & set(vars(moved))
    np.testing.assert_array_equal(moved.nonneg, ctx.kernel * 0.5)  # rbf: nonneg is the kernel


@pytest.mark.parametrize("family, view", [
    (Family.FACILITY_LOCATION_1, "nonneg"), (Family.LOG_DET, "kernel"),
])
def test_copy_with_view_is_what_the_oracle_sees(family, view, rng):
    ctx, Q, P = random_instance(rng)
    swapped = ctx.copy_with(**{view: 0.5 * getattr(ctx, view) + 0.1 * np.eye(ctx.size)})
    spec = FunctionSpec(family, eta=0.6, nu=0.4)
    A = (0, 1)
    got = evaluate(spec, MeasureMode.CSMI, swapped, A, Q, P)
    assert got != pytest.approx(evaluate(spec, MeasureMode.CSMI, ctx, A, Q, P))
    assert relerr(got, definitional_oracle(spec, MeasureMode.CSMI, swapped, A, Q, P)) < 1e-8


def test_parse_family_aliases():
    assert parse_family("fl1") is Family.FACILITY_LOCATION_1
    assert parse_family("log-det") is Family.LOG_DET
    assert parse_family("Graph_Cut") is Family.GRAPH_CUT
    with pytest.raises(ConfigError):
        parse_family("unknown")


def test_spec_validation():
    with pytest.raises(ConfigError):
        FunctionSpec(Family.SET_COVER, eta=-0.1)
    with pytest.raises(ConfigError):
        FunctionSpec(Family.CONCAVE_OVER_MODULAR, psi="cbrt")
    spec = FunctionSpec(Family.CONCAVE_OVER_MODULAR, eta=0.3)
    assert spec.com_deltas() == (0.3, 1.0)
    assert FunctionSpec(Family.CONCAVE_OVER_MODULAR, com_weights=(0.2, 0.8)).com_deltas() == (0.2, 0.8)


# ---------------------------------------------------------------------------
# closed forms against the definitional oracle


def _draw_spec(rng, family):
    hi = 1.0 if family is Family.LOG_DET else 2.0
    return FunctionSpec(family, lam=float(rng.uniform(0.1, 1.0)),
                        eta=float(rng.uniform(0.0, hi)), nu=float(rng.uniform(0.0, hi)))


@pytest.mark.parametrize("family", ALL_SMI)
def test_closed_forms_match_oracle(family):
    rng = np.random.default_rng(seed_from(family.value))
    metric = "cosine" if family in (Family.GRAPH_CUT, Family.LOG_DET) else "rbf"
    for _ in range(30):
        ctx, Q, P = random_instance(rng, metric=metric)
        spec = _draw_spec(rng, family)
        size = int(rng.integers(1, ctx.n_ground + 1))
        A = tuple(sorted(rng.choice(ctx.n_ground, size=size, replace=False).tolist()))
        for mode in (MeasureMode.SMI, MeasureMode.CG, MeasureMode.CSMI):
            if mode not in modes_supported(family):
                continue
            got = evaluate(spec, mode, ctx, A, Q, P)
            want = definitional_oracle(spec, mode, ctx, A, Q, P)
            assert relerr(got, want) < 1e-8, (family, mode, got, want)


def test_argument_order_is_irrelevant(rng):
    ctx, Q, P = random_instance(rng, n_range=(6, 8))
    for family in ALL_SMI:
        spec = _draw_spec(rng, family)
        v1 = evaluate(spec, MeasureMode.SMI, ctx, (0, 3, 1), Q)
        v2 = evaluate(spec, MeasureMode.SMI, ctx, (3, 1, 0), Q)
        assert v1 == pytest.approx(v2, abs=1e-12)


# ---------------------------------------------------------------------------
# conditioning identities and growth properties


@pytest.mark.parametrize("family", ALL_CSMI)
def test_csmi_equals_both_shifted_faces(family):
    rng = np.random.default_rng(seed_from(family.value + "identity"))
    for _ in range(25):
        ctx, Q, P = random_instance(rng)
        spec = _draw_spec(rng, family)
        A = tuple(sorted(rng.choice(ctx.n_ground, size=2, replace=False).tolist()))
        joint = definitional_oracle(spec, MeasureMode.CSMI, ctx, A, Q, P)
        assert abs(joint - conditioned_smi(spec, ctx, A, Q, P)) < 1e-8
        assert abs(joint - smi_conditional_gain(spec, ctx, A, Q, P)) < 1e-8


@pytest.mark.parametrize("family", ALL_SMI)
def test_smi_nonnegative_and_monotone(family):
    rng = np.random.default_rng(seed_from(family.value + "sign"))
    for _ in range(60):
        ctx, Q, P = random_instance(rng, metric="rbf")
        spec = _draw_spec(rng, family)
        size = int(rng.integers(0, ctx.n_ground))
        A = tuple(sorted(rng.choice(ctx.n_ground, size=size, replace=False).tolist()))
        rest = [j for j in range(ctx.n_ground) if j not in A]
        j = int(rng.choice(rest))
        base_val = evaluate(spec, MeasureMode.SMI, ctx, A, Q)
        grown = evaluate(spec, MeasureMode.SMI, ctx, tuple(sorted(A + (j,))), Q)
        assert base_val >= -1e-9
        assert grown - base_val >= -1e-9


def test_restricted_submodularity_of_count_families(rng):
    # gains along ground-only chains shrink as the selection grows
    for family in (Family.ROUGE, Family.CONCAVE_OVER_MODULAR):
        for _ in range(20):
            ctx, Q, P = random_instance(rng, n_range=(5, 8))
            spec = _draw_spec(rng, family)
            small = (0,)
            big = (0, 1, 2)
            j = 4
            gain_small = (evaluate(spec, MeasureMode.SMI, ctx, small + (j,), Q)
                          - evaluate(spec, MeasureMode.SMI, ctx, small, Q))
            gain_big = (evaluate(spec, MeasureMode.SMI, ctx, big + (j,), Q)
                        - evaluate(spec, MeasureMode.SMI, ctx, big, Q))
            assert gain_small >= gain_big - 1e-9


# ---------------------------------------------------------------------------
# incremental states


@pytest.mark.parametrize("family", list(Family))
def test_states_track_evaluate(family):
    rng = np.random.default_rng(seed_from(family.value + "state"))
    for _ in range(10):
        ctx, Q, P = random_instance(rng, n_range=(5, 8))
        spec = _draw_spec(rng, family)
        for mode in modes_supported(family):
            state = make_state(spec, mode, ctx, Q=Q, P=P)
            order = rng.permutation(ctx.n_ground)[:4]
            picked = []
            for j in order:
                g = state.gain(int(j))
                added = state.add(int(j))
                assert g == pytest.approx(added, abs=1e-10)
                picked.append(int(j))
                want = evaluate(spec, mode, ctx, tuple(sorted(picked)), Q, P)
                assert state.value == pytest.approx(want, abs=1e-8)


FAMILY_MODES = [(f, m) for f in Family for m in MeasureMode if m in modes_supported(f)]


@pytest.mark.parametrize("family,mode", FAMILY_MODES, ids=lambda v: v.value)
def test_state_gains_match_from_scratch(family, mode):
    """Every remaining candidate's state gain equals the closed-form
    difference at every step, over 8 picks (eta/nu scale the cross pairs)."""
    rng = np.random.default_rng(seed_from(f"{family.value}-{mode.value}-gains"))
    if family is Family.LOG_DET:  # a well-conditioned kernel keeps factorizations exact
        n = 14
        ctx = psd_ctx(rng, n + 6, n_ground=n)
        Q, P = (n, n + 1, n + 2), (n + 3, n + 4, n + 5)
    else:
        ctx, Q, P = random_instance(rng, n_range=(12, 12))
        n = ctx.n_ground
    spec = FunctionSpec(family, lam=0.4, eta=0.7, nu=0.6)
    state = make_state(spec, mode, ctx, Q=Q, P=P)
    picked: list[int] = []
    before = 0.0
    for step in range(8):
        rest = [j for j in range(n) if j not in picked]
        for j in rest:
            want = evaluate(spec, mode, ctx, picked + [j], Q, P) - before
            assert state.gain(j) == pytest.approx(want, abs=1e-9), (step, j)
        j = rest[(5 * step) % len(rest)]
        state.add(j)
        picked.append(j)
        before = evaluate(spec, mode, ctx, picked, Q, P)
        assert state.value == pytest.approx(before, abs=1e-9)


@pytest.mark.parametrize("mode", list(MeasureMode), ids=lambda m: m.value)
def test_fl1_gains_across_row_blocks(mode):
    """Enough ground rows for several row blocks, a short last block and
    more than one sweep per refresh; every candidate checked at every step."""
    rng = np.random.default_rng(seed_from(f"fl1-blocks-{mode.value}"))
    ctx, Q, P = random_instance(rng, n_range=(410, 410), concepts=False)
    spec = FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.7, nu=0.6)
    state = make_state(spec, mode, ctx, Q=Q, P=P)
    picked: list[int] = []
    for step in range(6):
        before = evaluate(spec, mode, ctx, picked, Q, P)
        rest = [j for j in range(ctx.n_ground) if j not in picked]
        want = [evaluate(spec, mode, ctx, picked + [j], Q, P) - before for j in rest]
        assert state.gains[rest] == pytest.approx(want, abs=1e-9), step
        state.add(rest[(37 * step) % len(rest)])
        picked.append(rest[(37 * step) % len(rest)])


@pytest.mark.parametrize("family", [Family.SET_COVER, Family.FACILITY_LOCATION_1, Family.ROUGE])
def test_duplicate_of_a_pick_reads_exact_zero(family, rng):
    """A copy ties exactly with its original, and once the original is
    picked the copy moves no row or concept and reads exactly 0.0, not a
    rounding residue."""
    ctx = with_copies(random_instance(rng, n_range=(8, 8))[0], [3], [3])
    copy, query = ctx.n_ground - 1, ctx.n_ground
    # rouge's base measure is modular over the ground set (a copy adds its
    # counts again), so its zero shows against a query holding those counts
    mode = MeasureMode.SMI if family is Family.ROUGE else MeasureMode.BASE
    state = make_state(FunctionSpec(family), mode, ctx, Q=(query,))
    for j in (0, 5):
        state.add(j)
    assert state.gain(copy) == state.gain(3)
    state.add(3)
    assert state.gain(copy) == 0.0


def test_logdet_add_rejects_nonpositive_schur_complement():
    ctx = pair_ctx(2.0, n_ground=2)  # [[1, 2], [2, 1]] is indefinite
    state = make_state(FunctionSpec(Family.LOG_DET), MeasureMode.BASE, ctx)
    state.add(0)
    with pytest.raises(NumericError):
        state.add(1)
    chol = GrowingCholesky(ctx.kernel, ctx.jitter)
    chol.push(0)
    assert chol.quad(1) < 0
    with pytest.raises(NumericError):
        chol.push(1)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
@pytest.mark.parametrize("factor", ["pos", "neg"])
def test_logdet_array_read_rejects_nonpositive_schur_complement(rng, factor, bad):
    ctx, Q, P = random_instance(rng, n_range=(6, 6))
    state = make_state(FunctionSpec(Family.LOG_DET), MeasureMode.SMI, ctx, Q=Q)
    cands = np.arange(ctx.n_ground)
    state.gain(cands)
    getattr(state, factor).d2[3] = bad
    with pytest.raises(NumericError):
        state.gain(cands)
    with pytest.raises(NumericError):
        state.gain(3)
    assert np.all(np.isfinite(state.gain(np.delete(cands, 3))))


# ---------------------------------------------------------------------------
# parameter gradients


def test_partials_match_finite_differences(rng):
    combos = [
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
    h = 1e-4
    for family, mode, keys in combos:
        checked = 0
        guard = 0
        while checked < 10 and guard < 60:
            guard += 1
            ctx, Q, P = random_instance(rng)
            spec = FunctionSpec(family, lam=float(rng.uniform(0.2, 1.0)),
                                eta=float(rng.uniform(0.2, 0.9)),
                                nu=float(rng.uniform(0.2, 0.9)))
            A = tuple(sorted(rng.choice(ctx.n_ground, size=2, replace=False).tolist()))
            if near_kink(spec, mode, ctx, A, Q, P):
                continue
            grads = partials(spec, mode, ctx, A, Q, P)
            for key in keys:
                up = dataclasses.replace(spec, **{key: getattr(spec, key) + h})
                dn = dataclasses.replace(spec, **{key: getattr(spec, key) - h})
                num = (evaluate(up, mode, ctx, A, Q, P) - evaluate(dn, mode, ctx, A, Q, P)) / (2 * h)
                a = grads.get(key, 0.0)
                assert relerr(a, num) < 1e-4, (family, mode, key, a, num)
            checked += 1
        assert checked == 10


def test_fl1_partials_match_finite_differences_on_dot_kernels():
    """Negative similarities put a cap below the 0 an empty column max reads."""
    from submodsum.functions import EvalContext

    fl1 = Family.FACILITY_LOCATION_1
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]])
    ctx = EvalContext(feats @ feats.T, 2, metric="dot")
    spec = FunctionSpec(fl1, eta=0.5)
    assert evaluate(spec, MeasureMode.SMI, ctx, (0,), (2,)) == pytest.approx(-0.75)
    assert partials(spec, MeasureMode.SMI, ctx, (0,), (2,))["eta"] == pytest.approx(-1.5)

    rng = np.random.default_rng(seed_from("fl1 dot partials"))
    h = 1e-6
    checked = 0
    for _ in range(400):
        n, naux = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        feats = rng.normal(size=(n + naux, 2))
        ctx = EvalContext(feats @ feats.T, n, metric="dot")
        A = (0,)
        aux = list(range(n, n + naux))
        Q, P = aux[:1] + ([1] if rng.random() < 0.5 else []), aux[1:]
        spec = FunctionSpec(fl1, eta=float(rng.uniform(0.2, 0.9)), nu=float(rng.uniform(0.2, 0.9)))
        for mode in (MeasureMode.SMI, MeasureMode.CG, MeasureMode.CSMI):
            if near_kink(spec, mode, ctx, A, Q, P):
                continue
            grads = partials(spec, mode, ctx, A, Q, P)
            for key in ("eta", "nu"):
                up = dataclasses.replace(spec, **{key: getattr(spec, key) + h})
                dn = dataclasses.replace(spec, **{key: getattr(spec, key) - h})
                num = (evaluate(up, mode, ctx, A, Q, P) - evaluate(dn, mode, ctx, A, Q, P)) / (2 * h)
                assert relerr(grads.get(key, 0.0), num) < 1e-6, (mode, key, grads, num)
            checked += 1
    assert checked > 1000


def test_near_kink_detects_tie():
    # one ground, one query item with amax exactly at eta * qmax
    ctx = pair_ctx(0.5)
    spec = FunctionSpec(Family.FACILITY_LOCATION_1, eta=2.0)  # eta*qmax = 1.0 = amax
    assert near_kink(spec, MeasureMode.SMI, ctx, (0,), (1,))
    assert not near_kink(FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.5),
                         MeasureMode.SMI, ctx, (0,), (1,))
