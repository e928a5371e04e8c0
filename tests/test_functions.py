import dataclasses
import itertools

import numpy as np
import pytest

from conftest import concept_ctx, pair_ctx, psd_ctx, relerr, seed_from, with_copies
from submodsum.bench import random_instance, vrouge, with_ground_members
from submodsum.errors import ConfigError, NumericError, UnsupportedError
from submodsum.functions import (
    REGISTRY,
    EvalContext,
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
from submodsum.functions._common import as_indices
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
    assert make_state(spec, MeasureMode.SMI, ctx, Q=()).gain(np.array([0]))[0] == 0.0
    if MeasureMode.CG in modes_supported(family):
        assert evaluate(spec, MeasureMode.CG, ctx, A, P=()) == pytest.approx(
            eval_base(spec, A, ctx))
        assert evaluate(spec, MeasureMode.CG, ctx, (), P=P) == 0.0
        assert make_state(spec, MeasureMode.CG, ctx, P=()).gain(np.array([0]))[0] == pytest.approx(
            eval_base(spec, (0,), ctx))
    if MeasureMode.CSMI in modes_supported(family):
        assert evaluate(spec, MeasureMode.CSMI, ctx, A, Q, ()) == pytest.approx(
            evaluate(spec, MeasureMode.SMI, ctx, A, Q))
        assert evaluate(spec, MeasureMode.CSMI, ctx, A, (), P) == 0.0
        assert make_state(spec, MeasureMode.CSMI, ctx, Q=Q, P=()).gain(np.array([0]))[0] == pytest.approx(
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
# context: one kernel, one cross block


@pytest.mark.parametrize("alias", ["sc", "rouge", "gc", "fl1", "fl2", "logdet", "com"])
def test_solve_leaves_the_context_as_built(alias):
    """A solve adds nothing to the context, whose only N x N array is its kernel."""
    ctx = concept_ctx()
    before = dict(vars(ctx))
    master_solve(Flavor.QUERY, FunctionSpec(parse_family(alias)), ctx, 1,
                 Q=ctx.role_indices["query"])
    assert vars(ctx).keys() == before.keys()
    assert all(vars(ctx)[k] is v for k, v in before.items())
    assert [k for k, v in vars(ctx).items() if np.shape(v) == (ctx.size, ctx.size)] == ["kernel"]


def test_copy_with_builds_cross_again_unless_given(rng):
    ctx, Q, P = random_instance(rng)
    n = ctx.n_ground
    moved = ctx.copy_with(kernel=ctx.kernel * 0.5)
    np.testing.assert_array_equal(moved.cross, ctx.kernel[n:, :n] * 0.5)  # rbf maps nothing
    fixed = ctx.copy_with(cross=ctx.cross * 0.5)
    assert fixed.kernel is ctx.kernel
    np.testing.assert_array_equal(fixed.cross, ctx.cross * 0.5)
    with pytest.raises(ConfigError, match="cross must have shape"):
        ctx.copy_with(cross=np.ones((1, 1)))


@pytest.mark.parametrize("family, field", [
    (Family.FACILITY_LOCATION_1, "kernel"), (Family.LOG_DET, "kernel"), (Family.CONCAVE_OVER_MODULAR, "cross"),
])
def test_copy_with_view_is_what_the_oracle_sees(family, field, rng):
    ctx, Q, P = random_instance(rng)
    old = getattr(ctx, field)
    swapped = ctx.copy_with(**{field: 0.5 * old + (0.1 * np.eye(ctx.size) if field == "kernel" else 0.0)})
    spec = FunctionSpec(family, eta=0.6, nu=0.4)
    A = (0, 1)
    got = evaluate(spec, MeasureMode.CSMI, swapped, A, Q, P)
    assert got != pytest.approx(evaluate(spec, MeasureMode.CSMI, ctx, A, Q, P))
    assert relerr(got, definitional_oracle(spec, MeasureMode.CSMI, swapped, A, Q, P)) < 1e-8


@pytest.mark.parametrize("kernel", [
    np.full((3, 3), np.nan),
    np.array([[1.0, 0.9, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[1.0, np.inf, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]),
], ids=["nan", "asymmetric", "infinite"])
def test_context_rejects_a_kernel_that_is_not_finite_and_symmetric(kernel):
    """No measure reads a bare kernel that is not finite and exactly
    symmetric: the cross block stands for both cross directions."""
    with pytest.raises(ConfigError, match="finite and symmetric"):
        EvalContext(kernel, 2, metric="dot")


def test_copy_that_keeps_the_kernel_does_not_check_it_again(rng):
    """The kernel was checked when the context was built; a copy that keeps
    it shares it unchecked, so an entry written after the check shows
    through, while a bare kernel handed to a copy is checked."""
    ctx = random_instance(rng)[0]
    ctx.kernel[0, 1] = np.nan
    for kw in ({}, {"ids": tuple(f"x{i}" for i in range(ctx.size))}, {"cross": ctx.cross}, {"jitter": 1e-3}):
        assert ctx.copy_with(**kw).kernel is ctx.kernel
    ctx.kernel[0, 1] = ctx.kernel[1, 0]
    for bad in (np.full(ctx.kernel.shape, np.nan), ctx.kernel + np.triu(np.ones(ctx.kernel.shape), 1)):
        with pytest.raises(ConfigError, match="finite and symmetric"):
            ctx.copy_with(kernel=bad)


def test_count_overlap_needs_counts_not_only_coverage():
    cover = np.array([[0.5, 0.3], [0.2, 0.9], [0.0, 0.4]])
    ctx = EvalContext(np.eye(3), 2, metric="dot", cover_prob=cover)
    rouge = FunctionSpec(Family.ROUGE)
    calls = {
        "evaluate": lambda: evaluate(rouge, MeasureMode.SMI, ctx, (0,), (2,)),
        "make_state": lambda: make_state(rouge, MeasureMode.SMI, ctx, (2,)),
        "oracle": lambda: definitional_oracle(rouge, MeasureMode.SMI, ctx, (0,), (2,)),
        "vrouge": lambda: vrouge([0], [[1]], ctx),
    }
    for call in calls.values():
        with pytest.raises(ConfigError, match="needs concept counts, none present in the context"):
            call()
    # set cover and probabilistic set cover read the coverage alone
    for family in (Family.SET_COVER, Family.PROB_SET_COVER):
        assert evaluate(FunctionSpec(family), MeasureMode.SMI, ctx, (0,), (2,)) > 0


@pytest.mark.parametrize("inputs", [
    dict(counts=np.ones((2, 2))),
    dict(counts=np.ones((3, 2)), concept_weights=np.ones(3)),
    dict(cover_prob=np.full((4, 2), 0.5)),
    dict(counts=np.ones((3, 2)), cover_prob=np.full((3, 3), 0.5)),
    dict(counts=np.ones(3)),
    dict(ids=("a",)),
], ids=["count_rows", "weight_length", "cover_rows", "concept_columns", "flat_counts", "id_count"])
def test_context_rejects_inputs_that_do_not_fit_its_kernel(inputs):
    with pytest.raises(ConfigError):
        EvalContext(np.eye(3), 2, metric="dot", **inputs)


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
    for weights in ((1, 2, 3), (1,), ()):
        with pytest.raises(ConfigError, match="com_weights must be a pair"):
            FunctionSpec(Family.CONCAVE_OVER_MODULAR, com_weights=weights)


@pytest.mark.parametrize("S", [[0.9], [1.0], [True], [0, True], [1, True], ["1"], "1", 5,
                               [[0, 1]], [float("nan")], np.array([0.5]), np.array([[0, 1]]),
                               np.array(1), [2**70]],
                         ids=["fraction", "whole_float", "bool", "bool_beside_0", "bool_beside_1",
                              "numeric_string", "string", "scalar", "nested", "nan", "float_array",
                              "2d_array", "0d_array", "past_int64"])
def test_as_indices_rejects_what_is_not_a_flat_set_of_integers(S):
    with pytest.raises(ConfigError, match="flat collection of integers"):
        as_indices(S)
    ctx, Q, P = random_instance(np.random.default_rng(0))
    with pytest.raises(ConfigError):
        evaluate(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, S, Q)


def test_as_indices_accepts_any_flat_iterable_of_integers():
    want = [1, 2, 4]
    for S in ([4, 2, 1, 2], (4, 1, 2), {4, 2, 1},
              (i for i in (2, 4, 1)), np.array([4, 2, 1]), np.array([4, 1, 2], dtype=np.uint8),
              tuple(np.array([2, 1, 4])), [np.int32(4), 2, np.int64(1)]):
        got = as_indices(S)
        assert got.dtype == int and got.tolist() == want
    assert as_indices(range(3)).tolist() == [0, 1, 2]
    assert as_indices(()).size == 0 and as_indices(np.zeros(0)).dtype == int


# ---------------------------------------------------------------------------
# closed forms against the definitional oracle


def _draw_spec(rng, family):
    hi = 1.0 if family is Family.LOG_DET else 2.0
    return FunctionSpec(family, lam=float(rng.uniform(0.1, 1.0)),
                        eta=float(rng.uniform(0.0, hi)), nu=float(rng.uniform(0.0, hi)))


@pytest.mark.parametrize("family", ALL_SMI)
def test_closed_forms_match_oracle(family):
    """On auxiliary Q and P, and again on Q and P that each also hold a
    ground item, which the AUX_ONLY families reject."""
    rng = np.random.default_rng(seed_from(family.value))
    metric = "cosine" if family in (Family.GRAPH_CUT, Family.LOG_DET) else "rbf"
    for _ in range(30):
        ctx, Q, P = random_instance(rng, metric=metric)
        spec = _draw_spec(rng, family)
        size = int(rng.integers(1, ctx.n_ground + 1))
        A = tuple(sorted(rng.choice(ctx.n_ground, size=size, replace=False).tolist()))
        for ground, sets in ((False, (A, Q, P)), (True, with_ground_members(rng, ctx, Q, P))):
            for mode in (MeasureMode.SMI, MeasureMode.CG, MeasureMode.CSMI):
                if mode not in modes_supported(family):
                    continue
                if ground and REGISTRY[family].AUX_ONLY:
                    with pytest.raises(ConfigError, match="auxiliary universe"):
                        evaluate(spec, mode, ctx, *sets)
                    continue
                got = evaluate(spec, mode, ctx, *sets)
                want = definitional_oracle(spec, mode, ctx, *sets)
                assert relerr(got, want) < 1e-8, (family, mode, ground, got, want)


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


METRICS = ("rbf", "cosine", "dot")
# their measures are forms only on nonnegative (fl2: [0, 1]) cross
# similarities, which a dot kernel of random_instance's features leaves
REJECTS_DOT = (Family.FACILITY_LOCATION_2, Family.CONCAVE_OVER_MODULAR)


@pytest.mark.parametrize("family", list(Family))
def test_states_track_evaluate(family):
    """Each gain read before a pick is the closed-form difference, so the
    read gains telescope to the closed form on every metric; the families
    that reject a dot kernel raise ConfigError for it in every mode."""
    rng = np.random.default_rng(seed_from(family.value + "state"))
    for metric in METRICS:
        for _ in range(10):
            ctx, Q, P = random_instance(rng, n_range=(5, 8), metric=metric)
            spec = _draw_spec(rng, family)
            for mode in modes_supported(family):
                if metric == "dot" and family in REJECTS_DOT:
                    with pytest.raises(ConfigError):
                        make_state(spec, mode, ctx, Q=Q, P=P)
                    continue
                state = make_state(spec, mode, ctx, Q=Q, P=P)
                order = rng.permutation(ctx.n_ground)[:4]
                picked = []
                total = before = 0.0
                for j in order:
                    g = state.gain(np.array([j]))[0]
                    state.add(int(j))
                    picked.append(int(j))
                    total += g
                    want = evaluate(spec, mode, ctx, tuple(sorted(picked)), Q, P)
                    assert g == pytest.approx(want - before, abs=1e-8), (metric, mode)
                    assert total == pytest.approx(want, abs=1e-8), (metric, mode)
                    before = want


FAMILY_MODES = [(f, m) for f in Family for m in MeasureMode if m in modes_supported(f)]


@pytest.mark.parametrize("family,mode", FAMILY_MODES, ids=lambda v: v.value)
def test_state_gains_match_from_scratch(family, mode):
    """Every remaining candidate's state gain equals the closed-form
    difference at every step, over 8 picks (eta/nu scale the cross pairs),
    on every metric; the families that reject a dot kernel raise
    ConfigError for it."""
    rng = np.random.default_rng(seed_from(f"{family.value}-{mode.value}-gains"))
    spec = FunctionSpec(family, lam=0.4, eta=0.7, nu=0.6)
    for metric in METRICS:
        if family is Family.LOG_DET:  # reads the raw kernel, which a well-conditioned draw keeps exact
            n = 14
            ctx = psd_ctx(rng, n + 6, n_ground=n)
            Q, P = (n, n + 1, n + 2), (n + 3, n + 4, n + 5)
        else:
            ctx, Q, P = random_instance(rng, n_range=(12, 12), metric=metric)
            n = ctx.n_ground
        if metric == "dot" and family in REJECTS_DOT:
            with pytest.raises(ConfigError):
                make_state(spec, mode, ctx, Q=Q, P=P)
            continue
        state = make_state(spec, mode, ctx, Q=Q, P=P)
        picked: list[int] = []
        total = before = 0.0
        for step in range(8):
            rest = [j for j in range(n) if j not in picked]
            got = state.gain(np.array(rest))
            for j, g in zip(rest, got):
                want = evaluate(spec, mode, ctx, picked + [j], Q, P) - before
                assert g == pytest.approx(want, abs=1e-9), (metric, step, j)
            i = (5 * step) % len(rest)
            j = rest[i]
            total += got[i]
            state.add(j)
            picked.append(j)
            before = evaluate(spec, mode, ctx, picked, Q, P)
            assert total == pytest.approx(before, abs=1e-9), metric


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family,mode", FAMILY_MODES, ids=lambda v: v.value)
def test_state_gains_hold_one_entry_per_ground_item(family, mode, metric):
    """Every marginal state keeps one gain per ground item, auxiliary items
    never being candidates: before and after two picks it reads the gains
    of the ground items left, and the first auxiliary index lies past its
    end.  So does the zero state of a mode whose query comes empty.  Log-det
    keeps no gains array, so the contract is read through gain(), which
    every state answers.  A dot kernel's cross block is mapped into [0, 1)
    for the families that reject one outside it."""
    rng = np.random.default_rng(seed_from(f"{family.value}-{mode.value}-{metric}-shape"))
    ctx, Q, P = random_instance(rng, n_range=(7, 7), metric=metric)
    if metric == "dot" and family in REJECTS_DOT:
        cross = np.abs(ctx.cross)
        ctx = ctx.copy_with(cross=cross / (1.0 + cross.sum()))
    n = ctx.n_ground
    spec = FunctionSpec(family, lam=0.4, eta=0.7, nu=0.6)
    for q in ([Q, ()] if mode in (MeasureMode.SMI, MeasureMode.CSMI) else [Q]):
        state = make_state(spec, mode, ctx, Q=q, P=P)
        rest = np.arange(n)
        for j in (None, 0, n - 1):
            if j is not None:
                state.add(j)
                rest = rest[rest != j]
            assert state.gain(rest).shape == rest.shape, (q, j)
            with pytest.raises(IndexError):
                state.gain(np.array([n]))


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
    original, dup = state.gain(np.array([3, copy]))
    assert dup == original
    state.add(3)
    assert state.gain(np.array([copy]))[0] == 0.0


def test_logdet_add_rejects_nonpositive_schur_complement():
    ctx = pair_ctx(2.0, n_ground=2)  # [[1, 2], [2, 1]] is indefinite
    state = make_state(FunctionSpec(Family.LOG_DET), MeasureMode.BASE, ctx)
    state.add(0)
    with pytest.raises(NumericError):
        state.add(1)
    chol = GrowingCholesky(ctx, FunctionSpec(Family.LOG_DET))
    chol.push(0)
    assert chol.d2[1] < 0
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
        state.gain(np.array([3]))
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
    # each combo on auxiliary Q and P, then on Q and P that each also hold a
    # ground item, which the AUX_ONLY families reject
    for (family, mode, keys), ground in itertools.product(combos, (False, True)):
        checked = 0
        guard = 0
        while checked < 10 and guard < 60:
            guard += 1
            ctx, Q, P = random_instance(rng)
            spec = FunctionSpec(family, lam=float(rng.uniform(0.2, 1.0)),
                                eta=float(rng.uniform(0.2, 0.9)),
                                nu=float(rng.uniform(0.2, 0.9)))
            A = tuple(sorted(rng.choice(ctx.n_ground, size=2, replace=False).tolist()))
            if ground:
                A, Q, P = with_ground_members(rng, ctx, Q, P)
                if REGISTRY[family].AUX_ONLY:
                    with pytest.raises(ConfigError, match="auxiliary universe"):
                        partials(spec, mode, ctx, A, Q, P)
                    checked += 1
                    continue
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
