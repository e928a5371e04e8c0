import numpy as np
import pytest

from conftest import pair_ctx, seed_from, with_copies
from submodsum.bench import random_instance
from submodsum.errors import ConfigError, NumericError, SizeError, UnsupportedError
from submodsum.functions import Family, FunctionSpec, MeasureMode, modes_supported
from submodsum.optimize import (
    CompositeObjective,
    Flavor,
    FunctionObjective,
    MeasureObjective,
    brute_force_opt,
    flavor_sets,
    greedy_maximize,
    master_solve,
    parse_flavor,
)


def modular_objective(weights=(3.0, 1.0, 2.0)):
    w = np.asarray(weights, dtype=float)
    return FunctionObjective(lambda S: float(w[S].sum()), np.arange(w.size), lazy_safe=True)


def test_modular_greedy_takes_top_k():
    sel = greedy_maximize(modular_objective(), 2)
    assert sel.indices == [0, 2]
    assert sel.value == pytest.approx(5.0)
    assert sel.gains == [pytest.approx(3.0), pytest.approx(2.0)]


def test_modular_brute_force_agrees():
    greedy = greedy_maximize(modular_objective(), 2)
    opt = brute_force_opt(modular_objective(), 2)
    assert opt.indices == greedy.indices
    assert opt.value == pytest.approx(greedy.value)


def test_tie_break_lowest_index():
    sel = greedy_maximize(modular_objective((1.0, 1.0, 1.0)), 2)
    assert sel.indices == [0, 1]


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gain_raises_numeric_error(lazy, bad):
    # unchecked, a NaN never wins the max or sinks in the heap order, so
    # greedy used to return a plausible selection around it
    obj = modular_objective((3.0, bad, 2.0, 1.0))
    with pytest.raises(NumericError, match="candidate 1"):
        greedy_maximize(obj, 2, lazy=lazy)


def test_budget_edge_cases():
    obj = modular_objective()
    empty = greedy_maximize(obj, 0)
    assert empty.indices == [] and empty.value == 0.0
    with pytest.raises(ConfigError):
        greedy_maximize(obj, 4)
    with pytest.raises(ConfigError):
        greedy_maximize(obj, -1)


def test_full_budget_takes_everything_monotone():
    sel = brute_force_opt(modular_objective(), 3)
    assert sorted(sel.indices) == [0, 1, 2]


def test_brute_force_size_guard():
    w = np.ones(50)
    obj = FunctionObjective(lambda S: float(w[S].sum()), np.arange(50))
    with pytest.raises(SizeError):
        brute_force_opt(obj, 5)


def test_stop_on_nonpositive():
    ctx = pair_ctx(0.7)
    obj = MeasureObjective(FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.5),
                           MeasureMode.SMI, ctx, Q=(1,))
    sel = greedy_maximize(obj, 1, stop_on_nonpositive=True)
    assert len(sel) == 1  # first gain positive
    # a second pick would have zero gain on this saturated instance
    rng = np.random.default_rng(3)
    ctx2, Q, P = random_instance(rng, n_range=(6, 6))
    obj2 = MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx2, Q=Q)
    full = greedy_maximize(obj2, 6)
    trimmed = greedy_maximize(obj2, 6, stop_on_nonpositive=True)
    assert len(trimmed) <= len(full)
    assert all(g > 0 for g in trimmed.gains)


# every (family, mode) the lazy heap may serve; the log-det mutual-information
# forms are listed too and must fall back to the plain scan
LAZY_COMBOS = [(f, m) for f in Family for m in MeasureMode
               if m in modes_supported(f) and f not in (Family.DISPARITY_SUM, Family.DISPARITY_MIN)]


@pytest.mark.parametrize("family,mode", LAZY_COMBOS, ids=lambda v: v.value)
def test_lazy_matches_naive(family, mode):
    rng = np.random.default_rng(seed_from(f"lazy-{family.value}-{mode.value}"))
    for t in range(11):
        ctx, Q, P = random_instance(rng, n_range=(6, 10))
        if t == 10:  # item i + n copies item i
            n = ctx.n_ground
            ctx = with_copies(ctx, np.arange(n), np.arange(n, ctx.size))
            Q, P = tuple(q + n for q in Q), tuple(p + n for p in P)
        spec = FunctionSpec(family, lam=0.4,
                            eta=float(rng.uniform(0.1, 0.9)), nu=float(rng.uniform(0.1, 0.9)))
        obj = MeasureObjective(spec, mode, ctx, Q=Q, P=P)
        k = int(rng.integers(1, 5)) if t < 10 else ctx.n_ground // 2
        a = greedy_maximize(obj, k, lazy=True)
        b = greedy_maximize(obj, k, lazy=False)
        assert a.indices == b.indices
        assert a.value == pytest.approx(b.value, abs=1e-10)
        # the lowest index wins a tie: no copy before its original (the log-det
        # Cholesky rows come from a BLAS product, which can round equal
        # columns apart, so there copies need not tie exactly)
        if t == 10 and family is not Family.LOG_DET:
            half = ctx.n_ground // 2
            assert all(j - half in a.indices[:s] for s, j in enumerate(a.indices) if j >= half)


def test_lazy_safe_gating():
    rng = np.random.default_rng(9)
    ctx, Q, P = random_instance(rng, metric="rbf")
    assert MeasureObjective(FunctionSpec(Family.FACILITY_LOCATION_1),
                            MeasureMode.SMI, ctx, Q=Q).lazy_safe
    assert not MeasureObjective(FunctionSpec(Family.LOG_DET),
                                MeasureMode.SMI, ctx, Q=Q).lazy_safe
    assert MeasureObjective(FunctionSpec(Family.LOG_DET), MeasureMode.CG, ctx, P=P).lazy_safe
    assert not MeasureObjective(FunctionSpec(Family.DISPARITY_SUM),
                                MeasureMode.BASE, ctx).lazy_safe
    assert MeasureObjective(FunctionSpec(Family.ROUGE), MeasureMode.SMI, ctx, Q=Q).lazy_safe
    assert not MeasureObjective(FunctionSpec(Family.ROUGE), MeasureMode.CG, ctx, P=P).lazy_safe
    # graph cut loses the guarantee exactly when ground similarities go negative
    neg = ctx.copy_with(kernel=ctx.kernel - 0.5)
    assert not MeasureObjective(FunctionSpec(Family.GRAPH_CUT), MeasureMode.BASE, neg).lazy_safe


def test_selection_ids_follow_relabeling(rng):
    ctx, Q, P = random_instance(rng)
    named = ctx.copy_with(ids=tuple(f"item_{i}" for i in range(ctx.size)))
    obj = MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, named, Q=Q)
    sel = greedy_maximize(obj, 2)
    assert sel.ids == [f"item_{i}" for i in sel.indices]


def test_flavor_parsing_and_table():
    assert parse_flavor("query") is Flavor.QUERY
    assert parse_flavor("Query-Privacy") is Flavor.QUERY_PRIVACY
    with pytest.raises(ConfigError):
        parse_flavor("nope")
    mode, q, cond = flavor_sets(Flavor.QUERY_UPDATE, Q=(8,), previous=(1, 2))
    assert mode is MeasureMode.CSMI and q == (8,) and cond == (1, 2)
    with pytest.raises(ConfigError):
        flavor_sets(Flavor.QUERY)  # missing query set
    with pytest.raises(ConfigError):
        flavor_sets(Flavor.PRIVACY)  # missing private set


def test_master_solve_flavors(rng):
    ctx, Q, P = random_instance(rng, n_range=(8, 10))
    fl1 = FunctionSpec(Family.FACILITY_LOCATION_1, eta=0.8, nu=0.6)
    for flavor in Flavor:
        if flavor in (Flavor.UPDATE, Flavor.QUERY_UPDATE):
            sel = master_solve(flavor, fl1, ctx, 3, Q=Q, previous=(0, 1))
            assert not {0, 1} & set(sel.indices)
        else:
            sel = master_solve(flavor, fl1, ctx, 3, Q=Q, P=P)
        assert len(sel) == 3
        assert sel.flavor == flavor.value


def test_master_solve_rejects_unsupported(rng):
    ctx, Q, P = random_instance(rng)
    with pytest.raises(UnsupportedError):
        master_solve(Flavor.QUERY_PRIVACY, FunctionSpec(Family.GRAPH_CUT), ctx, 2, Q=Q, P=P)


def test_empty_query_yields_zero_gain_fill(rng):
    ctx, Q, P = random_instance(rng, n_range=(6, 6))
    sel = master_solve(Flavor.QUERY, FunctionSpec(Family.FACILITY_LOCATION_1), ctx, 3, Q=())
    assert sel.indices == [0, 1, 2]
    assert sel.gains == [0.0, 0.0, 0.0]
    assert sel.value == 0.0


def test_composite_objective_matches_weighted_sum(rng):
    ctx, Q, P = random_instance(rng)
    parts = [
        (0.7, MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, Q=Q)),
        (0.3, MeasureObjective(FunctionSpec(Family.GRAPH_CUT, lam=0.5), MeasureMode.SMI, ctx, Q=Q)),
    ]
    comp = CompositeObjective(parts)
    A = (0, 2)
    want = sum(w * obj.value(A) for w, obj in parts)
    assert comp.value(A) == pytest.approx(want)
    sel = greedy_maximize(comp, 2)
    assert len(sel) == 2
