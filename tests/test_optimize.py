import heapq
import math

import numpy as np
import pytest

from conftest import ScratchObjective, one_gain, pair_ctx, seed_from, with_copies
from submodsum.bench import random_instance
from submodsum.errors import ConfigError, NumericError, SizeError, UnsupportedError
from submodsum.functions import EvalContext, Family, FunctionSpec, MeasureMode, modes_supported
from submodsum.functions._common import complement
from submodsum.optimize import (
    CompositeObjective,
    Flavor,
    MeasureObjective,
    brute_force_opt,
    flavor_sets,
    greedy_maximize,
    master_solve,
    parse_flavor,
)
from submodsum.learning import VRougeMargin, ZeroOneMargin

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def modular_objective(weights=(3.0, 1.0, 2.0)):
    w = np.asarray(weights, dtype=float)
    return ScratchObjective(lambda S: float(w[S].sum()), w.size)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gain_raises_numeric_error(bad):
    # unchecked, a NaN never wins the max, so greedy used to return a
    # plausible selection around it
    obj = modular_objective((3.0, bad, 2.0, 1.0))
    with pytest.raises(NumericError, match="candidate 1"):
        greedy_maximize(obj, 2)
    # a marginal state's array read names the first bad candidate too
    ctx, _, _ = random_instance(np.random.default_rng(4), n_range=(6, 6))
    poisoned = _PoisonedObjective(FunctionSpec(Family.SET_COVER), MeasureMode.BASE, ctx)
    poisoned.bad = {3: bad, 5: bad}
    with pytest.raises(NumericError, match="candidate 3$"):
        greedy_maximize(poisoned, 2)


class _PoisonedObjective(MeasureObjective):
    """A measure whose fresh states hold the gains in self.bad."""

    def fresh_state(self):
        state = super().fresh_state()
        for j, g in self.bad.items():
            state.gains[j] = g
        return state


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
    obj = modular_objective(np.ones(50))
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


# every (family, mode) but the dispersions: the solver's naive argmax scan
# against the lazy heap of the scalar reference solver (_ref_greedy below),
# which falls back to its own plain scan on the log-det mutual-information forms
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
        a = _ref_greedy(obj, k, True, False, obj.candidates())
        b = greedy_maximize(obj, k)
        assert a[0] == b.indices
        assert a[2] == pytest.approx(b.value, abs=1e-10)
        assert b.value == pytest.approx(obj.value(b.indices), abs=1e-9)  # the gains telescope
        # the lowest index wins a tie: no copy before its original
        if t == 10:
            half = ctx.n_ground // 2
            assert all(j - half in b.indices[:s] for s, j in enumerate(b.indices) if j >= half)


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


def test_candidates_leave_out_ground_items_in_q_and_p(rng):
    ctx, Q, P = random_instance(rng, n_range=(8, 8))
    gc = FunctionSpec(Family.GRAPH_CUT, lam=0.5)
    top = greedy_maximize(MeasureObjective(gc, MeasureMode.BASE, ctx), 3).indices
    for mode in (MeasureMode.BASE, MeasureMode.CG):
        obj = MeasureObjective(gc, mode, ctx, P=top)
        assert obj.candidates().tolist() == [j for j in range(8) if j not in top]
        sel = greedy_maximize(obj, 5)
        assert not set(top) & set(sel.indices), mode
    # auxiliary items are never candidates anyway
    assert MeasureObjective(gc, MeasureMode.SMI, ctx, Q=Q).candidates().tolist() == list(range(8))


@settings(deadline=None)
@given(lo=st.integers(0, 20), width=st.integers(0, 20),
       S=st.lists(st.integers(-5, 45), max_size=30))
def test_complement_is_setdiff1d(lo, width, S):
    """Repeats, members on either side of lo and entries outside [lo, hi)
    all give np.setdiff1d's answer."""
    hi = lo + width
    got, want = complement(lo, hi, S), np.setdiff1d(np.arange(lo, hi), S)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_candidates_are_the_setdiff1d_definition(rng):
    """The pool is the ground set minus Q and P, whatever they hold; an entry
    outside the universe leaves the pool whole and is refused by the state."""
    for _ in range(20):
        ctx, Q, P = random_instance(rng)
        n, size = ctx.n_ground, ctx.size
        Q = rng.choice(size, size=3).tolist() + list(Q)  # ground members and repeats
        P = rng.choice(size, size=2).tolist() + list(P)
        obj = MeasureObjective(FunctionSpec(Family.GRAPH_CUT), MeasureMode.CSMI, ctx, Q=Q, P=P)
        want = np.setdiff1d(np.arange(n), np.concatenate([obj.Q, obj.P]))
        assert obj.candidates().dtype == want.dtype and obj.candidates().tolist() == want.tolist()
    for bad in ([-1], [size], [-3, size + 2]):
        obj = MeasureObjective(FunctionSpec(Family.GRAPH_CUT), MeasureMode.CG, ctx, P=bad)
        assert obj.candidates().tolist() == list(range(n))
        with pytest.raises(ConfigError, match="outside the universe"):
            greedy_maximize(obj, n)


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


def test_composite_reads_each_part_once_per_pick(rng):
    """The solver's array read is the only gain read of a part: the
    composite commits a pick by summing its parts' add return values."""
    ctx, Q, P = random_instance(rng, n_range=(8, 8))
    parts = [_Counted(MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, Q=Q)),
             _Counted(MeasureObjective(FunctionSpec(Family.GRAPH_CUT, lam=0.5), MeasureMode.SMI, ctx, Q=Q))]
    comp = CompositeObjective([(0.7, parts[0]), (0.3, parts[1])])
    sel = greedy_maximize(comp, 4)
    assert len(sel) == 4
    assert [p.reads for p in parts] == [4, 4]
    assert sel.value == pytest.approx(comp.value(sel.indices))


# -- one gain read per pick ------------------------------------------------------
#
# The solver reads a whole candidate array per call to gain.  Its reference
# is the solver as it was when it read one candidate per call, in both its
# plain scan and Minoux's lazy heap: every pick, gain and value must come
# out with the same bits.


def _ref_require_finite(gains, cands):
    if not all(map(math.isfinite, gains)):
        g, j = next((g, j) for g, j in zip(gains, cands) if not math.isfinite(g))
        raise NumericError(f"non-finite marginal gain {g} for candidate {j}")


def _ref_greedy(obj, k, lazy, stop_on_nonpositive, cand):
    """greedy_maximize with one gain read per candidate; its value is the
    sum of the pick gains."""
    lazy = lazy and getattr(obj, "lazy_safe", True)
    state = obj.fresh_state()
    picked, gains = [], []
    if lazy:
        heap = [(-math.inf, int(j)) for j in cand]
        heapq.heapify(heap)
        fresh = set()
        while heap and len(picked) < k:
            negb, j = heapq.heappop(heap)
            if j not in fresh:
                g = one_gain(state, j)
                _ref_require_finite((g,), (j,))
                fresh.add(j)
                heapq.heappush(heap, (-g, j))
                continue
            if stop_on_nonpositive and -negb <= 0:
                break
            state.add(j)
            picked.append(j)
            gains.append(-negb)  # j's read since the last pick
            fresh.clear()
    else:
        remaining = [int(j) for j in cand]
        while remaining and len(picked) < k:
            gvals = [one_gain(state, j) for j in remaining]
            _ref_require_finite(gvals, remaining)
            best = max(range(len(remaining)), key=gvals.__getitem__)
            g = gvals[best]
            if stop_on_nonpositive and g <= 0:
                break
            j = remaining.pop(best)
            state.add(j)
            picked.append(j)
            gains.append(g)
    return picked, gains, float(sum(gains))


class _Counted:
    """An objective whose states count the candidates their gain reads
    evaluate (an array read counts each of its entries) and the reads."""

    def __init__(self, obj):
        self.obj, self.evals, self.reads = obj, 0, 0

    def __getattr__(self, name):
        return getattr(self.obj, name)

    def fresh_state(self):
        return _CountingState(self.obj.fresh_state(), self)


class _CountingState:
    def __init__(self, state, owner):
        self.state, self.owner = state, owner

    def __getattr__(self, name):
        return getattr(self.state, name)

    def gain(self, j):
        self.owner.evals += j.size
        self.owner.reads += 1
        return self.state.gain(j)


def _bits(values) -> bytes:
    """The float64 bits of a gain sequence, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except NumericError:
        return NumericError


ALL_COMBOS = [(f, m) for f in Family for m in MeasureMode if m in modes_supported(f)]


@st.composite
def greedy_instances(draw):
    """A random instance, maybe with copied items, and maybe with its query
    or private set emptied, which gives the degenerate (zero) states."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx, Q, P = random_instance(rng, n_range=(2, 8), nq_range=(0, 2), np_range=(0, 2))
    n = ctx.n_ground
    copies = rng.integers(n, size=draw(st.integers(0, 3)))  # ground items copied
    if copies.size:
        ctx = with_copies(ctx, copies, np.arange(n, ctx.size))
        Q, P = tuple(q + copies.size for q in Q), tuple(p + copies.size for p in P)
    Q = Q if draw(st.booleans()) else ()
    P = P if draw(st.booleans()) else ()
    spec_kw = dict(lam=0.4, eta=float(rng.uniform(0, 1)), nu=float(rng.uniform(0, 1)))
    return ctx, Q, P, spec_kw, draw(st.booleans())


def _objectives(ctx, Q, P, spec_kw):
    """(label, objective) for every family x supported mode, and the two
    learning mixtures: one with the V-ROUGE margin, one with zero_one."""
    for family, mode in ALL_COMBOS:
        yield f"{family.value}/{mode.value}", MeasureObjective(FunctionSpec(family, **spec_kw), mode, ctx, Q=Q, P=P)
    ref = np.arange(max(1, ctx.n_ground // 2))
    fl1 = MeasureObjective(FunctionSpec(Family.FACILITY_LOCATION_1, **spec_kw), MeasureMode.SMI, ctx, Q=Q)
    sc = MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, Q=Q)
    yield "mix+vrouge", CompositeObjective([(0.6, fl1), (0.3, sc), (1.0, VRougeMargin(ctx, ref))])
    yield "mix+zero_one", CompositeObjective([(0.7, fl1), (1.0, ZeroOneMargin(ctx, ref))])


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(inst=greedy_instances())
def test_greedy_vector_reads_bit_equal_to_scalar_reference(inst):
    ctx, Q, P, spec_kw, stop = inst
    cand = np.arange(ctx.n_ground)
    k = min(8, cand.size)
    for label, obj in _objectives(ctx, Q, P, spec_kw):
        # an array read equals the one-entry reads of its entries, pick by pick
        state, remaining = obj.fresh_state(), cand
        for _ in range(k):
            vec = _outcome(state.gain, remaining)
            one = [_outcome(one_gain, state, j) for j in remaining]
            if vec is NumericError or NumericError in one:
                assert vec is NumericError and NumericError in one, label
                break
            assert _bits(vec) == _bits(one), label
            best = int(np.argmax(vec))
            if _outcome(state.add, int(remaining[best])) is NumericError:
                break
            remaining = np.delete(remaining, best)
        # and the solver returns what both scalar solvers returned, after
        # evaluating as many candidates as the scalar plain scan
        new_obj = _Counted(obj)
        got = _outcome(greedy_maximize, new_obj, k, stop_on_nonpositive=stop)
        for lazy in (True, False):
            ref_obj = _Counted(obj)
            want = _outcome(_ref_greedy, ref_obj, k, lazy, stop, cand)
            if want is NumericError:
                assert got is NumericError, label
                continue
            assert got is not NumericError, label
            assert got.indices == want[0] and got.gains == want[1] and got.value == want[2], label
            assert _bits(got.gains) == _bits(want[1]), label
            if not lazy:
                assert new_obj.evals == ref_obj.evals, label
            assert all(type(j) is int for j in got.indices), label
            assert all(type(g) is float for g in got.gains), label


@st.composite
def zero_one_paths(draw):
    """(n, reference, path): the path walks a prefix of the reference in
    some order, then every other item, so it may reach the reference
    exactly before it leaves it."""
    n = draw(st.integers(1, 7))
    ref = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    lead = ref[:draw(st.integers(0, len(ref)))]
    return n, ref, lead + [j for j in draw(st.permutations(range(n))) if j not in lead]


@settings(deadline=None)
@given(inst=zero_one_paths())
@example(inst=(4, [], [2, 0, 3, 1]))  # the empty reference
@example(inst=(5, [1, 3], [3, 1, 0, 4, 2]))  # reaches the reference exactly, then leaves it
@example(inst=(5, [1, 3, 4], [1, 0, 3, 4, 2]))  # leaves the reference before completing it
def test_zero_one_margin_state_matches_from_scratch(inst):
    """At every step, every candidate's state gain is l(Y + j) - l(Y),
    with l rescored from scratch, in the one-entry and the array read, and
    the gains of the path telescope from l(empty set) to l(Y)."""
    n, ref, path = inst
    margin = ZeroOneMargin(EvalContext(np.eye(n), n, metric="dot"), ref)
    state, scratch = margin.fresh_state(), ScratchObjective(margin, n).fresh_state()
    total = margin(())
    for step in range(n + 1):
        assert total == margin(path[:step])
        rest = np.asarray(sorted(set(range(n)) - set(path[:step])), dtype=int)
        want = scratch.gain(rest)
        assert _bits(state.gain(rest)) == _bits(want)
        assert _bits([one_gain(state, j) for j in rest]) == _bits(want)
        if step < n:
            j = path[step]
            g = one_gain(state, j)
            assert g == one_gain(scratch, j)
            total += g
            state.add(j)
            scratch.add(j)
