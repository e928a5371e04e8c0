"""Log-det and the cross-only kernel read the kernel instead of N x N copies.

Log-det conditions on a set by pushing it first: each marginal state is an
incremental Cholesky factor of D that pushes its conditioning set S over
the columns V u S, then the picks over V.  The first property test runs
the same factor on the dense, pair-weighted D, with the same rows, the same
ops in the same order and all of V u S kept as columns, and asks for the
same bits: every gain (int and array reads), Schur complement and pushed
Cholesky row of a greedy run.  The second keeps the earlier dense formula
D_V - C D^{-1} C^T as its reference and asks for the same Schur complements
and closed forms within a stated tolerance, since pushing the conditioning
set rounds apart from it.  The cross-only kernel of fl2 and com is read
block by block from the context's m x n cross block, and its property test
asks for the bits of the dense N x N matrix.  The memory tests bound what a
state and a closed form allocate on top of the kernel.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import one_gain, with_copies
from submodsum.bench import random_instance
from submodsum.data import AuxiliarySet, GroundSet
from submodsum.errors import NumericError
from submodsum.functions import EvalContext, Family, FunctionSpec, MeasureMode, evaluate, make_state
from submodsum.functions._common import cross_block, pair_weighted
from submodsum.functions.logdet import LogDetOps, _columns, _dots, _logdet_psd, _solve_psd

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

OPS = LogDetOps()
NONE = np.zeros(0, dtype=int)


def _dense(ctx):
    D = ctx.kernel.copy()
    D[np.diag_indices_from(D)] += ctx.jitter
    return D


# -- the dense reference: the same Cholesky on the dense, pair-weighted D ------


def _weighted(ctx, spec, Q, P):
    """The dense D over the whole universe under the pair weights of Q and P."""
    idx = np.arange(ctx.size)
    return pair_weighted(ctx, spec, _dense(ctx), idx, idx, Q, P)


class _RefCholesky:
    """Cholesky rows of D over the columns V u S, S pushed first; a pick
    j in V is pushed at column j.  No column is ever dropped."""

    def __init__(self, D, n, S=NONE):
        cols = np.union1d(np.arange(n), S)
        self.mat = D[np.ix_(cols, cols)]
        self.d2 = np.diagonal(self.mat).astype(float)
        self.C = np.zeros((0, cols.size))
        self.k = 0
        for i in np.searchsorted(cols, S):
            self.push(i)

    def push(self, i):
        d2 = self.d2[i]
        if not d2 > 0:
            raise NumericError("not positive definite")
        k = self.k
        if k == self.C.shape[0]:
            grown = np.empty((max(2 * k, 8), self.C.shape[1]))
            grown[:k] = self.C
            self.C = grown
        rows = self.C[:k]
        e = (self.mat[i] - (rows[:, i, None] * rows).sum(axis=0)) / np.sqrt(d2)
        self.C[k] = e
        self.k = k + 1
        self.d2 -= e * e


class _RefState:
    """gain = log d2 - log e2 over the first n columns of the factors pos
    and neg (neg may be None)."""

    def __init__(self, n, pos, neg=None):
        self.n, self.pos, self.neg = n, pos, neg

    def gain(self, j: int):
        """log d2 - log e2 of one candidate, read from the whole array."""
        d2, e2 = self.pos.d2[:self.n], None if self.neg is None else self.neg.d2[:self.n]
        if not (d2[j] > 0 and (e2 is None or e2[j] > 0)):
            return NumericError
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log(d2) if e2 is None else np.log(d2) - np.log(e2)
        return float(g[j])

    def add(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)


def _conditioning(mode, Q, P):
    """(S_pos, S_neg): f(A | P) pushes P; the query forms subtract a factor
    that pushes Q, after P where the mode reads P."""
    return P, (np.concatenate((P, Q)) if mode in (MeasureMode.SMI, MeasureMode.CSMI) else None)


def _ref_closed(M, N, A):
    value = _logdet_psd(M[np.ix_(A, A)])
    return value if N is None else value - _logdet_psd(N[np.ix_(A, A)])


def _outcome(fn, *args):
    """fn's value, or the NumericError it raised, as something == compares."""
    try:
        return fn(*args)
    except NumericError:
        return NumericError


# -- the earlier dense formula: D_V - C D^{-1} C^T through n x n products ------


def _old_blocks(ctx, spec, mode, Q, P):
    """(M, N, solved) over V with value(A) = logdet M_A - logdet N_A (N may
    be None), and the blocks the formula solves against.  Every block of D,
    D_Q and D_P included, is read under the pair weights of Q and P."""
    solved = []

    def solve(M, B):
        solved.append(M)
        return _solve_psd(M, B)

    D = _dense(ctx)
    n = ctx.n_ground
    V = np.arange(n)
    DV = D[:n, :n]

    def block(rows, cols):
        return pair_weighted(ctx, spec, D[np.ix_(rows, cols)], rows, cols, Q, P)

    if mode == MeasureMode.BASE:
        return DV, None, solved
    if mode == MeasureMode.SMI:
        Cq = block(V, Q)
        return DV, DV - Cq @ solve(block(Q, Q), Cq.T), solved
    if mode == MeasureMode.CG:
        Cp = block(V, P)
        return DV - Cp @ solve(block(P, P), Cp.T), None, solved
    B1 = block(V, P)
    B2 = block(P, Q)
    B3 = block(V, Q)
    DP = block(P, P)
    DQ = block(Q, Q)
    M = DV - B1 @ solve(DP, B1.T)
    GQ = DQ - B2.T @ solve(DP, B2)
    GVQ = B3 - B1 @ solve(DP, B2)
    return M, M - GVQ @ solve(GQ, GVQ.T), solved


# -- the properties --------------------------------------------------------------


@st.composite
def instances(draw):
    n = draw(st.integers(1, 12))
    nq, npv = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    size = n + nq + npv
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.normal(size=(size, draw(st.integers(1, 4))))
    for _ in range(draw(st.integers(0, 4))):  # copied items
        feats[rng.integers(size)] = feats[rng.integers(size)]
    feats[rng.integers(size, size=draw(st.integers(0, 2)))] = 0.0  # zero feature rows
    ids = [f"i{k}" for k in range(size)]
    aux = [AuxiliarySet(ids[part], feats[part], role_tag=role)
           for part, role in ((slice(n, n + nq), "query"), (slice(n + nq, size), "private")) if ids[part]]
    ctx = EvalContext.build(GroundSet(ids[:n], feats[:n]), aux, metric=draw(st.sampled_from(["cosine", "dot"])))
    # Q and P are usually the auxiliary roles; a ground item in one of them
    # puts a shared item, and so a jittered entry, into the cross blocks
    members = rng.permutation(size)[:draw(st.integers(0, 3))]
    Q = np.union1d(ctx.role_indices.get("query", ()), members[:1]).astype(int)
    P = np.union1d(ctx.role_indices.get("private", ()), members[1:]).astype(int)
    P = np.setdiff1d(P, Q)
    spec = FunctionSpec(Family.LOG_DET, eta=draw(st.floats(0, 1)), nu=draw(st.floats(0, 1)))
    return ctx, spec, Q, P


def _modes(Q, P):
    """(mode, Q, P) for every mode whose sets are nonempty, with the sets it does not read empty."""
    for mode in MeasureMode:
        q = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else NONE
        p = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else NONE
        if not ((q is Q and not Q.size) or (p is P and not P.size)):
            yield mode, q, p


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(inst=instances())
def test_logdet_pushed_conditioning_rows_bit_equal_to_dense_reference(inst):
    ctx, spec, Q, P = inst
    n = ctx.n_ground
    cand = np.setdiff1d(np.arange(n), np.union1d(Q, P))
    dense = ctx.copy_with(kernel=_dense(ctx), jitter=0.0)
    for mode, q, p in _modes(Q, P):
        S_pos, S_neg = _conditioning(mode, q, p)
        D = _weighted(ctx, spec, q, p)
        ref = _outcome(lambda: _RefState(n, _RefCholesky(D, n, S_pos),
                                         None if S_neg is None else _RefCholesky(D, n, S_neg)))
        if ref is NumericError:  # a conditioning block that is not positive definite
            with pytest.raises(NumericError):
                OPS.state(ctx, spec, q, p)
            continue
        state = OPS.state(ctx, spec, q, p)
        pairs = [(state.pos, ref.pos)] + ([] if ref.neg is None else [(state.neg, ref.neg)])
        assert (state.neg is None) == (ref.neg is None)

        def same_rows():
            """The pushed rows, the conditioning set's included, and every
            Schur complement of V, the picked items' included."""
            for got, want in pairs:
                assert got.k == want.k
                assert np.array_equal(got.C[:got.k], want.C[:want.k, :n])
                assert np.array_equal(got.d2, want.d2[:n])

        same_rows()
        picks = []
        for _ in range(min(8, cand.size)):
            rest = np.array([j for j in cand if j not in picks], dtype=int)
            gains = [_outcome(one_gain, state, j) for j in rest.tolist()]
            assert gains == [ref.gain(j) for j in rest.tolist()]
            finite = [(g, j) for g, j in zip(gains, rest.tolist()) if g is not NumericError]
            if len(finite) < rest.size:
                with pytest.raises(NumericError):
                    state.gain(rest)
            else:
                assert state.gain(rest).tolist() == gains
            if not finite:
                break
            j = max(finite)[1]
            if _outcome(ref.add, j) is NumericError:
                with pytest.raises(NumericError):
                    state.add(j)
                break
            state.add(j)
            picks.append(j)
            same_rows()

        A = np.array(sorted(picks), dtype=int)
        if not A.size:
            continue
        event(f"{mode.value} compared")
        # the closed forms and the partials read D only through _read, so on
        # a context whose kernel is D and whose jitter is zero they give the
        # same bits
        for fn in (OPS.value, OPS.partials):
            assert _outcome(fn, ctx, spec, A, q, p) == _outcome(fn, dense, spec, A, q, p)


# Pushing the conditioning set and the earlier formula round apart by a few
# units of the last place of the largest entry of D or of C D^{-1} C^T, times
# the condition number of the blocks the earlier formula solves against;
# each pick then divides by its Schur complement.  On 2,000 drawn instances
# the Schur complements stayed under 1e-6 of this bound, and 6,139 closed
# forms under 4e-5 of theirs.
TOL = 1e-9


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(inst=instances())
def test_logdet_pushed_conditioning_matches_the_earlier_dense_formula(inst):
    """The Schur complements d2 (e2) along a greedy path are those of the
    earlier D_V - C D^{-1} C^T within TOL * scale * kappa / min(1, p)^2, with
    p the smallest Schur complement picked so far, and the closed form of
    the picks is within |A| times that over the smallest eigenvalue of the
    earlier matrices' A block.
    """
    ctx, spec, Q, P = inst
    cand = np.setdiff1d(np.arange(ctx.n_ground), np.union1d(Q, P))
    for mode, q, p in _modes(Q, P):
        try:
            old_M, old_N, solved = _old_blocks(ctx, spec, mode, q, p)
        except NumericError:
            with pytest.raises(NumericError):
                OPS.state(ctx, spec, q, p)
            continue
        eig = [np.linalg.eigvalsh(B) for B in solved]
        DV = _dense(ctx)[:ctx.n_ground, :ctx.n_ground]
        scale = max(1.0, np.abs(_dense(ctx)).max())
        if eig and min(e.min() for e in eig) <= TOL * scale:
            continue  # no condition number bounds the earlier formula's rounding
        # the largest subtracted term C D^{-1} C^T sits on the diagonal
        scale = max(scale, *(np.diagonal(DV - F).max(initial=0.0) for F in (old_M, old_N) if F is not None))
        kappa = max((np.abs(e).max() / e.min() for e in eig), default=1.0)

        def atol(pivot=1.0):
            return TOL * scale * kappa / min(1.0, pivot) ** 2

        def close(a, b, pivot=1.0):
            return np.allclose(a, b, rtol=0.0, atol=atol(pivot))

        n = ctx.n_ground
        old = _RefState(n, _RefCholesky(old_M, n), None if old_N is None else _RefCholesky(old_N, n))
        state = OPS.state(ctx, spec, q, p)
        rest, pivot, picks = cand, 1.0, []
        for _ in range(min(8, cand.size)):
            assert close(state.pos.d2[rest], old.pos.d2[rest], pivot)
            assert old.neg is None or close(state.neg.d2[rest], old.neg.d2[rest], pivot)
            gains = [(g, j) for j in rest.tolist() if (g := _outcome(state.gain, j)) is not NumericError]
            if not gains:
                break
            j = max(gains)[1]
            pivot = min(pivot, state.pos.d2[j], np.inf if state.neg is None else state.neg.d2[j])
            if _outcome(state.add, j) is NumericError or _outcome(old.add, j) is NumericError:
                break
            rest = rest[rest != j]
            picks.append(j)
            event(f"{mode.value} compared")
        A = np.array(sorted(picks), dtype=int)
        if not A.size:
            continue
        want = _outcome(_ref_closed, old_M, old_N, A)
        lam = min(np.linalg.eigvalsh(F[np.ix_(A, A)]).min() for F in (old_M, old_N) if F is not None)
        if want is NumericError or lam <= 0:
            continue
        assert abs(OPS.value(ctx, spec, A, q, p) - want) <= A.size * atol() / min(1.0, lam)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(["cosine", "dot", "rbf"]))
def test_logdet_int_read_bit_equal_to_array_read(seed, metric):
    """In every mode a one-entry read is its entry of the array read, bit for bit,
    and item i + n, a copy of item i, ties with it exactly until one is picked."""
    rng = np.random.default_rng(seed)
    ctx, Q, P = random_instance(rng, n_range=(4, 8), metric=metric)
    n = ctx.n_ground
    ctx = with_copies(ctx, np.arange(n), np.arange(n, ctx.size))
    Q, P = tuple(q + n for q in Q), tuple(p + n for p in P)
    spec = FunctionSpec(Family.LOG_DET, eta=float(rng.uniform(0, 1)), nu=float(rng.uniform(0, 1)))
    for mode in MeasureMode:
        state = make_state(spec, mode, ctx, Q=Q, P=P)
        picks = []
        for _ in range(n):
            rest = np.array([j for j in range(2 * n) if j not in picks])
            gains = state.gain(rest)
            assert [one_gain(state, j) for j in rest.tolist()] == gains.tolist()
            read = dict(zip(rest.tolist(), gains.tolist()))
            assert all(read[i] == read[i + n] for i in range(n) if i in read and i + n in read)
            j = int(rest[np.argmax(gains)])
            state.add(j)
            picks.append(j)


# -- the set-free pieces of a push ---------------------------------------------


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 40),
       width=st.one_of(st.just(1), st.integers(1, 3000)), scale=st.floats(-5, 4))
def test_push_contraction_bit_equal_to_the_row_sum(seed, k, width, scale):
    """_dots gives the bits of the elementwise product summed down the rows,
    which the dense reference pushes with, at every width, 1 included."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, width)) * 10.0 ** scale
    i = int(rng.integers(width))
    want = (rows[:, i, None] * rows).sum(axis=0)
    assert _dots(rows, i).tobytes() == want.tobytes()


@settings(deadline=None)
@given(n=st.integers(1, 12), m=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_cholesky_columns_are_the_union_with_the_ground_set(n, m, seed):
    """Any conditioning set in the universe, unsorted and with repeats, ground
    members included, gives the columns np.union1d gives."""
    S = np.random.default_rng(seed).integers(0, n + m, size=m + 3)
    got, want = _columns(n, S), np.union1d(np.arange(n), S)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert _columns(n, NONE).tolist() == list(range(n))


# -- memory --------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_ctx():
    rng = np.random.default_rng(7)
    n, aux = 600, 4

    def items(prefix, count):
        return [f"{prefix}{k}" for k in range(count)], rng.normal(size=(count, 16))

    return EvalContext.build(GroundSet(*items("g", n)), [AuxiliarySet(*items("q", aux), role_tag="query"),
                                                         AuxiliarySet(*items("p", aux), role_tag="private")])


def cross_only(matrix: np.ndarray, n_ground: int) -> np.ndarray:
    """Copy of a square matrix with both diagonal blocks replaced by identity,
    keeping only its V <-> V' entries."""
    out = matrix.copy()
    out[:n_ground, :n_ground] = 0.0
    out[n_ground:, n_ground:] = 0.0
    np.fill_diagonal(out, 1.0)
    return out


def _mapped_kernel(ctx):
    idx = np.arange(ctx.size)
    return ctx.similarity(idx, idx)


@pytest.mark.parametrize("metric", ["cosine", "dot", "rbf"])
def test_cross_is_the_mapped_cross_block(rng, metric):
    feats = rng.normal(size=(9, 3))
    ids = [f"i{k}" for k in range(9)]
    ctx = EvalContext.build(GroundSet(ids[:6], feats[:6]), [AuxiliarySet(ids[6:], feats[6:], role_tag="query")],
                            metric=metric)
    n, K = ctx.n_ground, ctx.kernel
    assert np.array_equal(ctx.cross, (K[n:, :n] + 1.0) / 2.0 if metric == "cosine" else K[n:, :n])
    # the kernel is symmetric, so the block serves the V x V' direction too
    assert np.array_equal(ctx.cross.T, _mapped_kernel(ctx)[:n, n:])


@st.composite
def cross_reads(draw):
    """A context and rows and cols that mix both sides, sit on one side or are empty."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.normal(size=(n + m, 2))
    ids = [f"i{k}" for k in range(n + m)]
    aux = [AuxiliarySet(ids[n:], feats[n:], role_tag="query")] if m else []
    ctx = EvalContext.build(GroundSet(ids[:n], feats[:n]), aux, metric=draw(st.sampled_from(["cosine", "dot", "rbf"])))
    sides = {"both": range(n + m), "ground": range(n), "aux": range(n, n + m)}

    def index():
        side = draw(st.sampled_from([k for k, r in sides.items() if len(r)] + ["empty"]))
        picks = [] if side == "empty" else draw(st.lists(st.sampled_from(sides[side]), min_size=1, max_size=6))
        return np.array(picks, dtype=int)

    return ctx, index(), index()


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(read=cross_reads())
def test_cross_block_is_the_dense_cross_only_kernel(read):
    ctx, rows, cols = read
    event(f"rows on {len(set((rows >= ctx.n_ground).tolist()))} side(s)")
    got = cross_block(ctx, rows, cols)
    want = cross_only(_mapped_kernel(ctx), ctx.n_ground)[np.ix_(rows, cols)]
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(got.sum(axis=1), want.sum(axis=1))


@pytest.mark.parametrize("family, mode, bound", [
    (Family.LOG_DET, MeasureMode.BASE, 0.25),
    (Family.LOG_DET, MeasureMode.SMI, 0.25),
    (Family.LOG_DET, MeasureMode.CG, 0.25),
    (Family.LOG_DET, MeasureMode.CSMI, 0.25),
    (Family.FACILITY_LOCATION_2, MeasureMode.SMI, 0.25),
    (Family.CONCAVE_OVER_MODULAR, MeasureMode.SMI, 0.25),
    (Family.DISPARITY_SUM, MeasureMode.BASE, 0.25),
    (Family.DISPARITY_MIN, MeasureMode.BASE, 0.25),
])
def test_state_peak_memory_in_kernel_sizes(big_ctx, family, mode, bound):
    """Peak bytes a state allocates while built and over 5 picks, in units
    of one N x N float array: log-det holds its n x r factors and the
    Cholesky rows of its picks; fl2 and com hold rows of the cross block,
    the disparities a few length-N vectors."""
    ctx = big_ctx
    tracemalloc.start()
    try:
        state = make_state(FunctionSpec(family), mode, ctx,
                           Q=ctx.role_indices["query"], P=ctx.role_indices["private"])
        for j in range(5):
            state.add(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (ctx.size**2 * 8) <= bound


@pytest.mark.parametrize("mode", [MeasureMode.SMI, MeasureMode.CG, MeasureMode.CSMI], ids=lambda m: m.value)
def test_closed_form_peak_memory_in_kernel_sizes(big_ctx, mode):
    """Peak bytes one log-det closed form allocates over 5 items, after a
    warm-up call, in units of one N x N float array: it reads the 5 x 5
    block and the 5 x r factor rows, never an n x n product."""
    ctx, A = big_ctx, np.arange(5)
    sets = dict(Q=ctx.role_indices["query"], P=ctx.role_indices["private"])
    spec = FunctionSpec(Family.LOG_DET)
    evaluate(spec, mode, ctx, A, **sets)
    tracemalloc.start()
    try:
        evaluate(spec, mode, ctx, A, **sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (ctx.size**2 * 8) <= 0.25
