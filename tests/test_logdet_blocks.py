"""Log-det and the cross-only kernel read the kernel instead of N x N copies.

Log-det reads every block it needs from the kernel and adds the jitter
where a row and a column are the same item, instead of reading a stored
D = K + jitter * I.  The property test below keeps the earlier dense code
as its reference and asks for the same bits: the blocks, every gain of a
greedy run, the closed forms and the parameter gradients.  The cross-only
kernel of fl2 and com is read block by block from the context's m x n
cross block, and its property test asks for the bits of the dense N x N
matrix.  The memory test bounds what a state allocates on top of the
kernel.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from submodsum.data import AuxiliarySet, GroundSet
from submodsum.errors import NumericError
from submodsum.functions import EvalContext, Family, FunctionSpec, MeasureMode, make_state
from submodsum.functions._common import cross_block, pair_scaled_block
from submodsum.functions.logdet import LogDetOps, _logdet_psd, _solve_psd

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

OPS = LogDetOps()
NONE = np.zeros(0, dtype=int)


# -- the dense reference: the code that formed D = K + jitter * I ------------


def _dense(ctx):
    D = ctx.kernel.copy()
    D[np.diag_indices_from(D)] += ctx.jitter
    return D


def _ref_blocks(ctx, spec, mode, Q, P):
    """(M, N) over V with value(A) = logdet M_A - logdet N_A (N may be None)."""
    D = _dense(ctx)
    n = ctx.n_ground
    V = np.arange(n)
    DV = D[:n, :n]
    if mode == MeasureMode.BASE:
        return DV, None
    if mode == MeasureMode.SMI:
        Cq = pair_scaled_block(D, V, Q, ctx, Q, spec.eta, (), 1.0)
        return DV, DV - Cq @ _solve_psd(D[np.ix_(Q, Q)], Cq.T)
    if mode == MeasureMode.CG:
        Cp = pair_scaled_block(D, V, P, ctx, (), 1.0, P, spec.nu)
        return DV - Cp @ _solve_psd(D[np.ix_(P, P)], Cp.T), None
    B1 = pair_scaled_block(D, V, P, ctx, Q, spec.eta, P, spec.nu)
    B2 = pair_scaled_block(D, P, Q, ctx, Q, spec.eta, P, spec.nu)
    B3 = pair_scaled_block(D, V, Q, ctx, Q, spec.eta, P, spec.nu)
    DP = D[np.ix_(P, P)]
    DQ = D[np.ix_(Q, Q)]
    M = DV - B1 @ _solve_psd(DP, B1.T)
    GQ = DQ - B2.T @ _solve_psd(DP, B2)
    GVQ = B3 - B1 @ _solve_psd(DP, B2)
    return M, M - GVQ @ _solve_psd(GQ, GVQ.T)


class _RefCholesky:
    def __init__(self, mat):
        self.mat = mat
        self.d2 = np.diagonal(mat).astype(float)
        self.C = np.zeros((0, mat.shape[0]))
        self.k = 0

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
    def __init__(self, M, N):
        self.pos = _RefCholesky(M)
        self.neg = None if N is None else _RefCholesky(N)

    def gain(self, j):
        d2 = self.pos.d2[j]
        if not d2 > 0:
            raise NumericError("not positive definite")
        if self.neg is None:
            return math.log(d2)
        e2 = self.neg.d2[j]
        if not e2 > 0:
            raise NumericError("not positive definite")
        return math.log(d2) - math.log(e2)

    def add(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)


def _ref_closed(M, N, A):
    value = _logdet_psd(M[np.ix_(A, A)])
    return value if N is None else value - _logdet_psd(N[np.ix_(A, A)])


def _outcome(fn, *args):
    """fn's value, or the NumericError it raised, as something == compares."""
    try:
        return fn(*args)
    except NumericError:
        return NumericError


# -- the property ------------------------------------------------------------


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


def _effective(M, jitter):
    out = np.array(M)
    out[np.diag_indices_from(out)] += jitter
    return out


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(inst=instances())
def test_logdet_blocks_bit_equal_to_dense_reference(inst):
    ctx, spec, Q, P = inst
    cand = np.setdiff1d(np.arange(ctx.n_ground), np.union1d(Q, P))
    dense = ctx.copy_with(kernel=_dense(ctx), jitter=0.0)
    for mode in MeasureMode:
        q = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else NONE
        p = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else NONE
        if (q is Q and not Q.size) or (p is P and not P.size):
            continue
        try:
            ref_M, ref_N = _ref_blocks(ctx, spec, mode, q, p)
        except NumericError:
            with pytest.raises(NumericError):
                OPS._blocks(ctx, spec, mode, q, p)
            continue
        M, N, jitter = OPS._blocks(ctx, spec, mode, q, p)
        assert np.array_equal(_effective(M, jitter), ref_M)
        assert (N is None and ref_N is None) or np.array_equal(N, ref_N)

        ref, state = _RefState(ref_M, ref_N), OPS.state(ctx, spec, mode, q, p)
        picks = []
        for _ in range(min(8, cand.size)):
            rest = [int(j) for j in cand if j not in picks]
            gains = [_outcome(state.gain, j) for j in rest]
            assert gains == [_outcome(ref.gain, j) for j in rest]
            finite = [(g, j) for g, j in zip(gains, rest) if g is not NumericError]
            if not finite:
                break
            j = max(finite)[1]
            if _outcome(ref.add, j) is NumericError:
                with pytest.raises(NumericError):
                    state.add(j)
                break
            state.add(j)
            picks.append(j)
            # the picked items' own Schur complements too, which no later gain reads
            assert np.array_equal(state.pos.d2, ref.pos.d2)
            assert ref.neg is None or np.array_equal(state.neg.d2, ref.neg.d2)

        A = np.array(sorted(picks), dtype=int)
        if not A.size:
            continue
        event(f"{mode.value} compared")
        want = _outcome(_ref_closed, ref_M, ref_N, A)
        assert _outcome(OPS.value, ctx, spec, mode, A, q, p) == want
        if mode == MeasureMode.BASE:
            assert _outcome(OPS.base, ctx, spec, A) == want
        # partials changed only in where they read D, so on a context whose
        # kernel is D and whose jitter is zero they run the dense code
        assert (_outcome(OPS.partials, ctx, spec, mode, A, q, p)
                == _outcome(OPS.partials, dense, spec, mode, A, q, p))


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
    (Family.LOG_DET, MeasureMode.SMI, 1.25),
    (Family.LOG_DET, MeasureMode.CG, 1.25),
    (Family.LOG_DET, MeasureMode.CSMI, 2.25),
    (Family.FACILITY_LOCATION_2, MeasureMode.SMI, 0.25),
    (Family.CONCAVE_OVER_MODULAR, MeasureMode.SMI, 0.25),
    (Family.DISPARITY_SUM, MeasureMode.BASE, 0.25),
    (Family.DISPARITY_MIN, MeasureMode.BASE, 0.25),
])
def test_state_peak_memory_in_kernel_sizes(big_ctx, family, mode, bound):
    """Peak bytes a state allocates while built and over 5 picks, in units
    of one N x N float array: log-det holds at most its conditioned n x n
    blocks; fl2 and com hold rows of the cross block, the disparities a
    few length-N vectors."""
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
