"""Facility-location-1's state refreshes only the row blocks whose clipped best moved.

A ground row's contributions to every candidate's gain depend on its clipped
best c_i = clip(amax_i, lo_i, hi_i) alone, so a pick recomputes only the
blocks of _ROWS rows that hold a row whose c it raised.  The property test
rebuilds every block of a copy of the state after each pick of a greedy
path and asks for the same bits, on rbf, cosine and dot kernels, in every
mode, with eta and nu drawn so that query caps and conditioning floors bind.

The state reads the kernel in place, in the context's units k + shift; a
second property test holds it to the arithmetic of a mapped copy of the
ground block in similarity units, bit for bit, and a memory test keeps any
n x n copy out of building the state and solving with it.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from submodsum.bench import random_instance
from submodsum.functions import Family, FunctionSpec, MeasureMode, make_state
from submodsum.functions.api import _reduce
from submodsum.functions.facility import _ROWS, _caps
from submodsum.optimize import Flavor, master_solve

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# 0 and 1 exactly, and values past 1: eta > 1 lifts the query cap above the
# best query similarity, a large nu lifts the floor over most rows' bests
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0))

# elements per batch of the reference state below, which sums many blocks
# in one padded pass where the state sums one block at a time
_BATCH = 1 << 17


def _rebuilt(state):
    """A copy of the state with every block's part recomputed from its c."""
    full = copy.copy(state)
    full.part = state.part.copy()
    full._recompute(np.arange(state.part.shape[0]))
    return full


@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(["rbf", "cosine", "dot"]),
       n=st.integers(1, 70), eta=weights, nu=weights)
def test_fl1_state_matches_full_rebuild(seed, metric, n, eta, nu):
    """After every add along a greedy path the parts and gains are those of
    a state whose blocks were all rebuilt at the same selection, bit for bit."""
    rng = np.random.default_rng(seed)
    ctx, Q, P = random_instance(rng, n_range=(n, n), metric=metric, concepts=False)
    spec = FunctionSpec(Family.FACILITY_LOCATION_1, eta=eta, nu=nu)
    for mode in MeasureMode:
        state = make_state(spec, mode, ctx, Q=Q, P=P)
        floor = state.c.copy()
        rest = np.arange(n)
        for _ in range(min(n, 8)):
            j = int(rest[np.argmax(state.gain(rest))])
            state.add(j)
            rest = rest[rest != j]
            full = _rebuilt(state)
            assert full.part.tobytes() == state.part.tobytes(), (mode, j)
            assert full.gains.tobytes() == state.gains.tobytes(), (mode, j)
        capped = bool(np.any(state.c == state.hi))
        floored = mode in (MeasureMode.CG, MeasureMode.CSMI) and bool(np.any(state.c == floor))
        event(f"{mode.value}: cap binds {capped}, floor binds {floored}")


class _MappedCopyState:
    """fl1's state on a mapped copy F of the ground block, with its bests
    and caps in similarity units: the arithmetic the in-place state must
    reproduce bit for bit.  It rebuilds its blocks in batches of up to
    _BATCH elements, with the last block padded by zero rows to _ROWS, so
    it stays an arithmetic independent of the state's block-at-a-time
    sweep."""

    def __init__(self, ctx, spec, mode, Q, P):
        n = ctx.n_ground
        self.F = ctx.similarity(slice(n), slice(n))
        qcap, pcap = _caps(ctx, spec, mode, Q, P)
        self.capped = qcap is not None
        qcap = np.full(n, np.inf) if qcap is None else qcap
        self.c, self.low = (np.zeros(n), -np.inf) if pcap is None else (pcap, 0.0)
        self.hi = qcap if pcap is None else np.maximum(qcap, pcap)
        self.part = np.zeros((-(-n // _ROWS), n))
        self.value = 0.0
        self._recompute(np.arange(self.part.shape[0]))

    def _recompute(self, blocks):
        n = self.F.shape[0]
        step = max(1, _BATCH // max(1, _ROWS * n))
        for s in range(0, blocks.size, step):
            b = blocks[s:s + step]
            r = (b[:, None] * _ROWS + np.arange(_ROWS)).ravel()
            short = r >= n
            r[short] = n - 1
            c = self.c[r, None]
            d = self.F[r]
            d -= c
            np.maximum(d, self.low, out=d)
            if self.capped:
                np.minimum(d, self.hi[r, None] - c, out=d)
            d[short] = 0.0
            self.part[b] = d.reshape(b.size, _ROWS, n).sum(axis=1)
        self.gains = self.part.sum(axis=0)

    def add(self, j):
        self.value += float(self.gains[j])
        best = np.minimum(self.F[j], self.hi)
        rows = np.arange(best.size) if self.low < 0 else np.flatnonzero(best > self.c)
        self.c[rows] = best[rows]
        self.low = 0.0
        self._recompute(np.unique(rows // _ROWS))


@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(["rbf", "cosine", "dot"]),
       n=st.integers(1, 70), eta=st.one_of(weights, st.just(1e308)), nu=st.one_of(weights, st.just(1e308)))
def test_fl1_state_matches_mapped_copy_arithmetic(seed, metric, n, eta, nu):
    """Along a greedy path the in-place state's gains, the running sum of
    its pick gains, its parts and clipped bests are those of the mapped-copy state, bit for bit, once
    scaled back to similarity units; a cap of 1e308 past every similarity
    is held at the largest one the kernel can map to (dot similarities
    reach past 1, where eta * s would overflow before any state is built)."""
    assume(metric != "dot" or max(eta, nu) < 1e308)
    rng = np.random.default_rng(seed)
    ctx, Q, P = random_instance(rng, n_range=(n, n), metric=metric, concepts=False)
    assert np.array_equal(ctx.similarity(slice(None), slice(None)), ctx.scale * (ctx.kernel + ctx.shift))
    top = np.finfo(float).max * ctx.scale
    spec = FunctionSpec(Family.FACILITY_LOCATION_1, eta=eta, nu=nu)
    for mode in MeasureMode:
        state = make_state(spec, mode, ctx, Q=Q, P=P)
        eff, _, q, p = _reduce(spec, mode, ctx, (), Q, P)
        ref = _MappedCopyState(ctx, spec, eff, q, p)
        rest = np.arange(n)
        picked, total = [], 0.0
        for _ in range(min(n, 8) + 1):
            assert state.gains.tobytes() == ref.gains.tobytes(), (mode, picked)
            assert (state.part * ctx.scale).tobytes() == ref.part.tobytes(), (mode, picked)
            assert (state.c * ctx.scale).tobytes() == np.minimum(ref.c, top).tobytes(), (mode, picked)
            assert total == ref.value, (mode, picked)
            if not rest.size or len(picked) == 8:
                break
            g = state.gain(rest)
            j = int(rest[np.argmax(g)])
            total += float(g.max())
            state.add(j)
            ref.add(j)
            picked.append(j)
            rest = rest[rest != j]


@pytest.mark.parametrize("metric", ["cosine", "rbf"])
def test_fl1_solve_allocates_no_ground_block_copy(metric):
    """Building the state and a k = 10 greedy at n = 1000, in every mode,
    raise traced memory by less than n^2 * 8 / 4 bytes, so no array a
    quarter of the n x n ground block is ever allocated (a mapped copy of
    that block was 8 MB here).  A first untraced solve imports what the
    solve imports lazily."""
    n = 1000
    ctx, Q, P = random_instance(np.random.default_rng(3), n_range=(n, n), metric=metric, concepts=False)
    spec = FunctionSpec(Family.FACILITY_LOCATION_1)
    for flavor in (Flavor.GENERIC, Flavor.QUERY, Flavor.PRIVACY, Flavor.QUERY_PRIVACY):
        master_solve(flavor, spec, ctx, 10, Q=Q, P=P)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            master_solve(flavor, spec, ctx, 10, Q=Q, P=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < n * n * 8 / 4, (flavor, peak - start)
