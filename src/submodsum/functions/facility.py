"""Facility-location measures on the kernel mapped into [0, 1].

Variant 1 scores coverage of the ground set (rows U = V):
    Q, P empty      f(S) = sum_{i in V} max_{j in S} s_ij
    Q only          sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)
    P only          sum_i max(max_{j in A} s_ij - nu * max_{j in P} s_ij, 0)
    Q and P         sum_i max(min(max_A, eta max_Q) - nu max_P, 0)
eta * max_Q and nu * max_P stand for the weights of the one eta/nu pair
rule, _common.pair_weighted: eta weights s_ij where j is an auxiliary
member of Q, nu where it is one of P, so a ground item in Q or P counts at
its own similarity.  Every form clips max_{j in A} s_ij under a query cap
where Q is nonempty and then above a conditioning floor where P is; _caps
gives both per ground row, and the closed form, the marginal state,
partials and near_kink all read them from there.

Variant 2 scores rows of the whole universe on the cross-only kernel
(the mapped V <-> V' similarities, the identity within a side):
    f_eta(S) = sum_{i in V'} max_{j in S} x_ij + eta * sum_{i in V} max_{j in S} x_ij
whose pairwise information form (Q nonempty) is
    sum_{i in Q} max_{j in A} x_ij + eta * sum_{i in A} max_{j in Q} x_ij
when every cross similarity lies in [0, 1], as it does for cosine and rbf.
The dot metric can leave that range, where the form is not the measure,
so variant 2 rejects such a kernel.  Variant 2 has no conditional forms;
those belong to variant 1.

Both marginal states keep every candidate's gain as a sum of per-row
contributions.  Variant 1 keeps partial sums over blocks of ground rows,
on the ground columns only (auxiliary items are never candidates), and on
a pick recomputes only the blocks holding a row whose clipped best moved:
a row's contributions depend on that alone.  It reads one block's rows at
a time from the kernel in place, in the context's shifted units
u = k + shift (s = scale * u), and keeps its bests and caps in the same
units, so it holds no mapped copy of the n x n ground block.  Before the first pick a row's
best is the empty max, -inf, so a first pick scores its clipped
similarities as the closed form does, negative dot similarities included.
Variant 2 recomputes its few query/auxiliary rows outright.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ._common import FamilyOps, MarginalState, cross_block, pair_masks, pair_weighted
from .spec import MeasureMode

_ROWS = 16  # ground rows per partial sum of the fl1 gains


def _best(ctx, cols) -> np.ndarray:
    """max_{j in cols} s_ij per ground row i of the mapped kernel."""
    return ctx.similarity(slice(ctx.n_ground), cols).max(axis=1)


def _caps(ctx, spec, Q, P):
    """(query cap, conditioning floor) per ground row, None for an empty Q
    or P: the weighted max_{j in Q} and max_{j in P} of s_ij."""
    n = ctx.n_ground

    def cap(S):
        return pair_weighted(ctx, spec, ctx.similarity(slice(n), S), np.arange(n), S, Q, P).max(axis=1)

    return (cap(Q) if Q.size else None), (cap(P) if P.size else None)


def _dcap(ctx, S, t, cap, Q, P):
    """d cap / d t per ground row for a cap of S weighted by t: the best
    similarity among the pairs t reaches where, weighted, it attains the
    cap (those pairs win ties with the others), else 0."""
    n = ctx.n_ground
    reach = np.logical_or(*pair_masks(ctx, np.arange(n), S, Q, P))
    if not reach.any():
        return np.zeros(n)
    best = np.where(reach, ctx.similarity(slice(n), S), -np.inf).max(axis=1)
    return np.where(t * best >= cap, best, 0.0)


class FacilityLocation1Ops(FamilyOps):
    PARAM_KEYS = ("eta", "nu")

    def value(self, ctx, spec, A, Q, P):
        qcap, pcap = _caps(ctx, spec, Q, P)
        x = _best(ctx, A)
        if qcap is not None:
            x = np.minimum(x, qcap)
        if pcap is not None:
            x = np.maximum(x - pcap, 0.0)
        return float(x.sum())

    def state(self, ctx, spec, Q, P):
        return _FL1State(ctx, spec, Q, P)

    def oracle_view(self, ctx, spec, Q, P):
        idx = np.arange(ctx.size)  # mapped already: a metric that maps nothing
        return ctx.copy_with(kernel=pair_weighted(ctx, spec, ctx.similarity(idx, idx), idx, idx, Q, P), metric="dot")

    def partials(self, ctx, spec, A, Q, P):
        qcap, pcap = _caps(ctx, spec, Q, P)
        amax = _best(ctx, A)
        inner = amax if qcap is None else np.minimum(amax, qcap)
        alive = True if pcap is None else inner - pcap >= 0
        out: dict[str, float] = {}
        if qcap is not None:
            out["eta"] = float((_dcap(ctx, Q, spec.eta, qcap, Q, P) * (qcap <= amax) * alive).sum())
        if pcap is not None:
            out["nu"] = float((-_dcap(ctx, P, spec.nu, pcap, Q, P) * alive).sum())
        return out

    def near_kink(self, ctx, spec, A, Q, P, tol):
        qcap, pcap = _caps(ctx, spec, Q, P)
        lhs = _best(ctx, A)
        flags = np.zeros(lhs.size, dtype=bool)
        if qcap is not None:
            flags |= (np.abs(lhs - qcap) < tol) & (qcap > 0)
            lhs = np.minimum(lhs, qcap)
        if pcap is not None:
            flags |= (np.abs(lhs - pcap) < tol) & (pcap > 0)
        return bool(flags.any())


class _FL1State(MarginalState):
    """Ground row i adds score(max(amax_i, s_ij)) - score(amax_i) to candidate j's gain.

    Every form's score is a clip of amax, the best similarity to a pick, to
    a per-row band [lo, hi] (the conditioning floor and the query cap), so
    row i's contributions depend on its clipped best c_i = clip(amax_i, lo_i,
    hi_i) alone: row i adds min(max(s_ij - c_i, low), hi_i - c_i) with
    low = 0.  Before the first pick amax is the empty max, -inf, so c is the
    floor, or -inf for an empty P.  There row i must add
    min(s_ij, hi_i), as the closed form scores a first pick, negative
    similarities included: c holds 0 in place of -inf and low is -inf until
    that pick moves every row.

    The state holds no copy of the n x n ground block: it reads the
    kernel's ground rows in place, in the context's units u = k + shift,
    and holds c and hi divided by scale.  scale is a power of two, so every
    difference, clip and sum is the one in similarity units divided by
    scale exactly, and gains, multiplied back by scale, carry the same
    bits.  part[b] sums, for every candidate (a ground column: auxiliary
    items are never candidates), the contributions of the rows of block b,
    _ROWS of them (fewer in the last block where _ROWS does not divide n).
    A pick recomputes, block by block, only the blocks holding a row whose
    clipped best moved, and gains is the fixed-order sum of the parts.  The
    gains thus depend on the current selection alone, not on the order it
    grew in: candidates with equal per-row contributions tie exactly, and a
    candidate that improves no row reads exactly 0.0.
    """

    def __init__(self, ctx, spec, Q, P):
        n = ctx.n_ground
        self.ctx = ctx  # its ground rows are read in place, never written
        self.shift, self.scale = ctx.shift, ctx.scale
        qcap, pcap = _caps(ctx, spec, Q, P)
        self.capped = qcap is not None
        qcap = np.full(n, np.inf) if qcap is None else qcap
        c, self.low = (np.zeros(n), -np.inf) if pcap is None else (pcap, 0.0)
        hi = qcap if pcap is None else np.maximum(qcap, pcap)
        # a cap past every s (huge eta or nu) would overflow in u units; one
        # at the largest s it can reach clips alike, so it is held there
        top = np.finfo(float).max * self.scale
        self.c, self.hi = (np.minimum(x, top) / self.scale for x in (c, hi))
        self.part = np.zeros((-(-n // _ROWS), n))
        self._recompute(np.arange(self.part.shape[0]))

    def _recompute(self, blocks):
        """Rebuild the parts of the given blocks, one block at a time.  A
        block's kernel rows are read whole, as u = k + shift, or as a copy
        where shift is 0: whole rows lie contiguous in the kernel, where
        numpy adds about twice as fast as over the ground columns alone; the
        auxiliary columns ride along and are dropped from the sum."""
        n = self.c.size
        for b in blocks.tolist():
            r = slice(b * _ROWS, min((b + 1) * _ROWS, n))
            rows = self.ctx.block(r, slice(None))
            d = rows + self.shift if self.shift else rows.copy()
            c = self.c[r, None]
            d -= c
            np.maximum(d, self.low, out=d)
            if self.capped:
                np.minimum(d, self.hi[r, None] - c, out=d)
            self.part[b] = d.sum(axis=0)[:n]
        self.gains = self.part.sum(axis=0)
        self.gains *= self.scale

    def add(self, j):
        # row j is column j: the kernel is exactly symmetric
        row = self.ctx.block(j, slice(self.c.size))
        best = np.minimum(row + self.shift if self.shift else row, self.hi)
        # the first pick moves every row off the empty max; a later one, the rows whose clipped best it raises
        rows = np.arange(best.size) if self.low < 0 else np.flatnonzero(best > self.c)
        self.c[rows] = best[rows]
        self.low = 0.0
        self._recompute(np.unique(rows // _ROWS))


def _cross(ctx, rows, cols) -> np.ndarray:
    """rows x cols of the cross-only kernel, whose cross similarities are
    checked to lie in [0, 1], where variant 2's pairwise information form
    is the measure."""
    if ctx.cross.min(initial=0.0) < 0.0 or ctx.cross.max(initial=1.0) > 1.0:
        raise ConfigError(f"facility-location-2 needs cross similarities in [0, 1], but the "
                          f"{ctx.metric} kernel has cross similarities outside it")
    return cross_block(ctx, rows, cols)


class FacilityLocation2Ops(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI})
    AUX_ONLY = True
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        shadow = np.arange(ctx.n_ground, ctx.size)
        ground = np.arange(ctx.n_ground)
        return float(_cross(ctx, shadow, S).max(axis=1).sum()
                     + spec.eta * _cross(ctx, ground, S).max(axis=1).sum())

    def value(self, ctx, spec, A, Q, P):
        return float(_cross(ctx, Q, A).max(axis=1).sum() + spec.eta * _cross(ctx, A, Q).max(axis=1).sum())

    def state(self, ctx, spec, Q, P):
        return _FL2State(ctx, spec, Q)

    def partials(self, ctx, spec, A, Q, P):
        if Q.size:
            return {"eta": float(_cross(ctx, A, Q).max(axis=1).sum())}
        return {"eta": float(_cross(ctx, np.arange(ctx.n_ground), A).max(axis=1).sum())}


class _FL2State(MarginalState):
    def __init__(self, ctx, spec, Q):
        n = ctx.n_ground
        if Q.size:
            rows = Q
            qmax = _cross(ctx, np.arange(n), Q).max(axis=1)
        else:
            rows = np.arange(n, ctx.size)
            qmax = np.full(n, 1.0)  # f itself: each pick adds eta * x_jj = eta
        self.cross = _cross(ctx, rows, np.arange(n))
        self.item_term = spec.eta * qmax
        self.rowmax = np.zeros(rows.size)
        self._refresh()

    def _refresh(self):
        old = self.rowmax[:, None]
        self.gains = (np.maximum(self.cross, old) - old).sum(axis=0) + self.item_term

    def add(self, j):
        self.rowmax = np.maximum(self.rowmax, self.cross[:, j])
        self._refresh()
