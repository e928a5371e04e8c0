"""Facility-location measures on the nonnegative kernel view.

Variant 1 scores coverage of the ground set (rows U = V):
    f(S) = sum_{i in V} max_{j in S} s_ij
    query form      sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)
    conditional     sum_i max(max_{j in A} s_ij - nu * max_{j in P} s_ij, 0)
    joint           sum_i max(min(max_A, eta max_Q) - nu max_P, 0)
eta/nu scale V<->V' cross similarities only.  Every mode clips
max_{j in A} s_ij under a query cap and then above a conditioning floor;
_caps gives both per ground row, and the closed form, the marginal state,
partials and near_kink all read them from there.

Variant 2 scores rows of the whole universe on the cross-only kernel:
    f_eta(S) = sum_{i in V'} max_{j in S} x_ij + eta * sum_{i in V} max_{j in S} x_ij
whose pairwise information form is
    sum_{i in Q} max_{j in A} x_ij + eta * sum_{i in A} max_{j in Q} x_ij
when every cross similarity lies in [0, 1], as it does for cosine and rbf.
The dot metric can leave that range, where the form is not the measure,
so variant 2 rejects such a kernel.  Variant 2 has no conditional forms;
those belong to variant 1.

Both marginal states keep every candidate's gain as a sum of per-row
contributions.  Variant 1 keeps partial sums over blocks of ground rows
and, on a pick, recomputes only the blocks where a row's best similarity
changed; variant 2 recomputes its few query/auxiliary rows outright.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ._common import FamilyOps, MarginalState, column_scale, pair_scaled_block, require_aux
from .spec import MeasureMode

_BLOCK = 1 << 17  # elements per temporary when a state sweeps kernel rows
_ROWS = 16  # ground rows per partial sum of the fl1 gains


def _colmax(F: np.ndarray, rows: np.ndarray, cols: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """max over cols per row, optionally with per-column scaling; empty cols -> 0."""
    if not cols.size:
        return np.zeros(rows.size)
    block = F[np.ix_(rows, cols)]
    if scale is not None:
        block = block * scale
    return block.max(axis=1)


def _caps(ctx, spec, mode, Q, P):
    """(query cap, conditioning floor) per ground row, None where the mode
    reads no such set: eta * max_Q s_ij and nu * max_P s_ij, with eta and
    nu scaling only auxiliary columns."""
    rows = np.arange(ctx.n_ground)
    qcap = pcap = None
    if mode in (MeasureMode.SMI, MeasureMode.CSMI):
        qcap = _colmax(ctx.nonneg, rows, Q, column_scale(Q, ctx, spec.eta))
    if mode in (MeasureMode.CG, MeasureMode.CSMI):
        pcap = _colmax(ctx.nonneg, rows, P, column_scale(P, ctx, spec.nu))
    return qcap, pcap


def _dcap(ctx, S, t, cap):
    """d cap / d t per ground row for a cap of S scaled by t: the best
    auxiliary similarity where it attains the cap (auxiliary columns win
    ties with ground ones), else 0."""
    rows = np.arange(ctx.n_ground)
    aux = S[S >= ctx.n_ground]
    if not aux.size:
        return np.zeros(rows.size)
    best = _colmax(ctx.nonneg, rows, aux)
    return np.where(t * best >= cap, best, 0.0)


class FacilityLocation1Ops(FamilyOps):
    PARAM_KEYS = ("eta", "nu")

    def value(self, ctx, spec, mode, A, Q, P):
        qcap, pcap = _caps(ctx, spec, mode, Q, P)
        x = _colmax(ctx.nonneg, np.arange(ctx.n_ground), A)
        if qcap is not None:
            x = np.minimum(x, qcap)
        if pcap is not None:
            x = np.maximum(x - pcap, 0.0)
        return float(x.sum())

    def state(self, ctx, spec, mode, Q, P):
        return _FL1State(ctx, spec, mode, Q, P)

    def oracle_view(self, ctx, spec, mode, Q, P):
        eta_cols = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else ()
        nu_cols = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else ()
        idx = np.arange(ctx.size)
        return ctx.copy_with(nonneg=pair_scaled_block(ctx.nonneg, idx, idx, ctx, eta_cols, spec.eta, nu_cols, spec.nu))

    def partials(self, ctx, spec, mode, A, Q, P):
        qcap, pcap = _caps(ctx, spec, mode, Q, P)
        amax = _colmax(ctx.nonneg, np.arange(ctx.n_ground), A)
        inner = amax if qcap is None else np.minimum(amax, qcap)
        alive = True if pcap is None else inner - pcap >= 0
        out: dict[str, float] = {}
        if qcap is not None:
            out["eta"] = float((_dcap(ctx, Q, spec.eta, qcap) * (qcap <= amax) * alive).sum())
        if pcap is not None:
            out["nu"] = float((-_dcap(ctx, P, spec.nu, pcap) * alive).sum())
        return out

    def near_kink(self, ctx, spec, mode, A, Q, P, tol):
        qcap, pcap = _caps(ctx, spec, mode, Q, P)
        lhs = _colmax(ctx.nonneg, np.arange(ctx.n_ground), A)
        flags = np.zeros(lhs.size, dtype=bool)
        if qcap is not None:
            flags |= (np.abs(lhs - qcap) < tol) & (qcap > 0)
            lhs = np.minimum(lhs, qcap)
        if pcap is not None:
            flags |= (np.abs(lhs - pcap) < tol) & (pcap > 0)
        return bool(flags.any())


class _FL1State(MarginalState):
    """Ground row i adds score(max(amax_i, F_ij)) - score(amax_i) to candidate j's gain.

    Every mode's score is a clip of amax to a per-row band [lo, hi] (the
    query cap and the conditioning floor), so row i adds
    min(max(F_ij - c_i, 0), hi_i - c_i) with c_i = clip(amax_i, lo_i, hi_i).

    part[b] sums, for every candidate, the contributions of the _ROWS rows
    of block b; a pick recomputes only the blocks holding a row whose best
    similarity changed, and gains is the fixed-order sum of the parts.  The
    gains thus depend on the current selection alone, not on the order it
    grew in: candidates with equal per-row contributions tie exactly, and
    a candidate that improves no row reads exactly 0.0.
    """

    def __init__(self, ctx, spec, mode, Q, P):
        super().__init__()
        n = ctx.n_ground
        self.F = ctx.nonneg[:n, :]
        self.amax = np.zeros(n)
        qcap, pcap = _caps(ctx, spec, mode, Q, P)
        self.capped = qcap is not None
        unbounded = np.full(n, np.inf)
        qcap = unbounded if qcap is None else qcap
        pcap = -unbounded if pcap is None else pcap
        self.lo, self.hi = pcap, np.maximum(qcap, pcap)
        self.part = np.zeros((-(-n // _ROWS), self.F.shape[1]))
        self._recompute(np.arange(self.part.shape[0]))

    def _recompute(self, blocks):
        """Rebuild the parts of the given (ascending) blocks, a few blocks per pass."""
        n, width = self.F.shape
        step = max(1, _BLOCK // (_ROWS * width))
        for s in range(0, blocks.size, step):
            b = blocks[s:s + step]
            r = (b[:, None] * _ROWS + np.arange(_ROWS)).ravel()
            short = r >= n  # rows past the end pad the last block with zeros
            r[short] = n - 1
            c = np.clip(self.amax[r], self.lo[r], self.hi[r])[:, None]
            d = self.F[r]
            d -= c
            np.maximum(d, 0.0, out=d)
            if self.capped:
                np.minimum(d, self.hi[r, None] - c, out=d)
            d[short] = 0.0
            self.part[b] = d.reshape(b.size, _ROWS, width).sum(axis=1)
        self.gains = self.part.sum(axis=0)

    def _push(self, j):
        col = self.F[:, j]
        rows = np.flatnonzero(col > self.amax)  # every other row keeps its contributions
        self.amax[rows] = col[rows]
        self._recompute(np.unique(rows // _ROWS))


def _cross(ctx) -> np.ndarray:
    """The cross-only view, checked to lie in [0, 1], where variant 2's
    pairwise information form is the measure."""
    X = ctx.cross_nonneg
    n = ctx.n_ground
    if any(b.min(initial=0.0) < 0.0 or b.max(initial=1.0) > 1.0 for b in (X[:n, n:], X[n:, :n])):
        raise ConfigError(f"facility-location-2 needs cross similarities in [0, 1], but the "
                          f"{ctx.metric} kernel has cross similarities outside it")
    return X


class FacilityLocation2Ops(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI})
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        X = _cross(ctx)
        shadow = np.arange(ctx.n_ground, ctx.size)
        ground = np.arange(ctx.n_ground)
        return float(_colmax(X, shadow, S).sum() + spec.eta * _colmax(X, ground, S).sum())

    def value(self, ctx, spec, mode, A, Q, P):
        if mode == MeasureMode.BASE:
            return self.base(ctx, spec, A)
        require_aux(Q, ctx, "Q")
        X = _cross(ctx)
        return float(_colmax(X, Q, A).sum() + spec.eta * _colmax(X, A, Q).sum())

    def state(self, ctx, spec, mode, Q, P):
        return _FL2State(ctx, spec, mode, Q)

    def partials(self, ctx, spec, mode, A, Q, P):
        X = _cross(ctx)
        if mode == MeasureMode.SMI:
            return {"eta": float(_colmax(X, A, Q).sum())}
        return {"eta": float(_colmax(X, np.arange(ctx.n_ground), A).sum())}


class _FL2State(MarginalState):
    def __init__(self, ctx, spec, mode, Q):
        super().__init__()
        n = ctx.n_ground
        require_aux(Q, ctx, "Q")  # Q is empty in base mode
        X = _cross(ctx)
        if mode == MeasureMode.SMI:
            rows = Q
            qmax = _colmax(X, np.arange(n), Q)
        else:
            rows = np.arange(n, ctx.size)
            qmax = np.full(n, 1.0)  # base mode: each pick adds eta * x_jj = eta
        self.cross = X[rows, :n]
        self.item_term = spec.eta * qmax
        self.rowmax = np.zeros(rows.size)
        self._refresh()

    def _refresh(self):
        old = self.rowmax[:, None]
        self.gains = (np.maximum(self.cross, old) - old).sum(axis=0) + self.item_term

    def _push(self, j):
        self.rowmax = np.maximum(self.rowmax, self.cross[:, j])
        self._refresh()
