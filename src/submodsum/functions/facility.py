"""Facility-location measures on the nonnegative kernel view.

Variant 1 scores coverage of the ground set (rows U = V):
    f(S) = sum_{i in V} max_{j in S} s_ij
    query form      sum_i min(max_{j in A} s_ij, eta * max_{j in Q} s_ij)
    conditional     sum_i max(max_{j in A} s_ij - nu * max_{j in P} s_ij, 0)
    joint           sum_i max(min(max_A, eta max_Q) - nu max_P, 0)
eta/nu scale V<->V' cross similarities only.

Variant 2 scores rows of the whole universe on the cross-only kernel:
    f_eta(S) = sum_{i in V'} max_{j in S} x_ij + eta * sum_{i in V} max_{j in S} x_ij
whose pairwise information form is
    sum_{i in Q} min(max_{j in A} s_ij, 1) + eta * sum_{i in A} min(max_{j in Q} s_ij, 1)
(the min caps are inactive for similarities in [0, 1]).  Variant 2 has no
conditional forms; those belong to variant 1.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState, column_scale, require_aux, scaled_kernel_matrix
from .spec import MeasureMode


def _colmax(F: np.ndarray, rows: np.ndarray, cols: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """max over cols per row, optionally with per-column scaling; empty cols -> 0."""
    if not cols.size:
        return np.zeros(rows.size)
    block = F[np.ix_(rows, cols)]
    if scale is not None:
        block = block * scale
    return block.max(axis=1)


class FacilityLocation1Ops(FamilyOps):
    PARAM_KEYS = ("eta", "nu")

    def base(self, ctx, spec, S):
        rows = np.arange(ctx.n_ground)
        return float(_colmax(ctx.nonneg, rows, S).sum())

    def smi(self, ctx, spec, A, Q):
        rows = np.arange(ctx.n_ground)
        amax = _colmax(ctx.nonneg, rows, A)
        qcap = _colmax(ctx.nonneg, rows, Q, column_scale(Q, ctx, spec.eta))
        return float(np.minimum(amax, qcap).sum())

    def cg(self, ctx, spec, A, P):
        rows = np.arange(ctx.n_ground)
        amax = _colmax(ctx.nonneg, rows, A)
        pcap = _colmax(ctx.nonneg, rows, P, column_scale(P, ctx, spec.nu))
        return float(np.maximum(amax - pcap, 0.0).sum())

    def csmi(self, ctx, spec, A, Q, P):
        rows = np.arange(ctx.n_ground)
        amax = _colmax(ctx.nonneg, rows, A)
        qcap = _colmax(ctx.nonneg, rows, Q, column_scale(Q, ctx, spec.eta))
        pcap = _colmax(ctx.nonneg, rows, P, column_scale(P, ctx, spec.nu))
        return float(np.maximum(np.minimum(amax, qcap) - pcap, 0.0).sum())

    def state(self, ctx, spec, mode, Q, P):
        return _FL1State(ctx, spec, mode, Q, P)

    def oracle_view(self, ctx, spec, mode, Q, P):
        eta_cols = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else ()
        nu_cols = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else ()
        return ctx.copy_with(nonneg=scaled_kernel_matrix(ctx.nonneg, ctx, eta_cols, spec.eta, nu_cols, spec.nu))

    def partials(self, ctx, spec, mode, A, Q, P):
        rows = np.arange(ctx.n_ground)
        F = ctx.nonneg
        amax = _colmax(F, rows, A)
        out: dict[str, float] = {}
        if mode in (MeasureMode.SMI, MeasureMode.CSMI):
            qaux = Q[Q >= ctx.n_ground]
            qground = Q[Q < ctx.n_ground]
            qa = _colmax(F, rows, qaux)
            qg = _colmax(F, rows, qground)
            cap = np.maximum(spec.eta * qa, qg)
            dcap = np.where(spec.eta * qa >= qg, qa, 0.0)
            inner = np.minimum(amax, cap)
            active = cap <= amax
            if mode == MeasureMode.SMI:
                out["eta"] = float((dcap * active).sum())
            else:
                pcap = _colmax(F, rows, P, column_scale(P, ctx, spec.nu))
                alive = inner - pcap >= 0
                out["eta"] = float((dcap * active * alive).sum())
                paux = P[P >= ctx.n_ground]
                pg = P[P < ctx.n_ground]
                pa_max = _colmax(F, rows, paux)
                pg_max = _colmax(F, rows, pg)
                dpcap = np.where(spec.nu * pa_max >= pg_max, pa_max, 0.0)
                out["nu"] = float((-dpcap * alive).sum())
        elif mode == MeasureMode.CG:
            paux = P[P >= ctx.n_ground]
            pg = P[P < ctx.n_ground]
            pa_max = _colmax(F, rows, paux)
            pg_max = _colmax(F, rows, pg)
            cap = np.maximum(spec.nu * pa_max, pg_max)
            dcap = np.where(spec.nu * pa_max >= pg_max, pa_max, 0.0)
            alive = amax - cap >= 0
            out["nu"] = float((-dcap * alive).sum())
        return out

    def near_kink(self, ctx, spec, mode, A, Q, P, tol):
        rows = np.arange(ctx.n_ground)
        F = ctx.nonneg
        amax = _colmax(F, rows, A)
        qcap = _colmax(F, rows, Q, column_scale(Q, ctx, spec.eta))
        pcap = _colmax(F, rows, P, column_scale(P, ctx, spec.nu))
        flags = np.zeros(rows.size, dtype=bool)
        if mode in (MeasureMode.SMI, MeasureMode.CSMI) and Q.size:
            flags |= (np.abs(amax - qcap) < tol) & (qcap > 0)
        if mode in (MeasureMode.CG, MeasureMode.CSMI) and P.size:
            lhs = np.minimum(amax, qcap) if (mode == MeasureMode.CSMI and Q.size) else amax
            flags |= (np.abs(lhs - pcap) < tol) & (pcap > 0)
        return bool(flags.any())


class _FL1State(MarginalState):
    def __init__(self, ctx, spec, mode, Q, P):
        super().__init__()
        rows = np.arange(ctx.n_ground)
        self.F = ctx.nonneg[:ctx.n_ground, :]
        self.mode = mode
        self.amax = np.zeros(ctx.n_ground)
        self.qcap = _colmax(ctx.nonneg, rows, Q, column_scale(Q, ctx, spec.eta))
        self.pcap = _colmax(ctx.nonneg, rows, P, column_scale(P, ctx, spec.nu))

    def _score(self, amax):
        if self.mode == MeasureMode.BASE:
            return amax
        if self.mode == MeasureMode.SMI:
            return np.minimum(amax, self.qcap)
        if self.mode == MeasureMode.CG:
            return np.maximum(amax - self.pcap, 0.0)
        return np.maximum(np.minimum(amax, self.qcap) - self.pcap, 0.0)

    def gain(self, j):
        cur = self._score(self.amax)
        new = self._score(np.maximum(self.amax, self.F[:, j]))
        return float((new - cur).sum())

    def _push(self, j):
        self.amax = np.maximum(self.amax, self.F[:, j])


class FacilityLocation2Ops(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI})
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        X = ctx.cross_nonneg
        shadow = np.arange(ctx.n_ground, ctx.size)
        ground = np.arange(ctx.n_ground)
        return float(_colmax(X, shadow, S).sum() + spec.eta * _colmax(X, ground, S).sum())

    def smi(self, ctx, spec, A, Q):
        require_aux(Q, ctx, "Q")
        X = ctx.cross_nonneg
        qside = np.minimum(_colmax(X, Q, A), 1.0).sum() if Q.size else 0.0
        aside = np.minimum(_colmax(X, A, Q), 1.0).sum()
        return float(qside + spec.eta * aside)

    def state(self, ctx, spec, mode, Q, P):
        return _FL2State(ctx, spec, mode, Q)

    def partials(self, ctx, spec, mode, A, Q, P):
        X = ctx.cross_nonneg
        if mode == MeasureMode.SMI:
            return {"eta": float(np.minimum(_colmax(X, A, Q), 1.0).sum())}
        return {"eta": float(_colmax(X, np.arange(ctx.n_ground), A).sum())}


class _FL2State(MarginalState):
    def __init__(self, ctx, spec, mode, Q):
        super().__init__()
        self.X = ctx.cross_nonneg
        self.eta = spec.eta
        self.capped = mode == MeasureMode.SMI  # caps come from the pairwise-information algebra
        if mode == MeasureMode.SMI:
            require_aux(Q, ctx, "Q")
            self.rows = Q.copy()
            self.qmax = np.minimum(_colmax(self.X, np.arange(ctx.n_ground), Q), 1.0)
        else:
            self.rows = np.arange(ctx.n_ground, ctx.size)
            self.qmax = np.full(ctx.n_ground, 1.0)  # base mode: each pick adds eta * x_jj = eta
        self.rowmax = np.zeros(self.rows.size)

    def gain(self, j):
        cross = self.X[self.rows, j] if self.rows.size else np.zeros(0)
        new = np.maximum(self.rowmax, cross)
        old = self.rowmax
        if self.capped:
            new = np.minimum(new, 1.0)
            old = np.minimum(old, 1.0)
        return float((new - old).sum() + self.eta * self.qmax[j])

    def _push(self, j):
        if self.rows.size:
            self.rowmax = np.maximum(self.rowmax, self.X[self.rows, j])
