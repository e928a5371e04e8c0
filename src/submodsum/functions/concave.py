"""Concave-over-modular measure on the cross-only nonnegative kernel.

With psi concave nondecreasing, psi(0) = 0, deltas (data_side, query_side):

    pairwise info   I(A; Q) = dq * sum_{i in Q} psi(sum_{j in A} x_ij)
                            + da * sum_{i in A} psi(sum_{j in Q} x_ij)
    conditional     f(A|P)  = dq * sum_{i in V'\\P} psi(sum_A x) +
                              da * sum_{i in A} [psi(g) - psi(sum_P x_i)]
    joint           I(A;Q|P)= dq * sum_{i in Q} psi(sum_A x) +
                              da * sum_{i in A} [psi(sum_Q x + sum_P x) - psi(sum_P x)]

all derived from the restricted base

    f(S) = dq * sum_{i in V'} max(psi(sum_{j in S^V} x_ij), psi(g * [i in S]))
         + da * sum_{i in V} max(psi(sum_{j in S^V'} x_ij), psi(g * [i in S]))

with guard g = sqrt(|V|).  The identities assume the guard dominates the
cross modular sums, which holds whenever cross rows sum to at most g.
"""

from __future__ import annotations

import numpy as np

from ._common import PSI, FamilyOps, MarginalState, require_aux
from .spec import MeasureMode


def _sums(X, rows, cols):
    if not rows.size:
        return np.zeros(0)
    if not cols.size:
        return np.zeros(rows.size)
    return X[np.ix_(rows, cols)].sum(axis=1)


class ConcaveOverModularOps(FamilyOps):
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        X = ctx.cross_nonneg
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        g = np.sqrt(ctx.n_ground)
        Sv = S[S < ctx.n_ground]
        Sa = S[S >= ctx.n_ground]
        shadow = np.arange(ctx.n_ground, ctx.size)
        ground = np.arange(ctx.n_ground)
        in_Sa = np.isin(shadow, Sa)
        in_Sv = np.isin(ground, Sv)
        q_term = np.maximum(psi(_sums(X, shadow, Sv)), psi(g * in_Sa)).sum()
        a_term = np.maximum(psi(_sums(X, ground, Sa)), psi(g * in_Sv)).sum()
        return float(dq * q_term + da * a_term)

    def smi(self, ctx, spec, A, Q):
        require_aux(Q, ctx, "Q")
        X = ctx.cross_nonneg
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        return float(dq * psi(_sums(X, Q, A)).sum() + da * psi(_sums(X, A, Q)).sum())

    def cg(self, ctx, spec, A, P):
        require_aux(P, ctx, "P")
        X = ctx.cross_nonneg
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        g = np.sqrt(ctx.n_ground)
        rest = np.setdiff1d(np.arange(ctx.n_ground, ctx.size), P)
        q_term = psi(_sums(X, rest, A)).sum()
        a_term = (psi(g) - psi(_sums(X, A, P))).sum()
        return float(dq * q_term + da * a_term)

    def csmi(self, ctx, spec, A, Q, P):
        require_aux(Q, ctx, "Q")
        require_aux(P, ctx, "P")
        X = ctx.cross_nonneg
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        qs = _sums(X, A, Q)
        ps = _sums(X, A, P)
        return float(dq * psi(_sums(X, Q, A)).sum() + da * (psi(qs + ps) - psi(ps)).sum())

    def state(self, ctx, spec, mode, Q, P):
        return _ComState(ctx, spec, mode, Q, P)

    def partials(self, ctx, spec, mode, A, Q, P):
        if spec.com_weights is not None:
            return {}  # eta only acts through the default delta mapping
        X = ctx.cross_nonneg
        psi = PSI[spec.psi]
        g = np.sqrt(ctx.n_ground)
        if mode == MeasureMode.BASE:
            ground = np.arange(ctx.n_ground)
            Sa = A[A >= ctx.n_ground]
            in_Sv = np.isin(ground, A[A < ctx.n_ground])
            a_term = np.maximum(psi(_sums(X, ground, Sa)), psi(g * in_Sv)).sum()
            return {"eta": float(a_term)}
        if mode == MeasureMode.SMI:
            return {"eta": float(psi(_sums(X, A, Q)).sum())}
        if mode == MeasureMode.CG:
            return {"eta": float((psi(g) - psi(_sums(X, A, P))).sum())}
        qs = _sums(X, A, Q)
        ps = _sums(X, A, P)
        return {"eta": float((psi(qs + ps) - psi(ps)).sum())}


class _ComState(MarginalState):
    def __init__(self, ctx, spec, mode, Q, P):
        super().__init__()
        X = ctx.cross_nonneg
        self.psi = PSI[spec.psi]
        self.da, self.dq = spec.com_deltas()
        self.mode = mode
        self.g = np.sqrt(ctx.n_ground)
        if mode == MeasureMode.BASE:
            self.rows = np.arange(ctx.n_ground, ctx.size)
        elif mode == MeasureMode.SMI:
            require_aux(Q, ctx, "Q")
            self.rows = Q.copy()
        elif mode == MeasureMode.CG:
            require_aux(P, ctx, "P")
            self.rows = np.setdiff1d(np.arange(ctx.n_ground, ctx.size), P)
        else:
            require_aux(Q, ctx, "Q")
            require_aux(P, ctx, "P")
            self.rows = Q.copy()
        self.cross = X[self.rows, :] if self.rows.size else np.zeros((0, X.shape[1]))
        self.msum = np.zeros(self.rows.size)
        n = ctx.n_ground
        qs = _sums(X, np.arange(n), Q)
        ps = _sums(X, np.arange(n), P)
        if mode == MeasureMode.BASE:
            self.item_term = np.full(n, float(self.psi(self.g)))
        elif mode == MeasureMode.SMI:
            self.item_term = self.psi(qs)
        elif mode == MeasureMode.CG:
            self.item_term = self.psi(self.g) - self.psi(ps)
        else:
            self.item_term = self.psi(qs + ps) - self.psi(ps)

    def gain(self, j):
        col = self.cross[:, j] if self.rows.size else np.zeros(0)
        row_part = (self.psi(self.msum + col) - self.psi(self.msum)).sum()
        return float(self.dq * row_part + self.da * self.item_term[j])

    def _push(self, j):
        if self.rows.size:
            self.msum = self.msum + self.cross[:, j]
