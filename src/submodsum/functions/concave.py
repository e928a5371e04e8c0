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
cross modular sums, which holds whenever cross rows sum to at most g, and
psi needs nonnegative sums, so a kernel with negative cross similarities
(possible with the dot metric) is rejected.  The marginal state
recomputes every candidate's gain over its few query/auxiliary rows after
each pick.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ._common import PSI, FamilyOps, MarginalState, require_aux
from .spec import MeasureMode


def _cross(ctx) -> np.ndarray:
    """The cross-only view, checked for the nonnegative sums psi is defined on."""
    X = ctx.cross_nonneg
    n = ctx.n_ground
    if n < ctx.size and min(X[:n, n:].min(), X[n:, :n].min()) < 0.0:
        raise ConfigError(f"concave-over-modular needs nonnegative similarities, but the "
                          f"{ctx.metric} kernel has negative cross similarities")
    return X


def _sums(X, rows, cols):
    if not rows.size:
        return np.zeros(0)
    if not cols.size:
        return np.zeros(rows.size)
    return X[np.ix_(rows, cols)].sum(axis=1)


class ConcaveOverModularOps(FamilyOps):
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        X = _cross(ctx)
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
        X = _cross(ctx)
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        return float(dq * psi(_sums(X, Q, A)).sum() + da * psi(_sums(X, A, Q)).sum())

    def cg(self, ctx, spec, A, P):
        require_aux(P, ctx, "P")
        X = _cross(ctx)
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
        X = _cross(ctx)
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
        X = _cross(ctx)
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
        X = _cross(ctx)
        self.psi = PSI[spec.psi]
        self.da, self.dq = spec.com_deltas()
        n = ctx.n_ground
        g = np.sqrt(n)
        if mode == MeasureMode.BASE:
            rows = np.arange(n, ctx.size)
        elif mode == MeasureMode.SMI:
            require_aux(Q, ctx, "Q")
            rows = Q
        elif mode == MeasureMode.CG:
            require_aux(P, ctx, "P")
            rows = np.setdiff1d(np.arange(n, ctx.size), P)
        else:
            require_aux(Q, ctx, "Q")
            require_aux(P, ctx, "P")
            rows = Q
        self.cross = X[rows, :n]
        self.msum = np.zeros(rows.size)
        qs = _sums(X, np.arange(n), Q)
        ps = _sums(X, np.arange(n), P)
        if mode == MeasureMode.BASE:
            self.item_term = np.full(n, float(self.psi(g)))
        elif mode == MeasureMode.SMI:
            self.item_term = self.psi(qs)
        elif mode == MeasureMode.CG:
            self.item_term = self.psi(g) - self.psi(ps)
        else:
            self.item_term = self.psi(qs + ps) - self.psi(ps)
        self._refresh()

    def _refresh(self):
        m = self.msum[:, None]
        row_part = (self.psi(m + self.cross) - self.psi(m)).sum(axis=0)
        self.gains = self.dq * row_part + self.da * self.item_term

    def _push(self, j):
        self.msum = self.msum + self.cross[:, j]
        self._refresh()
