"""Graph-cut measure: representation minus lambda-weighted internal redundancy.

f(S) = sum_{i in V, j in S} s_ij - lam * sum_{i,j in S} s_ij.  The query form
is modular, 2*lam*sum_{i in A, j in Q} s_ij; the conditional form discounts
similarity to the conditioning set, with nu scaling only V<->V' cross pairs,
and with P empty it is f itself, so one form serves f over any S and
f(A | P).  A conditional-mutual-information form does not exist for this
family.

The marginal state keeps every candidate's gain: fixed in the query form,
and recomputed from the running similarity to the selection after each
pick otherwise (O(N) per pick).
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState, column_scale, pair_scaled_block
from .spec import MeasureMode


def _cross_sum(K, ctx, A, other, t):
    if not A.size or not other.size:
        return 0.0
    scale = column_scale(other, ctx, t)
    return float((K[np.ix_(A, other)] * scale).sum())


class GraphCutOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI, MeasureMode.CG})
    PARAM_KEYS = ("lam", "nu")

    def value(self, ctx, spec, mode, A, Q, P):
        K = ctx.kernel
        if mode == MeasureMode.SMI:
            return 2.0 * spec.lam * _cross_sum(K, ctx, A, Q, 1.0)
        rep = float(K[: ctx.n_ground, :][:, A].sum())
        red = float(K[np.ix_(A, A)].sum())
        return rep - spec.lam * red - 2.0 * spec.lam * _cross_sum(K, ctx, A, P, spec.nu)

    def state(self, ctx, spec, mode, Q, P):
        return _GraphCutState(ctx, spec, mode, Q, P)

    def oracle_view(self, ctx, spec, mode, Q, P):
        if mode == MeasureMode.CG:
            idx = np.arange(ctx.size)
            return ctx.copy_with(kernel=pair_scaled_block(ctx.kernel, idx, idx, ctx, (), 1.0, P, spec.nu))
        return ctx

    def partials(self, ctx, spec, mode, A, Q, P):
        K = ctx.kernel
        red = float(K[np.ix_(A, A)].sum()) if A.size else 0.0
        if mode == MeasureMode.BASE:
            return {"lam": -red}
        if mode == MeasureMode.SMI:
            return {"lam": 2.0 * _cross_sum(K, ctx, A, Q, 1.0)}
        scaled = _cross_sum(K, ctx, A, P, spec.nu)
        aux_cols = P[P >= ctx.n_ground]
        aux_part = _cross_sum(K, ctx, A, aux_cols, 1.0)
        return {"lam": -red - 2.0 * scaled, "nu": -2.0 * spec.lam * aux_part}


class _GraphCutState(MarginalState):
    def __init__(self, ctx, spec, mode, Q, P):
        super().__init__()
        K = ctx.kernel
        n = ctx.n_ground
        self.K = K
        self.lam = spec.lam
        self.mode = mode
        if mode == MeasureMode.SMI:  # modular: the gains never change
            qsum = K[:, Q].sum(axis=1) if Q.size else np.zeros(K.shape[0])
            self.gains = 2.0 * self.lam * qsum
            return
        self.col_ground = K[:n, :].sum(axis=0)  # representation mass per candidate
        self.diag = np.diag(K)
        self.sim_to_A = np.zeros(K.shape[0])
        if mode == MeasureMode.CG:
            self.psum = (K[:, P] * column_scale(P, ctx, spec.nu)).sum(axis=1) if P.size else np.zeros(K.shape[0])
        self._refresh()

    def _refresh(self):
        g = self.col_ground - self.lam * (self.diag + 2.0 * self.sim_to_A)
        if self.mode == MeasureMode.CG:
            g -= 2.0 * self.lam * self.psum
        self.gains = g

    def _push(self, j):
        if self.mode != MeasureMode.SMI:
            self.sim_to_A += self.K[j]
            self._refresh()
