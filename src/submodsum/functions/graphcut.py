"""Graph-cut measure: representation minus lambda-weighted internal redundancy.

f(S) = sum_{i in V, j in S} s_ij - lam * sum_{i,j in S} s_ij.  The query form
is modular, 2*lam*sum_{i in A, j in Q} s_ij; the conditional form discounts
similarity to the conditioning set under nu, the one weight of the eta/nu
pair rule (_common.pair_weighted) this family reads: nu weights each pair
with exactly one endpoint an auxiliary member of P.  With P empty the
conditional form is f itself, so one form serves f over any S and f(A | P).
A conditional-mutual-information form does not exist for this family.

The marginal state keeps every candidate's gain: fixed in the query form,
and recomputed from the running similarity to the selection after each
pick otherwise (O(n) per pick).
"""

from __future__ import annotations

import numpy as np

from ._common import NO_ITEMS, FamilyOps, MarginalState, pair_masks, pair_weighted
from .spec import MeasureMode


def _cross_sum(ctx, spec, A, S, P=NO_ITEMS):
    """Sum of the kernel's A x S block under the pair weights of P."""
    return float(pair_weighted(ctx, spec, ctx.kernel[np.ix_(A, S)], A, S, P=P).sum())


class GraphCutOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI, MeasureMode.CG})
    PARAM_KEYS = ("lam", "nu")

    def value(self, ctx, spec, mode, A, Q, P):
        K = ctx.kernel
        if mode == MeasureMode.SMI:
            return 2.0 * spec.lam * _cross_sum(ctx, spec, A, Q)
        rep = float(K[: ctx.n_ground, :][:, A].sum())
        red = float(K[np.ix_(A, A)].sum())
        return rep - spec.lam * red - 2.0 * spec.lam * _cross_sum(ctx, spec, A, P, P)

    def state(self, ctx, spec, mode, Q, P):
        return _GraphCutState(ctx, spec, mode, Q, P)

    def oracle_view(self, ctx, spec, Q, P):
        idx = np.arange(ctx.size)
        return ctx.copy_with(kernel=pair_weighted(ctx, spec, ctx.kernel, idx, idx, P=P))

    def partials(self, ctx, spec, mode, A, Q, P):
        K = ctx.kernel
        red = float(K[np.ix_(A, A)].sum())
        if mode == MeasureMode.BASE:
            return {"lam": -red}
        if mode == MeasureMode.SMI:
            return {"lam": 2.0 * _cross_sum(ctx, spec, A, Q)}
        dnu = float((K[np.ix_(A, P)] * pair_masks(ctx, A, P, P=P)[1]).sum())
        return {"lam": -red - 2.0 * _cross_sum(ctx, spec, A, P, P), "nu": -2.0 * spec.lam * dnu}


class _GraphCutState(MarginalState):
    def __init__(self, ctx, spec, mode, Q, P):
        n = ctx.n_ground
        K = ctx.kernel[:n]  # the ground rows: every candidate is a ground item
        self.lam = spec.lam
        self.mode = mode
        if mode == MeasureMode.SMI:  # modular: the gains never change
            self.gains = 2.0 * self.lam * K[:, Q].sum(axis=1)
            return
        self.K = K[:, :n]
        self.col_ground = self.K.sum(axis=0)  # representation mass per candidate
        self.diag = np.diag(self.K)
        self.sim_to_A = np.zeros(n)
        if mode == MeasureMode.CG:
            self.psum = pair_weighted(ctx, spec, K[:, P], np.arange(n), P, P=P).sum(axis=1)
        self._refresh()

    def _refresh(self):
        g = self.col_ground - self.lam * (self.diag + 2.0 * self.sim_to_A)
        if self.mode == MeasureMode.CG:
            g -= 2.0 * self.lam * self.psum
        self.gains = g

    def add(self, j):
        if self.mode != MeasureMode.SMI:
            self.sim_to_A += self.K[j]
            self._refresh()
