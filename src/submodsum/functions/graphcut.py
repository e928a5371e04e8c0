"""Graph-cut measure: representation minus lambda-weighted internal redundancy.

f(S) = sum_{i in V, j in S} s_ij - lam * sum_{i,j in S} s_ij.  With Q
nonempty the query form is modular, 2*lam*sum_{i in A, j in Q} s_ij;
otherwise the conditional form discounts similarity to P under nu, the one
weight of the eta/nu pair rule (_common.pair_weighted) this family reads:
nu weights each pair with exactly one endpoint an auxiliary member of P.
With P empty the conditional form is f itself, so one form serves f over
any S and f(A | P).  A conditional-mutual-information form does not exist
for this family.

The marginal state keeps every candidate's gain: fixed in the query form,
and recomputed from the running similarity to the selection after each
pick otherwise (O(n) per pick).
"""

from __future__ import annotations

import numpy as np

from ._common import NO_ITEMS, FamilyOps, FixedGains, MarginalState, pair_masks, pair_weighted, weighted_view
from .spec import MeasureMode


def _cross_sum(ctx, spec, A, S, P=NO_ITEMS):
    """Sum of the kernel's A x S block under the pair weights of P."""
    return float(pair_weighted(ctx, spec, ctx.block(A, S), A, S, P=P).sum())


class GraphCutOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE, MeasureMode.SMI, MeasureMode.CG})
    PARAM_KEYS = ("lam", "nu")

    def value(self, ctx, spec, A, Q, P):
        if Q.size:
            return 2.0 * spec.lam * _cross_sum(ctx, spec, A, Q)
        rep = float(ctx.block(slice(ctx.n_ground), A).sum())
        red = float(ctx.block(A, A).sum())
        return rep - spec.lam * red - 2.0 * spec.lam * _cross_sum(ctx, spec, A, P, P)

    def state(self, ctx, spec, Q, P):
        if Q.size:  # the query form is modular
            return FixedGains(2.0 * spec.lam * ctx.block(slice(ctx.n_ground), Q).sum(axis=1))
        return _GraphCutState(ctx, spec, P)

    def oracle_view(self, ctx, spec, Q, P):
        return weighted_view(ctx, spec, P=P)

    def partials(self, ctx, spec, A, Q, P):
        if Q.size:
            return {"lam": 2.0 * _cross_sum(ctx, spec, A, Q)}
        red = float(ctx.block(A, A).sum())
        if not P.size:
            return {"lam": -red}
        dnu = float((ctx.block(A, P) * pair_masks(ctx, A, P, P=P)[1]).sum())
        return {"lam": -red - 2.0 * _cross_sum(ctx, spec, A, P, P), "nu": -2.0 * spec.lam * dnu}


class _GraphCutState(MarginalState):
    def __init__(self, ctx, spec, P):
        n = ctx.n_ground
        self.ctx, self.lam, self.ground = ctx, spec.lam, slice(n)  # every candidate is a ground item
        self.col_ground = ctx.block(self.ground, self.ground).sum(axis=0)  # representation mass per candidate
        self.sim_to_A = np.zeros(n)
        # zeros for an empty P, which leave every gain's bits as they are
        self.psum = pair_weighted(ctx, spec, ctx.block(self.ground, P), np.arange(n), P, P=P).sum(axis=1)
        self._refresh()

    def _refresh(self):
        diag = self.ctx.diagonal()[self.ground]
        self.gains = self.col_ground - self.lam * (diag + 2.0 * self.sim_to_A) - 2.0 * self.lam * self.psum

    def add(self, j):
        self.sim_to_A += self.ctx.block(j, self.ground)
        self._refresh()
