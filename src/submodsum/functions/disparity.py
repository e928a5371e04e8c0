"""Diversity measures on pairwise dissimilarity 1 - s_ij.

Base-mode only; information and conditional modes are not defined for
these. Disparity-min is not submodular, so greedy on it is heuristic.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState
from .spec import MeasureMode


class DisparitySumOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE})

    def base(self, ctx, spec, S):
        if S.size < 2:
            return 0.0
        D = 1.0 - ctx.nonneg[np.ix_(S, S)]
        return float(np.triu(D, k=1).sum())

    def state(self, ctx, spec, mode, Q, P):
        return _DispSumState(ctx)


class DisparityMinOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE})

    def base(self, ctx, spec, S):
        if S.size < 2:
            return 0.0
        D = 1.0 - ctx.nonneg[np.ix_(S, S)]
        iu = np.triu_indices(S.size, k=1)
        return float(D[iu].min())

    def state(self, ctx, spec, mode, Q, P):
        return _DispMinState(ctx)


class _DispSumState(MarginalState):
    def __init__(self, ctx):
        super().__init__()
        self.sim = ctx.nonneg
        self.sim_to_A = np.zeros(ctx.size)
        self.count = 0

    def gain(self, j):
        return float(self.count - self.sim_to_A[j])

    def _push(self, j):
        self.sim_to_A = self.sim_to_A + self.sim[j]
        self.count += 1


class _DispMinState(MarginalState):
    def __init__(self, ctx):
        super().__init__()
        self.sim = ctx.nonneg
        self.min_to_A = np.full(ctx.size, np.inf)  # min_{i in A} (1 - s_ij)
        self.cur = None  # None until |A| >= 2

    def gain(self, j):
        if not self.selected:
            return 0.0
        cand = self.min_to_A[j]
        if self.cur is None:
            return float(cand)
        return float(min(self.cur, cand) - self.cur)

    def _push(self, j):
        if self.selected:  # j pairs with every prior pick
            prev = self.min_to_A[j]
            self.cur = float(min(self.cur, prev)) if self.cur is not None else float(prev)
        self.min_to_A = np.minimum(self.min_to_A, 1.0 - self.sim[j])
