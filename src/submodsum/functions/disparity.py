"""Diversity measures on pairwise dissimilarity 1 - s_ij, s mapped into [0, 1].

Base-mode only; information and conditional modes are not defined for
these. Disparity-min is not submodular, so greedy on it is heuristic.
Both marginal states read the picked item's similarity row and recompute
every ground item's gain from the running similarity sum (resp. minimum
dissimilarity) to the selection, O(n) per pick.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState
from .spec import MeasureMode


class DisparitySumOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE})

    def value(self, ctx, spec, mode, S, Q, P):
        if S.size < 2:
            return 0.0
        D = 1.0 - ctx.similarity(S, S)
        return float(np.triu(D, k=1).sum())

    def state(self, ctx, spec, mode, Q, P):
        return _DispSumState(ctx)


class DisparityMinOps(FamilyOps):
    MODES = frozenset({MeasureMode.BASE})

    def value(self, ctx, spec, mode, S, Q, P):
        if S.size < 2:
            return 0.0
        D = 1.0 - ctx.similarity(S, S)
        iu = np.triu_indices(S.size, k=1)
        return float(D[iu].min())

    def state(self, ctx, spec, mode, Q, P):
        return _DispMinState(ctx)


class _DispSumState(MarginalState):
    def __init__(self, ctx):
        self.ctx = ctx
        self.sim_to_A = np.zeros(ctx.n_ground)
        self.count = 0
        self.gains = np.zeros(ctx.n_ground)

    def add(self, j):
        self.sim_to_A = self.sim_to_A + self.ctx.similarity(j, slice(self.ctx.n_ground))
        self.count += 1
        self.gains = self.count - self.sim_to_A


class _DispMinState(MarginalState):
    def __init__(self, ctx):
        self.ctx = ctx
        self.min_to_A = np.full(ctx.n_ground, np.inf)  # min_{i in A} (1 - s_ij)
        self.cur = None  # None until |A| >= 2
        self.gains = np.zeros(ctx.n_ground)  # a single item has no pair yet

    def add(self, j):
        if self.min_to_A[j] < np.inf:  # finite once A is nonempty: j pairs with every prior pick
            prev = self.min_to_A[j]
            self.cur = float(min(self.cur, prev)) if self.cur is not None else float(prev)
        self.min_to_A = np.minimum(self.min_to_A, 1.0 - self.ctx.similarity(j, slice(self.ctx.n_ground)))
        # min_to_A is rebound, never written in place, so gains may share it
        self.gains = self.min_to_A if self.cur is None else np.minimum(self.cur, self.min_to_A) - self.cur
