"""Concept-count overlap measure.

Base function over the two-sided universe: with c(T) the concept-count
vector summed over T, split per side,

    f(S) = sum_c w_c * max(c(S intersect V), c(S intersect V'))

Counts are additive within a side, so every derived measure reduces to
vector algebra on side-split count sums.  For A in V and Q in V' the
pairwise information is sum_c w_c * min(c(A), c(Q)), the count-overlap
score of A against Q.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState
from .spec import MeasureMode


def _side_counts(ctx, S):
    """Count sums of S split into (ground side, shadow side)."""
    counts = ctx.counts
    ground = S[S < ctx.n_ground]
    shadow = S[S >= ctx.n_ground]
    u = counts[ground].sum(axis=0) if ground.size else np.zeros(counts.shape[1])
    v = counts[shadow].sum(axis=0) if shadow.size else np.zeros(counts.shape[1])
    return u, v


def _f(w, u, v):
    return float(w @ np.maximum(u, v))


class RougeOps(FamilyOps):
    def base(self, ctx, spec, S):
        ctx.require_concepts("count overlap")
        u, v = _side_counts(ctx, S)
        return _f(ctx.concept_weights, u, v)

    def smi(self, ctx, spec, A, Q):
        ctx.require_concepts("count overlap")
        w = ctx.concept_weights
        ua, va = _side_counts(ctx, A)
        uq, vq = _side_counts(ctx, Q)
        return _f(w, ua, va) + _f(w, uq, vq) - _f(w, ua + uq, va + vq)

    def cg(self, ctx, spec, A, P):
        ctx.require_concepts("count overlap")
        w = ctx.concept_weights
        ua, va = _side_counts(ctx, A)
        up, vp = _side_counts(ctx, P)
        return _f(w, ua + up, va + vp) - _f(w, up, vp)

    def csmi(self, ctx, spec, A, Q, P):
        ctx.require_concepts("count overlap")
        w = ctx.concept_weights
        ua, va = _side_counts(ctx, A)
        uq, vq = _side_counts(ctx, Q)
        up, vp = _side_counts(ctx, P)
        return (
            _f(w, ua + up, va + vp)
            + _f(w, uq + up, vq + vp)
            - _f(w, ua + uq + up, va + vq + vp)
            - _f(w, up, vp)
        )

    def state(self, ctx, spec, mode, Q, P):
        return _RougeState(ctx, mode, Q, P)


class _RougeState(MarginalState):
    """Running ground-side count sum; fixed offsets carry Q and P."""

    def __init__(self, ctx, mode, Q, P):
        super().__init__()
        ctx.require_concepts("count overlap")
        self.counts = ctx.counts
        self.w = ctx.concept_weights
        m = ctx.counts.shape[1]
        zeros = np.zeros(m)
        uq, vq = _side_counts(ctx, Q) if Q is not None else (zeros, zeros)
        up, vp = _side_counts(ctx, P) if P is not None else (zeros, zeros)
        self.u = np.zeros(m)
        # candidate j lives on the ground side; value as a function of uA:
        #   BASE: f(uA, 0)
        #   SMI:  f(uA,0) - f(uA+uq, vq)        (+ const)
        #   CG:   f(uA+up, vp)                   (+ const)
        #   CSMI: f(uA+up, vp) - f(uA+uq+up, vq+vp)  (+ const)
        if mode == MeasureMode.BASE:
            self.terms = [(1.0, zeros, zeros)]
        elif mode == MeasureMode.SMI:
            self.terms = [(1.0, zeros, zeros), (-1.0, uq, vq)]
        elif mode == MeasureMode.CG:
            self.terms = [(1.0, up, vp)]
        else:
            self.terms = [(1.0, up, vp), (-1.0, uq + up, vq + vp)]

    def gain(self, j):
        cj = self.counts[j]
        out = 0.0
        for sign, du, v in self.terms:
            out += sign * (_f(self.w, self.u + cj + du, v) - _f(self.w, self.u + du, v))
        return float(out)

    def _push(self, j):
        self.u = self.u + self.counts[j]
