"""Concept-count overlap measure.

Base function over the two-sided universe: with c(T) the concept-count
vector summed over T, split per side,

    f(S) = sum_c w_c * max(c(S intersect V), c(S intersect V'))

Counts are additive within a side, so every derived measure reduces to
vector algebra on side-split count sums: every form is
f(A u P) - f(P), plus f(Q u P) - f(A u Q u P) if Q is nonempty, so with Q
and P both empty it is f(A).  For A in V, Q in V' and P empty the pairwise
information is sum_c w_c * min(c(A), c(Q)), the count-overlap score of A
against Q.

The marginal state keeps every item's gain as a weighted sum over the
item's nonzero concepts of its per-concept count change.  Those changes
are whole numbers, summed before weighting, so an item that moves no
concept reads exactly 0.0; a pick re-adds the entries once, O(nonzeros).
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState, SparseRows


def _side_counts(ctx, S):
    """Count sums of S split into (ground side, shadow side); an empty side sums to zeros."""
    return ctx.counts[S[S < ctx.n_ground]].sum(axis=0), ctx.counts[S[S >= ctx.n_ground]].sum(axis=0)


def _f(w, u, v):
    return float(w @ np.maximum(u, v))


class RougeOps(FamilyOps):
    def value(self, ctx, spec, A, Q, P):
        ctx.require_counts("count overlap")
        w = ctx.concept_weights
        ua, va = _side_counts(ctx, A)
        up, vp = _side_counts(ctx, P)
        out = _f(w, ua + up, va + vp)
        if Q.size:
            uq, vq = _side_counts(ctx, Q)
            out = out + _f(w, uq + up, vq + vp) - _f(w, ua + uq + up, va + vq + vp)
        return out - _f(w, up, vp)

    def state(self, ctx, spec, Q, P):
        return _RougeState(ctx, Q, P)


class _RougeState(MarginalState):
    """Running ground-side count sum; fixed offsets carry Q and P."""

    def __init__(self, ctx, Q, P):
        ctx.require_counts("count overlap")
        self.counts = ctx.counts[:ctx.n_ground]
        self.w = ctx.concept_weights
        up, vp = _side_counts(ctx, P)
        self.u = np.zeros(ctx.counts.shape[1])
        # candidate j lives on the ground side; as a function of uA the
        # value is f(uA + up, vp), less f(uA + uq + up, vq + vp) if Q is
        # nonempty (+ const), with P's counts zero for an empty P
        self.terms = [(1.0, up, vp)]
        if Q.size:
            uq, vq = _side_counts(ctx, Q)
            self.terms.append((-1.0, uq + up, vq + vp))
        self.entries = SparseRows(self.counts)
        self._refresh()

    def _refresh(self):
        e = self.entries
        c, x = e.cols, e.vals
        moved = np.zeros(c.size)
        for sign, du, v in self.terms:
            a, b = (self.u + du)[c], v[c]
            moved += sign * (np.maximum(a + x, b) - np.maximum(a, b))
        self.gains = e.row_sums(self.w[c] * moved)

    def add(self, j):
        self.u = self.u + self.counts[j]
        self._refresh()
