"""Probabilistic set-cover measures, and set cover as their 0/1 case.

Probabilistic set cover: f(S) = sum_i w_i (1 - prod_{j in S}(1 - p_ij)), the
product being the probability that concept i stays uncovered by S.  Set
cover, f(S) = w(concepts covered by S), is the same function with every
p_ij 0 or 1: 1 - prod(1 - p) is then exactly 1 where S covers concept i and
0 where it does not, and the information forms agree the same way
(w(Gamma(A) & Gamma(Q)) against sum_i w_i P_i(A) P_i(Q)).  So one closed
form and one marginal state serve both families; set cover only reads its
0/1 coverage incidence where probabilistic set cover reads probabilities.
Neither family has continuous parameters.

The forms differ only per concept: the coverage of A is multiplied by
1 - miss(Q) if Q is nonempty and then by miss(P) if P is (_factors), so
with Q and P empty it is f(A).  The closed form and the marginal state both
read that one helper.  The marginal state keeps every item's gain as a sum
over its nonzero concepts of weight * factors * probability still missing;
a pick updates the per-concept miss and re-adds the entries once,
O(nonzeros).  On 0/1 probabilities every product is exactly 0 or 1, so the
sums round as set cover's sums of weights of uncovered concepts do.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState, SparseRows


def _miss(prob: np.ndarray, S: np.ndarray) -> np.ndarray:
    """prod_{j in S} (1 - p_ij) per concept."""
    return np.prod(1.0 - prob[S], axis=0)


def _factors(prob: np.ndarray, Q: np.ndarray, P: np.ndarray) -> list[np.ndarray]:
    """Per-concept factors the form multiplies the coverage of A by, in order:
    1 - miss(Q) if Q is nonempty, then miss(P) if P is."""
    out = []
    if Q.size:
        out.append(1.0 - _miss(prob, Q))
    if P.size:
        out.append(_miss(prob, P))
    return out


class ProbSetCoverOps(FamilyOps):
    def probs(self, ctx) -> np.ndarray:
        """(N, L) probability that each item covers each concept: the
        coverage probabilities if present, else the counts above 0.  A
        boolean incidence serves as 0/1 probabilities without a float copy,
        since 1.0 - True is exactly 0.0."""
        ctx.require_concepts("probabilistic set cover")
        return ctx.cover_prob if ctx.cover_prob is not None else ctx.counts > 0

    def value(self, ctx, spec, A, Q, P):
        p = self.probs(ctx)
        x = 1.0 - _miss(p, A)
        for factor in _factors(p, Q, P):
            x = x * factor
        return float(ctx.concept_weights @ x)

    def state(self, ctx, spec, Q, P):
        p = self.probs(ctx)
        mult = np.ones(p.shape[1])
        for factor in _factors(p, Q, P):
            mult = mult * factor
        return _ProbCoverState(p[:ctx.n_ground], ctx.concept_weights, mult)


class SetCoverOps(ProbSetCoverOps):
    def probs(self, ctx) -> np.ndarray:
        """(N, L) 0/1 coverage incidence: the counts if present, else the
        coverage probabilities, above 0."""
        ctx.require_concepts("set cover")
        return (ctx.counts if ctx.counts is not None else ctx.cover_prob) > 0


class _ProbCoverState(MarginalState):
    def __init__(self, prob, weights, mult):
        self.prob = prob
        self.entries = SparseRows(prob)
        self.wm = weights * mult
        self.miss = np.ones(prob.shape[1])
        self._refresh()

    def _refresh(self):
        e = self.entries
        self.gains = e.row_sums((self.wm * self.miss)[e.cols] * e.vals)

    def add(self, j):
        self.miss *= 1.0 - self.prob[j]
        self._refresh()
