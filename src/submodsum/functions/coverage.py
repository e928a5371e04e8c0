"""Set-cover and probabilistic set-cover measures.

Set cover: f(S) = w(concepts covered by S).  Its information forms reduce to
weighted intersections/differences of covered-concept sets.  Probabilistic
set cover: f(S) = sum_i w_i (1 - prod_{j in S}(1 - p_ij)), the product being
the probability that concept i stays uncovered by S.  Neither family has
continuous parameters.  The modes differ only per concept: set cover counts
the concepts covered by Q and not by P (_active), probabilistic set cover
multiplies by 1 - miss(Q) and then by miss(P) (_factors), and the closed
form and the marginal state both read that one helper.

Both marginal states keep every item's gain as a sum over its nonzero
concepts of a per-concept weight (the weight of a concept still uncovered;
weight * probability still missing).  A pick updates those per-concept
weights and re-adds the entries once, O(nonzeros).
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState, SparseRows
from .spec import MeasureMode


def _gamma(ctx) -> np.ndarray:
    """(N, L) boolean coverage incidence."""
    ctx.require_concepts("set cover")
    base = ctx.counts if ctx.counts is not None else ctx.cover_prob
    return base > 0


def _covered(gamma: np.ndarray, S: np.ndarray) -> np.ndarray:
    return gamma[S].any(axis=0)


def _active(gamma: np.ndarray, mode, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Concepts the mode counts: covered by Q where it reads Q, not covered by P where it reads P."""
    active = np.ones(gamma.shape[1], dtype=bool)
    if mode in (MeasureMode.SMI, MeasureMode.CSMI):
        active &= _covered(gamma, Q)
    if mode in (MeasureMode.CG, MeasureMode.CSMI):
        active &= ~_covered(gamma, P)
    return active


class SetCoverOps(FamilyOps):
    def value(self, ctx, spec, mode, A, Q, P):
        g = _gamma(ctx)
        return float(ctx.concept_weights @ (_covered(g, A) & _active(g, mode, Q, P)))

    def state(self, ctx, spec, mode, Q, P):
        g = _gamma(ctx)
        return _CoverState(g[:ctx.n_ground], ctx.concept_weights, _active(g, mode, Q, P))


class _CoverState(MarginalState):
    def __init__(self, gamma, weights, active):
        self.gamma = gamma
        self.entries = SparseRows(gamma)
        self.w = weights * active  # inactive and covered concepts never contribute
        self._refresh()

    def _refresh(self):
        self.gains = self.entries.row_sums(self.w[self.entries.cols])

    def add(self, j):
        self.w = np.where(self.gamma[j], 0.0, self.w)
        self._refresh()


def _probs(ctx) -> np.ndarray:
    ctx.require_concepts("probabilistic set cover")
    if ctx.cover_prob is not None:
        return ctx.cover_prob
    return (ctx.counts > 0).astype(float)


def _miss(prob: np.ndarray, S: np.ndarray) -> np.ndarray:
    """prod_{j in S} (1 - p_ij) per concept."""
    return np.prod(1.0 - prob[S], axis=0)


def _factors(prob: np.ndarray, mode, Q: np.ndarray, P: np.ndarray) -> list[np.ndarray]:
    """Per-concept factors the mode multiplies the coverage of A by, in order:
    1 - miss(Q) where it reads Q, then miss(P) where it reads P."""
    out = []
    if mode in (MeasureMode.SMI, MeasureMode.CSMI):
        out.append(1.0 - _miss(prob, Q))
    if mode in (MeasureMode.CG, MeasureMode.CSMI):
        out.append(_miss(prob, P))
    return out


class ProbSetCoverOps(FamilyOps):
    def value(self, ctx, spec, mode, A, Q, P):
        p = _probs(ctx)
        x = 1.0 - _miss(p, A)
        for factor in _factors(p, mode, Q, P):
            x = x * factor
        return float(ctx.concept_weights @ x)

    def state(self, ctx, spec, mode, Q, P):
        p = _probs(ctx)
        mult = np.ones(p.shape[1])
        for factor in _factors(p, mode, Q, P):
            mult = mult * factor
        return _ProbCoverState(p[:ctx.n_ground], ctx.concept_weights, mult)


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
