"""Set-cover and probabilistic set-cover measures.

Set cover: f(S) = w(concepts covered by S).  Its information forms reduce to
weighted intersections/differences of covered-concept sets.  Probabilistic
set cover: f(S) = sum_i w_i (1 - prod_{j in S}(1 - p_ij)), the product being
the probability that concept i stays uncovered by S.  Neither family has
continuous parameters.
"""

from __future__ import annotations

import numpy as np

from ._common import FamilyOps, MarginalState
from .spec import MeasureMode


def _gamma(ctx) -> np.ndarray:
    """(N, L) boolean coverage incidence."""
    ctx.require_concepts("set cover")
    base = ctx.counts if ctx.counts is not None else ctx.cover_prob
    return base > 0


def _covered(gamma: np.ndarray, S: np.ndarray) -> np.ndarray:
    if not S.size:
        return np.zeros(gamma.shape[1], dtype=bool)
    return gamma[S].any(axis=0)


class SetCoverOps(FamilyOps):
    def base(self, ctx, spec, S):
        g = _gamma(ctx)
        return float(ctx.concept_weights @ _covered(g, S))

    def smi(self, ctx, spec, A, Q):
        g = _gamma(ctx)
        return float(ctx.concept_weights @ (_covered(g, A) & _covered(g, Q)))

    def cg(self, ctx, spec, A, P):
        g = _gamma(ctx)
        return float(ctx.concept_weights @ (_covered(g, A) & ~_covered(g, P)))

    def csmi(self, ctx, spec, A, Q, P):
        g = _gamma(ctx)
        return float(ctx.concept_weights @ (_covered(g, A) & _covered(g, Q) & ~_covered(g, P)))

    def state(self, ctx, spec, mode, Q, P):
        g = _gamma(ctx)
        active = np.ones(g.shape[1], dtype=bool)
        if mode in (MeasureMode.SMI, MeasureMode.CSMI):
            active &= _covered(g, Q)
        if mode in (MeasureMode.CG, MeasureMode.CSMI):
            active &= ~_covered(g, P)
        return _CoverState(g, ctx.concept_weights, active)


class _CoverState(MarginalState):
    def __init__(self, gamma, weights, active):
        super().__init__()
        self.gamma = gamma
        self.w = weights * active  # inactive concepts never contribute
        self.covered = np.zeros(gamma.shape[1], dtype=bool)

    def gain(self, j):
        return float(self.w @ (self.gamma[j] & ~self.covered))

    def _push(self, j):
        self.covered |= self.gamma[j]


def _probs(ctx) -> np.ndarray:
    ctx.require_concepts("probabilistic set cover")
    if ctx.cover_prob is not None:
        return ctx.cover_prob
    return (ctx.counts > 0).astype(float)


def _miss(prob: np.ndarray, S: np.ndarray) -> np.ndarray:
    """prod_{j in S} (1 - p_ij) per concept."""
    if not S.size:
        return np.ones(prob.shape[1])
    return np.prod(1.0 - prob[S], axis=0)


class ProbSetCoverOps(FamilyOps):
    def base(self, ctx, spec, S):
        p = _probs(ctx)
        return float(ctx.concept_weights @ (1.0 - _miss(p, S)))

    def smi(self, ctx, spec, A, Q):
        p = _probs(ctx)
        return float(ctx.concept_weights @ ((1.0 - _miss(p, A)) * (1.0 - _miss(p, Q))))

    def cg(self, ctx, spec, A, P):
        p = _probs(ctx)
        return float(ctx.concept_weights @ ((1.0 - _miss(p, A)) * _miss(p, P)))

    def csmi(self, ctx, spec, A, Q, P):
        p = _probs(ctx)
        return float(ctx.concept_weights @ ((1.0 - _miss(p, A)) * (1.0 - _miss(p, Q)) * _miss(p, P)))

    def state(self, ctx, spec, mode, Q, P):
        p = _probs(ctx)
        mult = np.ones(p.shape[1])
        if mode in (MeasureMode.SMI, MeasureMode.CSMI):
            mult *= 1.0 - _miss(p, Q)
        if mode in (MeasureMode.CG, MeasureMode.CSMI):
            mult *= _miss(p, P)
        return _ProbCoverState(p, ctx.concept_weights, mult)


class _ProbCoverState(MarginalState):
    def __init__(self, prob, weights, mult):
        super().__init__()
        self.prob = prob
        self.wm = weights * mult
        self.miss = np.ones(prob.shape[1])

    def gain(self, j):
        return float(self.wm @ (self.miss * self.prob[j]))

    def _push(self, j):
        self.miss *= 1.0 - self.prob[j]
