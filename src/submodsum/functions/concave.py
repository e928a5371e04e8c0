"""Concave-over-modular measure on the cross-only nonnegative kernel.

With psi concave nondecreasing, psi(0) = 0, deltas (data_side, query_side):

    pairwise info   I(A; Q) = dq * sum_{i in Q} psi(sum_{j in A} x_ij)
                            + da * sum_{i in A} psi(sum_{j in Q} x_ij)
    conditional     f(A|P)  = dq * sum_{i in V'\\P} psi(sum_A x) +
                              da * sum_{i in A} [psi(g) - psi(sum_P x_i)]
    joint           I(A;Q|P)= dq * sum_{i in Q} psi(sum_A x) +
                              da * sum_{i in A} [psi(sum_Q x + sum_P x) - psi(sum_P x)]

all derived from the restricted base

    f(S) = dq * sum_{i in V'} max(psi(sum_{j in S^V} x_ij), psi(g * [i in S]))
         + da * sum_{i in V} max(psi(sum_{j in S^V'} x_ij), psi(g * [i in S]))

with guard g = sqrt(|V|).  The identities assume the guard dominates the
cross modular sums, which holds whenever cross rows sum to at most g, and
psi needs nonnegative sums, so a kernel with negative cross similarities
(possible with the dot metric) is rejected.  Every mode, base over the
ground set included, is dq * sum over a set of auxiliary rows of
psi(sum_A x) plus da * sum over A of a per-item term; _terms gives that
row set and item term, and the closed form, the marginal state and the
eta partial read them.  The marginal state recomputes every candidate's
gain over its few query/auxiliary rows after each pick.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ._common import PSI, FamilyOps, MarginalState, require_aux
from .spec import MeasureMode


def _cross(ctx) -> np.ndarray:
    """The cross-only view, checked for the nonnegative sums psi is defined on."""
    X = ctx.cross_nonneg
    n = ctx.n_ground
    if min(X[:n, n:].min(initial=0.0), X[n:, :n].min(initial=0.0)) < 0.0:
        raise ConfigError(f"concave-over-modular needs nonnegative similarities, but the "
                          f"{ctx.metric} kernel has negative cross similarities")
    return X


def _sums(X, rows, cols):
    if not rows.size:
        return np.zeros(0)
    if not cols.size:
        return np.zeros(rows.size)
    return X[np.ix_(rows, cols)].sum(axis=1)


def _side(ctx, X, psi, rows, S):
    """One side of the restricted base: the sum over rows i of
    max(psi(sum of x_ij over the members j of S on the other side), psi(g * [i in S]))."""
    other = S[np.isin(S, rows, invert=True)]
    return np.maximum(psi(_sums(X, rows, other)), psi(np.sqrt(ctx.n_ground) * np.isin(rows, S))).sum()


def _terms(ctx, spec, mode, Q, P):
    """(X, rows, item_term) with the measure of A in this mode equal to

        dq * sum_{i in rows} psi(sum_{j in A} x_ij) + da * sum_{j in A} item_term_j

    rows being V', Q, V' \\ P and Q for BASE, SMI, CG and CSMI."""
    require_aux(Q, ctx, "Q")
    require_aux(P, ctx, "P")
    X = _cross(ctx)
    psi = PSI[spec.psi]
    n = ctx.n_ground
    g = np.sqrt(n)
    ground = np.arange(n)
    if mode == MeasureMode.BASE:
        return X, np.arange(n, ctx.size), np.full(n, float(psi(g)))
    if mode == MeasureMode.SMI:
        return X, Q, psi(_sums(X, ground, Q))
    ps = _sums(X, ground, P)
    if mode == MeasureMode.CG:
        return X, np.setdiff1d(np.arange(n, ctx.size), P), psi(g) - psi(ps)
    return X, Q, psi(_sums(X, ground, Q) + ps) - psi(ps)


class ConcaveOverModularOps(FamilyOps):
    PARAM_KEYS = ("eta",)

    def base(self, ctx, spec, S):
        X = _cross(ctx)
        psi = PSI[spec.psi]
        da, dq = spec.com_deltas()
        q_term = _side(ctx, X, psi, np.arange(ctx.n_ground, ctx.size), S)
        return float(dq * q_term + da * _side(ctx, X, psi, np.arange(ctx.n_ground), S))

    def value(self, ctx, spec, mode, A, Q, P):
        X, rows, item_term = _terms(ctx, spec, mode, Q, P)
        da, dq = spec.com_deltas()
        return float(dq * PSI[spec.psi](_sums(X, rows, A)).sum() + da * item_term[A].sum())

    def state(self, ctx, spec, mode, Q, P):
        return _ComState(ctx, spec, mode, Q, P)

    def partials(self, ctx, spec, mode, A, Q, P):
        if spec.com_weights is not None:
            return {}  # eta only acts through the default delta mapping
        if mode == MeasureMode.BASE:
            return {"eta": float(_side(ctx, _cross(ctx), PSI[spec.psi], np.arange(ctx.n_ground), A))}
        return {"eta": float(_terms(ctx, spec, mode, Q, P)[2][A].sum())}


class _ComState(MarginalState):
    def __init__(self, ctx, spec, mode, Q, P):
        super().__init__()
        X, rows, self.item_term = _terms(ctx, spec, mode, Q, P)
        self.psi = PSI[spec.psi]
        self.da, self.dq = spec.com_deltas()
        self.cross = X[rows, :ctx.n_ground]
        self.msum = np.zeros(rows.size)
        self._refresh()

    def _refresh(self):
        m = self.msum[:, None]
        row_part = (self.psi(m + self.cross) - self.psi(m)).sum(axis=0)
        self.gains = self.dq * row_part + self.da * self.item_term

    def _push(self, j):
        self.msum = self.msum + self.cross[:, j]
        self._refresh()
