"""Definitional cross-check for every closed-form measure.

Each measure is re-derived from nothing but base-function evaluations:

    I(A; Q)     = f(A) + f(Q) - f(A u Q)
    f(A | P)    = f(A u P) - f(P)
    I(A; Q | P) = f(A|P) + f(Q|P) - f(A u Q|P)

evaluated on the family's oracle view of the context, which folds the
cross-similarity weights (eta, nu) into the kernel so the bare
definitions see the same geometry the closed forms assume.  A, Q and P
are read under the index-set contract of api (api._sets), so the oracle
accepts and rejects exactly the sets the closed forms do.
"""

from __future__ import annotations

import numpy as np

from ._common import as_indices
from .api import REGISTRY, _check_mode, _sets
from .spec import FunctionSpec, MeasureMode


def _base_on_view(spec: FunctionSpec, ctx, Q, P):
    """f(*sets): the family's base function of the union of the sets,
    evaluated on its oracle view for Q and P as _sets returns them."""
    ops = REGISTRY[spec.family]
    view = ops.oracle_view(ctx, spec, Q, P)

    def f(*sets):
        S = as_indices(np.concatenate([np.asarray(s, dtype=int) for s in sets]) if sets else ())
        return float(ops.base(view, spec, S)) if S.size else 0.0

    return f


def definitional_oracle(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None) -> float:
    mode = _check_mode(spec, mode)
    A, Q, P = _sets(spec, mode, ctx, A, Q, P)
    f = _base_on_view(spec, ctx, Q, P)
    if mode == MeasureMode.BASE:
        return f(A)
    if mode == MeasureMode.SMI:
        return f(A) + f(Q) - f(A, Q)
    if mode == MeasureMode.CG:
        return f(A, P) - f(P)
    return f(A, P) + f(Q, P) - f(A, Q, P) - f(P)


def conditioned_smi(spec: FunctionSpec, ctx, A, Q, P) -> float:
    """I_{g}(A; Q) for g(S) = f(S u P) - f(P): the information carried by
    the P-shifted function. Must equal the joint measure numerically."""
    A, Q, P = _sets(spec, MeasureMode.CSMI, ctx, A, Q, P)
    f = _base_on_view(spec, ctx, Q, P)

    def g(*sets):
        return f(*sets, P) - f(P)

    return g(A) + g(Q) - g(A, Q)


def smi_conditional_gain(spec: FunctionSpec, ctx, A, Q, P) -> float:
    """h_Q(A | P) for h_Q(S) = I_f(S; Q): the conditional gain of the
    query-information function. The second face of the same identity."""
    A, Q, P = _sets(spec, MeasureMode.CSMI, ctx, A, Q, P)
    f = _base_on_view(spec, ctx, Q, P)

    def h(*sets):
        return f(*sets) + f(Q) - f(*sets, Q)

    return h(A, P) - h(P)
