"""Public dispatch over the measure families.

All set arguments are integer index sets into an EvalContext universe
(0..n_ground-1 is the ground set V, the rest the auxiliary shadow V').
Every entry point that takes A, Q or P reads them under one contract,
written once in _sets:

- each set is a flat iterable of integers (as_indices), normalized to
  sorted unique indices;
- A is a subset of V;
- Q and P lie in V u V', and only in V' for an AUX_ONLY family;
- A, Q and P are pairwise disjoint;
- a set the mode does not read (Q outside smi/csmi, P outside cg/csmi)
  is ignored and comes back empty.

A broken contract raises ConfigError.  eval_base is f itself, over any S
in V u V'.  No other module reads a mode: a family names its form by
which of Q and P is nonempty (_common.FamilyOps), so f(A | {}) = f(A) and
I(A; Q | {}) = I(A; Q) need no case of their own.  The wrappers collapse
the measures that are identically zero, I(A; {}) = I(A; {} | P) = 0, and
an empty A, so family code never sees them.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, UnsupportedError
from ._common import NO_ITEMS, FixedGains, MarginalState, as_indices
from .concave import ConcaveOverModularOps
from .coverage import ProbSetCoverOps, SetCoverOps
from .disparity import DisparityMinOps, DisparitySumOps
from .facility import FacilityLocation1Ops, FacilityLocation2Ops
from .graphcut import GraphCutOps
from .logdet import LogDetOps
from .rouge import RougeOps
from .spec import Family, FunctionSpec, MeasureMode

REGISTRY = {
    Family.SET_COVER: SetCoverOps(),
    Family.PROB_SET_COVER: ProbSetCoverOps(),
    Family.GRAPH_CUT: GraphCutOps(),
    Family.FACILITY_LOCATION_1: FacilityLocation1Ops(),
    Family.FACILITY_LOCATION_2: FacilityLocation2Ops(),
    Family.LOG_DET: LogDetOps(),
    Family.CONCAVE_OVER_MODULAR: ConcaveOverModularOps(),
    Family.ROUGE: RougeOps(),
    Family.DISPARITY_SUM: DisparitySumOps(),
    Family.DISPARITY_MIN: DisparityMinOps(),
}

_USES_Q = (MeasureMode.SMI, MeasureMode.CSMI)
_USES_P = (MeasureMode.CG, MeasureMode.CSMI)


def modes_supported(family: Family) -> frozenset:
    return REGISTRY[family].MODES


def _check_mode(spec: FunctionSpec, mode) -> MeasureMode:
    try:
        mode = MeasureMode(mode)
    except ValueError:
        raise ConfigError(f"unknown mode {mode!r}") from None
    if mode not in modes_supported(spec.family):
        raise UnsupportedError(f"{spec.family.value} does not define mode {mode.value}")
    return mode


def index_set(ctx, S, label: str, ground: bool = False) -> np.ndarray:
    """S as sorted unique indices, checked to lie in the ground set V with
    ground=True, else in the universe V u V'; None reads as empty."""
    S = as_indices(S if S is not None else ())
    if S.size and (S[0] < 0 or S[-1] >= (ctx.n_ground if ground else ctx.size)):
        raise ConfigError(f"{label} must be a subset of the ground set (indices 0..{ctx.n_ground - 1})" if ground
                          else f"{label} contains indices outside the universe 0..{ctx.size - 1}")
    return S


def _sets(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q, P):
    """(A, Q, P) under the index-set contract of the module docstring."""
    A = index_set(ctx, A, "A", ground=True)
    Q = index_set(ctx, Q, "Q") if mode in _USES_Q else NO_ITEMS
    P = index_set(ctx, P, "P") if mode in _USES_P else NO_ITEMS
    if REGISTRY[spec.family].AUX_ONLY:
        for S, label in ((Q, "Q"), (P, "P")):
            if S.size and S[0] < ctx.n_ground:
                raise ConfigError(f"{label} must live in the auxiliary universe for this family")
    for (a, la), (b, lb) in (((A, "A"), (Q, "Q")), ((A, "A"), (P, "P")), ((Q, "Q"), (P, "P"))):
        # most calls leave Q or P empty; on the small sets a call takes, a
        # Python set intersects about 8x faster than np.intersect1d
        if a.size and b.size and (shared := set(a.tolist()).intersection(b.tolist())):
            raise ConfigError(f"{la} and {lb} must be disjoint, share {sorted(shared)}")
    return A, Q, P


def _reduce(spec: FunctionSpec, mode, ctx, A, Q, P):
    """(mode, A, Q, P): the checked mode and the sets under _sets; the mode
    is None where the measure is identically zero, a mode that reads Q
    given none."""
    mode = _check_mode(spec, mode)
    A, Q, P = _sets(spec, mode, ctx, A, Q, P)
    return (None if mode in _USES_Q and not Q.size else mode), A, Q, P


def eval_base(spec: FunctionSpec, S, ctx) -> float:
    """f(S) for any S in the universe V u V', auxiliary items included: the
    function the definitional oracle builds every mode from."""
    S = index_set(ctx, S, "S")
    if not S.size:
        return 0.0
    return float(REGISTRY[spec.family].base(ctx, spec, S))


def evaluate(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None) -> float:
    """Mode-polymorphic entry point used by the optimizer and learner."""
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    if mode is None or not A.size:
        return 0.0
    ops = REGISTRY[spec.family]
    return float(ops.value(ctx, spec, A, Q, P) if Q.size or P.size else ops.base(ctx, spec, A))


def make_state(spec: FunctionSpec, mode: MeasureMode, ctx, Q=None, P=None) -> MarginalState:
    """Incremental evaluator for the chosen measure, started at A = {}.

    A measure that is identically zero gains nothing, as its closed form.
    """
    mode, _, Q, P = _reduce(spec, mode, ctx, (), Q, P)
    return FixedGains(np.zeros(ctx.n_ground)) if mode is None else REGISTRY[spec.family].state(ctx, spec, Q, P)


def partials(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None) -> dict:
    """d measure / d parameter for the family's continuous parameters.

    Missing keys mean zero gradient; a measure that is identically zero gives {}.
    """
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    if mode is None or not A.size:
        return {}
    out = REGISTRY[spec.family].partials(ctx, spec, A, Q, P)
    return {k: float(v) for k, v in out.items()}


def near_kink(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None, tol: float = 1e-5) -> bool:
    """True when a max/min switch sits within tol, making the parameter
    gradient one-sided at this point."""
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    if mode is None or not A.size:
        return False
    return bool(REGISTRY[spec.family].near_kink(ctx, spec, A, Q, P, tol))
