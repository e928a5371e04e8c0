"""Public dispatch over the measure families.

All set arguments are integer index sets into an EvalContext universe
(0..n_ground-1 is the ground set, the rest the auxiliary shadow). The
wrappers normalize sets, enforce disjointness, ignore a set the mode does
not read (Q outside smi/csmi, P outside cg/csmi), and collapse the
degenerate cases every family shares:

    I(A; {})   = 0          f(A | {}) = f(A)        I(A; Q | {}) = I(A; Q)
    I(A; {} | P) = 0

so family code never sees an empty conditioning set where it would have
to invert an empty block, nor an empty A.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, UnsupportedError
from ._common import MarginalState, as_indices, check_disjoint, check_ground, check_universe
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


def _norm(ctx, S, label, ground=False):
    S = as_indices(S if S is not None else ())
    check_universe(S, ctx, label)
    if ground:
        check_ground(S, ctx, label)
    return S


def _reduce(spec: FunctionSpec, mode, ctx, A, Q, P):
    """(effective mode, A, Q, P) with the sets normalized and the degenerate
    conditioning collapsed; the mode is None where the measure is
    identically zero.  A set the mode does not read comes back empty."""
    mode = _check_mode(spec, mode)
    A = _norm(ctx, A, "A", ground=True)
    Q = _norm(ctx, Q if mode in _USES_Q else None, "Q")
    P = _norm(ctx, P if mode in _USES_P else None, "P")
    if mode in _USES_Q and not Q.size:
        return None, A, Q, P
    if mode in _USES_P and not P.size:
        mode = MeasureMode.SMI if mode == MeasureMode.CSMI else MeasureMode.BASE
    return mode, A, Q, P


def eval_base(spec: FunctionSpec, S, ctx) -> float:
    S = _norm(ctx, S, "S")
    if not S.size:
        return 0.0
    return float(REGISTRY[spec.family].base(ctx, spec, S))


def evaluate(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None) -> float:
    """Mode-polymorphic entry point used by the optimizer and learner."""
    if mode == MeasureMode.BASE:
        return eval_base(spec, A, ctx)
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    check_disjoint(A, Q, "A", "Q")
    check_disjoint(A, P, "A", "P")
    check_disjoint(Q, P, "Q", "P")
    if mode is None or not A.size:
        return 0.0
    ops = REGISTRY[spec.family]
    if mode == MeasureMode.BASE:
        return float(ops.base(ctx, spec, A))
    return float(ops.value(ctx, spec, mode, A, Q, P))


class _ZeroState(MarginalState):
    def __init__(self, size: int):
        super().__init__()
        self.gains = np.zeros(size)

    def _push(self, j):
        pass


def make_state(spec: FunctionSpec, mode: MeasureMode, ctx, Q=None, P=None) -> MarginalState:
    """Incremental evaluator for the chosen measure, started at A = {}.

    Degenerate conditioning collapses exactly like the closed forms do.
    """
    eff, _, Q, P = _reduce(spec, mode, ctx, (), Q, P)
    return _ZeroState(ctx.size) if eff is None else REGISTRY[spec.family].state(ctx, spec, eff, Q, P)


def partials(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None) -> dict:
    """d measure / d parameter for the family's continuous parameters.

    Missing keys mean zero gradient; degenerate conditioning gives {}.
    """
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    if mode is None or not A.size:
        return {}
    out = REGISTRY[spec.family].partials(ctx, spec, mode, A, Q, P)
    return {k: float(v) for k, v in out.items()}


def near_kink(spec: FunctionSpec, mode: MeasureMode, ctx, A, Q=None, P=None, tol: float = 1e-5) -> bool:
    """True when a max/min switch sits within tol, making the parameter
    gradient one-sided at this point."""
    mode, A, Q, P = _reduce(spec, mode, ctx, A, Q, P)
    if mode is None or not A.size:
        return False
    return bool(REGISTRY[spec.family].near_kink(ctx, spec, mode, A, Q, P, tol))
