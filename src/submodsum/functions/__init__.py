"""Submodular measure families and their information / conditional forms."""

from .api import (
    REGISTRY,
    cg,
    csmi,
    eval_base,
    evaluate,
    make_state,
    marginal,
    modes_supported,
    near_kink,
    partials,
    smi,
)
from .context import EvalContext
from .oracle import conditioned_smi, definitional_oracle, smi_conditional_gain
from .spec import FAMILY_ALIASES, Family, FunctionSpec, MeasureMode, parse_family

__all__ = [
    "EvalContext",
    "FAMILY_ALIASES",
    "Family",
    "FunctionSpec",
    "MeasureMode",
    "REGISTRY",
    "cg",
    "conditioned_smi",
    "csmi",
    "definitional_oracle",
    "eval_base",
    "evaluate",
    "make_state",
    "marginal",
    "modes_supported",
    "near_kink",
    "parse_family",
    "partials",
    "smi",
    "smi_conditional_gain",
]
