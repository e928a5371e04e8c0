"""Submodular measure families and their information / conditional forms."""

from .api import (
    REGISTRY,
    eval_base,
    evaluate,
    make_state,
    modes_supported,
    near_kink,
    partials,
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
    "conditioned_smi",
    "definitional_oracle",
    "eval_base",
    "evaluate",
    "make_state",
    "modes_supported",
    "near_kink",
    "parse_family",
    "partials",
    "smi_conditional_gain",
]
