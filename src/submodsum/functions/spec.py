"""Measure specifications: which family, which mode, which parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ConfigError


class Family(str, Enum):
    SET_COVER = "set_cover"
    PROB_SET_COVER = "prob_set_cover"
    GRAPH_CUT = "graph_cut"
    FACILITY_LOCATION_1 = "facility_location_1"
    FACILITY_LOCATION_2 = "facility_location_2"
    LOG_DET = "log_det"
    CONCAVE_OVER_MODULAR = "concave_over_modular"
    ROUGE = "rouge"
    DISPARITY_SUM = "disparity_sum"
    DISPARITY_MIN = "disparity_min"


# Accepted spellings for CLI/JSON input.
FAMILY_ALIASES = {
    "sc": Family.SET_COVER,
    "setcover": Family.SET_COVER,
    "psc": Family.PROB_SET_COVER,
    "probsetcover": Family.PROB_SET_COVER,
    "gc": Family.GRAPH_CUT,
    "graphcut": Family.GRAPH_CUT,
    "fl1": Family.FACILITY_LOCATION_1,
    "facilitylocation1": Family.FACILITY_LOCATION_1,
    "fl2": Family.FACILITY_LOCATION_2,
    "facilitylocation2": Family.FACILITY_LOCATION_2,
    "logdet": Family.LOG_DET,
    "com": Family.CONCAVE_OVER_MODULAR,
    "concaveovermodular": Family.CONCAVE_OVER_MODULAR,
    "rouge": Family.ROUGE,
    "dsum": Family.DISPARITY_SUM,
    "disparitysum": Family.DISPARITY_SUM,
    "dmin": Family.DISPARITY_MIN,
    "disparitymin": Family.DISPARITY_MIN,
}


def parse_family(name: str) -> Family:
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key in FAMILY_ALIASES:
        return FAMILY_ALIASES[key]
    raise ConfigError(f"unknown function family {name!r}")


class MeasureMode(str, Enum):
    BASE = "base"  # f(A)
    SMI = "smi"  # I_f(A; Q)
    CG = "cg"  # f(A | P)
    CSMI = "csmi"  # I_f(A; Q | P)


# the concave transforms of concave-over-modular, by the name a spec gives
PSI = {
    "sqrt": np.sqrt,
    "log1p": np.log1p,
    "identity": lambda x: x,
}


@dataclass
class FunctionSpec:
    """One measure family with its continuous parameters.

    lam: graph-cut redundancy penalty (finite, >= 0).
    eta: query-relevance weighting (finite, >= 0).
    nu: privacy-hardness weighting on cross similarities (finite, >= 0).
    psi: concave transform for concave-over-modular ('sqrt', 'log1p', 'identity').
    com_weights: optional (data_side, query_side) pair; when None the single
        eta maps to (eta, 1).
    """

    family: Family
    lam: float = 1.0
    eta: float = 1.0
    nu: float = 1.0
    psi: str = "sqrt"
    com_weights: tuple[float, float] | None = None

    def __post_init__(self):
        if isinstance(self.family, str) and not isinstance(self.family, Family):
            self.family = parse_family(self.family)
        for name in ("lam", "eta", "nu"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be finite and nonnegative, got {v!r}")
        if self.psi not in tuple(PSI):  # a tuple: an unhashable psi is unknown, not a TypeError
            raise ConfigError(f"psi must be one of {tuple(PSI)}, got {self.psi!r}")
        if self.com_weights is not None:
            w = tuple(self.com_weights)
            if not (len(w) == 2 and all(v >= 0 and math.isfinite(v) for v in w)):
                raise ConfigError(f"com_weights must be a pair of finite nonnegative numbers, "
                                  f"got {self.com_weights!r}")
            self.com_weights = (float(w[0]), float(w[1]))

    def com_deltas(self) -> tuple[float, float]:
        """(data-side, query-side) weights for concave-over-modular."""
        return self.com_weights if self.com_weights is not None else (self.eta, 1.0)

    def to_json(self) -> dict:
        out: dict = {"family": self.family.value}
        if self.lam != 1.0:
            out["lam"] = self.lam
        if self.eta != 1.0:
            out["eta"] = self.eta
        if self.nu != 1.0:
            out["nu"] = self.nu
        if self.psi != "sqrt":
            out["psi"] = self.psi
        if self.com_weights is not None:
            out["com_weights"] = list(self.com_weights)
        return out

    @classmethod
    def from_json(cls, obj) -> "FunctionSpec":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ConfigError(f"function spec must be an object with a 'family' key, got {obj!r}")
        known = {"family", "lam", "eta", "nu", "psi", "com_weights"}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown function spec keys: {sorted(extra)}")
        cw = obj.get("com_weights")
        try:
            return cls(
                family=parse_family(str(obj["family"])),
                lam=float(obj.get("lam", 1.0)),
                eta=float(obj.get("eta", 1.0)),
                nu=float(obj.get("nu", 1.0)),
                psi=str(obj.get("psi", "sqrt")),
                com_weights=None if cw is None else tuple(float(v) for v in cw),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed function spec {obj!r}: {exc}") from None
