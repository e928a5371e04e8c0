"""Cardinality-constrained maximization of the information measures.

Greedy (one argmax scan per pick), an exhaustive optimum for small
instances, and the flavor dispatcher that turns a summarization task
into (mode, Q, P).  An objective owns its candidate pool: the ground set
minus the task's query and conditioning items, ascending.  The greedy
drops each pick from it by slicing, so the remaining candidates stay
ascending and every gain read takes them in that order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, NumericError, SizeError, UnsupportedError
from .functions import Family, FunctionSpec, MeasureMode, evaluate, make_state, modes_supported
from .functions._common import MarginalState, as_indices, complement

BRUTE_FORCE_LIMIT = 10**6


class Flavor(str, Enum):
    GENERIC = "generic"
    QUERY = "query"
    PRIVACY = "privacy"
    IRRELEVANCE = "irrelevance"
    UPDATE = "update"
    QUERY_UPDATE = "query_update"
    QUERY_PRIVACY = "query_privacy"


def parse_flavor(name: str) -> Flavor:
    key = name.strip().lower().replace("-", "_")
    try:
        return Flavor(key)
    except ValueError:
        raise ConfigError(f"unknown flavor {name!r}") from None


# flavor -> (mode, uses Q, conditioning source): 'private' or 'previous'
FLAVOR_TABLE = {
    Flavor.GENERIC: (MeasureMode.BASE, False, None),
    Flavor.QUERY: (MeasureMode.SMI, True, None),
    Flavor.PRIVACY: (MeasureMode.CG, False, "private"),
    Flavor.IRRELEVANCE: (MeasureMode.CG, False, "private"),
    Flavor.UPDATE: (MeasureMode.CG, False, "previous"),
    Flavor.QUERY_UPDATE: (MeasureMode.CSMI, True, "previous"),
    Flavor.QUERY_PRIVACY: (MeasureMode.CSMI, True, "private"),
}


@dataclass
class Selection:
    """Solver output: items in pick order with their marginal gains.  The
    greedy's value is the sum of its pick gains; the exhaustive optimum's
    is the objective at its summary."""

    ids: list[str]
    indices: list[int]
    gains: list[float]
    value: float
    budget: int
    flavor: str | None = None

    def __len__(self):
        return len(self.indices)

    def to_json(self) -> dict:
        out = {
            "items": list(self.ids),
            "indices": [int(i) for i in self.indices],
            "gains": [float(g) for g in self.gains],
            "value": float(self.value),
            "budget": int(self.budget),
        }
        if self.flavor is not None:
            out["flavor"] = str(self.flavor)
        return out


class MeasureObjective:
    """One measure bound to a context and fixed conditioning sets."""

    def __init__(self, spec: FunctionSpec, mode: MeasureMode, ctx, Q=None, P=None):
        self.spec = spec
        self.mode = mode
        self.ctx = ctx
        self.Q = as_indices(Q if Q is not None else ())
        self.P = as_indices(P if P is not None else ())

    @property
    def lazy_safe(self) -> bool:
        """True when marginal gains are nonincreasing as the selection grows.
        Dispersion objectives grow gains, the log-det mutual-information
        forms are differences of submodular terms, and the count-overlap
        conditional forms are supermodular below the conditioning counts.
        The solver does not read it."""
        fam, mode = self.spec.family, self.mode
        if fam in (Family.DISPARITY_SUM, Family.DISPARITY_MIN):
            return False
        if fam is Family.LOG_DET:
            return mode in (MeasureMode.BASE, MeasureMode.CG)
        if fam is Family.ROUGE:
            # against conditioning counts a concept's gain max(u + c, v) - max(u, v)
            # grows with the summary's count u
            return mode in (MeasureMode.BASE, MeasureMode.SMI)
        if fam is Family.GRAPH_CUT and mode is not MeasureMode.SMI:
            # cut gains are nonincreasing only for nonnegative similarities
            n = self.ctx.n_ground
            return bool(np.all(self.ctx.kernel[:n, :n] >= 0.0))
        return True

    def fresh_state(self):
        return make_state(self.spec, self.mode, self.ctx, Q=self.Q, P=self.P)

    def value(self, A) -> float:
        return evaluate(self.spec, self.mode, self.ctx, A, self.Q, self.P)

    def candidates(self) -> np.ndarray:
        """The ground set minus Q and P, ascending."""
        return complement(0, self.ctx.n_ground, np.concatenate((self.Q, self.P)))

    def item_ids(self, indices) -> list[str]:
        return [self.ctx.ids[i] for i in indices]


class _CompositeState(MarginalState):
    def __init__(self, parts):
        self.parts = parts  # list of (weight, state)

    def gain(self, indices):
        total = 0.0
        for w, st in self.parts:
            total = total + w * st.gain(indices)
        return total

    def add(self, j):
        for _, st in self.parts:
            st.add(j)


class CompositeObjective:
    """Nonnegative weighted sum of objectives sharing one ground set."""

    def __init__(self, weighted_parts):
        self.parts = [(float(w), obj) for w, obj in weighted_parts]
        if not self.parts:
            raise ConfigError("composite objective needs at least one component")

    @property
    def lazy_safe(self) -> bool:
        """True when every part's marginal gains are nonincreasing."""
        return all(getattr(obj, "lazy_safe", False) for _, obj in self.parts)

    def fresh_state(self):
        return _CompositeState([(w, obj.fresh_state()) for w, obj in self.parts])

    def value(self, A) -> float:
        return float(sum(w * obj.value(A) for w, obj in self.parts))

    def candidates(self) -> np.ndarray:
        return self.parts[0][1].candidates()

    def item_ids(self, indices) -> list[str]:
        return self.parts[0][1].item_ids(indices)


def _require_finite(gains, cands) -> None:
    """Post-condition on every gain the solver reads: a NaN would silently
    corrupt the argmax, and an infinity every later sum."""
    finite = np.isfinite(gains)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite gain
        raise NumericError(f"non-finite marginal gain {gains[i]} for candidate {cands[i]}")


def greedy_maximize(obj, k: int, stop_on_nonpositive: bool = False,
                    flavor: str | None = None) -> Selection:
    """Budget-k greedy over obj.candidates(): each pick reads every
    remaining candidate's gain as one array and takes its argmax. The
    remaining candidates stay ascending: a pick is sliced out of them.
    Every gain read must be finite, else NumericError.  The selection's
    value is the sum of the pick gains, f of the summary less f of the
    empty set."""
    cand = obj.candidates()
    k = int(k)
    if k < 0:
        raise ConfigError("budget must be nonnegative")
    if k > cand.size:
        raise ConfigError(f"budget {k} exceeds {cand.size} available candidates")
    state = obj.fresh_state()
    picked: list[int] = []
    gains: list[float] = []
    remaining = cand  # ascending
    while len(picked) < k:  # a zero budget reads no gain
        gvals = state.gain(remaining)
        _require_finite(gvals, remaining)
        # argmax returns the first of equal gains: lowest index wins ties
        best = int(np.argmax(gvals))
        g = float(gvals[best])
        if stop_on_nonpositive and g <= 0:
            break
        j = int(remaining[best])
        remaining = np.concatenate((remaining[:best], remaining[best + 1:]))
        state.add(j)
        picked.append(j)
        gains.append(g)
    return Selection(
        ids=obj.item_ids(picked),
        indices=picked,
        gains=gains,
        value=float(sum(gains)),
        budget=k,
        flavor=flavor,
    )


def brute_force_opt(obj, k: int) -> Selection:
    """Exhaustive optimum over all subsets of obj.candidates() of size <= k
    (small instances only)."""
    cand = obj.candidates()
    n = cand.size
    k = int(min(k, n))
    total = sum(math.comb(n, r) for r in range(k + 1))
    if total > BRUTE_FORCE_LIMIT:
        raise SizeError(f"{total} subsets exceed the exhaustive limit {BRUTE_FORCE_LIMIT}")
    best_val = obj.value(())
    best: tuple[int, ...] = ()
    for r in range(1, k + 1):
        for combo in itertools.combinations(cand.tolist(), r):
            v = obj.value(combo)
            if v > best_val + 1e-12:
                best_val, best = v, combo
    gains = []
    prev = obj.value(())
    for i in range(1, len(best) + 1):
        cur = obj.value(best[:i])
        gains.append(cur - prev)
        prev = cur
    return Selection(
        ids=obj.item_ids(list(best)),
        indices=list(best),
        gains=gains,
        value=float(best_val),
        budget=k,
    )


def flavor_sets(flavor: Flavor, Q=None, P=None, previous=None):
    """Resolve a flavor to (mode, Q, conditioning); None for a required set is
    a configuration error, empty is a legal degenerate instance."""
    mode, wants_q, cond_source = FLAVOR_TABLE[flavor]
    if wants_q and Q is None:
        raise ConfigError(f"flavor {flavor.value} requires a query set")
    cond = None
    if cond_source == "private":
        if P is None:
            raise ConfigError(f"flavor {flavor.value} requires a private/irrelevant set")
        cond = P
    elif cond_source == "previous":
        if previous is None:
            raise ConfigError(f"flavor {flavor.value} requires the previous summary")
        cond = previous
    return mode, (Q if wants_q else None), cond


def master_solve(flavor: Flavor, spec: FunctionSpec, ctx, k: int, Q=None, P=None,
                 previous=None, stop_on_nonpositive: bool = False) -> Selection:
    """Solve max_{A subset of V, |A| <= k} of the flavor's measure."""
    mode, q_used, cond = flavor_sets(flavor, Q, P, previous)
    if mode not in modes_supported(spec.family):
        raise UnsupportedError(f"{spec.family.value} cannot express flavor {flavor.value}")
    obj = MeasureObjective(spec, mode, ctx, Q=q_used, P=cond)
    return greedy_maximize(obj, k, stop_on_nonpositive=stop_on_nonpositive, flavor=flavor.value)
