"""Cardinality-constrained maximization of the information measures.

Greedy (accelerated lazy variant and plain variant), an exhaustive
optimum for small instances, and the flavor dispatcher that turns a
summarization task into (mode, Q, P) plus a candidate pool.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, NumericError, SizeError, UnsupportedError
from .functions import Family, FunctionSpec, MeasureMode, evaluate, make_state, modes_supported
from .functions._common import as_indices

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
    """Greedy output: items in pick order with their marginal gains."""

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
        """True when marginal gains are nonincreasing, so stale upper bounds
        stay valid. Dispersion objectives grow gains as the selection grows,
        the log-det mutual-information forms are differences of submodular
        terms, and the count-overlap conditional forms are supermodular
        below the conditioning counts, so all of them get the plain scan."""
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
        return np.arange(self.ctx.n_ground)

    def item_ids(self, indices) -> list[str]:
        return [self.ctx.ids[i] for i in indices]


class _CompositeState:
    def __init__(self, parts):
        self.parts = parts  # list of (weight, state)
        self.value = 0.0

    def gain(self, j):
        return float(sum(w * st.gain(j) for w, st in self.parts))

    def add(self, j):
        g = float(sum(w * st.add(j) for w, st in self.parts))
        self.value += g
        return g


class CompositeObjective:
    """Nonnegative weighted sum of objectives sharing one ground set."""

    def __init__(self, weighted_parts):
        self.parts = [(float(w), obj) for w, obj in weighted_parts]
        if not self.parts:
            raise ConfigError("composite objective needs at least one component")

    @property
    def lazy_safe(self) -> bool:
        return all(getattr(obj, "lazy_safe", False) for _, obj in self.parts)

    def fresh_state(self):
        return _CompositeState([(w, obj.fresh_state()) for w, obj in self.parts])

    def value(self, A) -> float:
        return float(sum(w * obj.value(A) for w, obj in self.parts))

    def candidates(self) -> np.ndarray:
        return self.parts[0][1].candidates()

    def item_ids(self, indices) -> list[str]:
        return self.parts[0][1].item_ids(indices)


class FunctionObjective:
    """Arbitrary set function given as a callable; gains recomputed from scratch.

    Callers who know the function is submodular can pass lazy_safe=True to
    allow the stale-bound heap."""

    def __init__(self, fn, candidates, ids=None, lazy_safe=False):
        self.fn = fn
        self._candidates = as_indices(candidates)
        self._ids = ids
        self.lazy_safe = bool(lazy_safe)

    def fresh_state(self):
        return _CallableState(self.fn)

    def value(self, A) -> float:
        return float(self.fn(as_indices(A)))

    def candidates(self) -> np.ndarray:
        return self._candidates.copy()

    def item_ids(self, indices) -> list[str]:
        if self._ids is None:
            return [str(i) for i in indices]
        return [self._ids[i] for i in indices]


class _CallableState:
    def __init__(self, fn):
        self.fn = fn
        self.selected: list[int] = []
        self.value = float(fn(np.zeros(0, dtype=int)))

    def gain(self, j):
        A = as_indices(self.selected + [int(j)])
        return float(self.fn(A)) - self.value

    def add(self, j):
        g = self.gain(j)
        self.selected.append(int(j))
        self.value += g
        return g


def _require_finite(gains, cands) -> None:
    """Post-condition on every gain the solver reads: a NaN would silently
    corrupt the heap order or the max, and an infinity every later sum."""
    if not all(map(math.isfinite, gains)):
        g, j = next((g, j) for g, j in zip(gains, cands) if not math.isfinite(g))
        raise NumericError(f"non-finite marginal gain {g} for candidate {j}")


def greedy_maximize(obj, k: int, lazy: bool = True, stop_on_nonpositive: bool = False,
                    candidates=None, flavor: str | None = None) -> Selection:
    """Budget-k greedy. The lazy variant keeps stale upper bounds in a heap
    and refreshes the top until it is current; with submodular gains the
    result matches the plain variant pick for pick, including ties.
    Objectives that declare lazy_safe=False always get the plain scan.
    Every gain read must be finite, else NumericError."""
    cand = as_indices(candidates) if candidates is not None else obj.candidates()
    k = int(k)
    if k < 0:
        raise ConfigError("budget must be nonnegative")
    if k > cand.size:
        raise ConfigError(f"budget {k} exceeds {cand.size} available candidates")
    lazy = lazy and getattr(obj, "lazy_safe", True)
    state = obj.fresh_state()
    picked: list[int] = []
    gains: list[float] = []
    if lazy:
        heap = [(-math.inf, int(j)) for j in cand]
        heapq.heapify(heap)
        fresh: set[int] = set()
        while heap and len(picked) < k:
            negb, j = heapq.heappop(heap)
            if j not in fresh:
                g = state.gain(j)
                _require_finite((g,), (j,))
                fresh.add(j)
                heapq.heappush(heap, (-g, j))
                continue
            if stop_on_nonpositive and -negb <= 0:
                break
            g = state.add(j)
            picked.append(j)
            gains.append(g)
            fresh.clear()
    else:
        remaining = [int(j) for j in cand]  # ascending
        while remaining and len(picked) < k:
            gvals = [state.gain(j) for j in remaining]
            _require_finite(gvals, remaining)
            # max keeps the first of equal gains: lowest index wins ties
            best = max(range(len(remaining)), key=gvals.__getitem__)
            g = gvals[best]
            if stop_on_nonpositive and g <= 0:
                break
            j = remaining.pop(best)
            state.add(j)
            picked.append(j)
            gains.append(g)
    return Selection(
        ids=obj.item_ids(picked),
        indices=picked,
        gains=gains,
        value=float(state.value),
        budget=k,
        flavor=flavor,
    )


def brute_force_opt(obj, k: int, candidates=None) -> Selection:
    """Exhaustive optimum over all subsets of size <= k (small instances only)."""
    cand = obj.candidates() if candidates is None else as_indices(candidates)
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
                 previous=None, lazy: bool = True, stop_on_nonpositive: bool = False) -> Selection:
    """Solve max_{A subset of V, |A| <= k} of the flavor's measure."""
    mode, q_used, cond = flavor_sets(flavor, Q, P, previous)
    if mode not in modes_supported(spec.family):
        raise UnsupportedError(f"{spec.family.value} cannot express flavor {flavor.value}")
    obj = MeasureObjective(spec, mode, ctx, Q=q_used, P=cond)
    fixed = as_indices(np.concatenate([
        np.asarray(as_indices(s), dtype=int) for s in (q_used, cond) if s is not None
    ]) if (q_used is not None or cond is not None) else ())
    cand = np.setdiff1d(np.arange(ctx.n_ground), fixed)
    return greedy_maximize(obj, k, lazy=lazy, stop_on_nonpositive=stop_on_nonpositive,
                           candidates=cand, flavor=flavor.value)
