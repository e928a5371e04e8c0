"""Facility-location-1's state refreshes only the row blocks whose clipped best moved.

A ground row's contributions to every candidate's gain depend on its clipped
best c_i = clip(amax_i, lo_i, hi_i) alone, so a pick recomputes only the
blocks of _ROWS rows that hold a row whose c it raised.  The property test
rebuilds every block of a copy of the state after each pick of a greedy
path and asks for the same bits, on rbf, cosine and dot kernels, in every
mode, with eta and nu drawn so that query caps and conditioning floors bind.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from submodsum.bench import random_instance
from submodsum.functions import Family, FunctionSpec, MeasureMode, make_state

pytest.importorskip("hypothesis")
from hypothesis import event, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# 0 and 1 exactly, and values past 1: eta > 1 lifts the query cap above the
# best query similarity, a large nu lifts the floor over most rows' bests
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0))


def _rebuilt(state):
    """A copy of the state with every block's part recomputed from its c."""
    full = copy.copy(state)
    full.part = state.part.copy()
    full._recompute(np.arange(state.part.shape[0]))
    return full


@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(["rbf", "cosine", "dot"]),
       n=st.integers(1, 70), eta=weights, nu=weights)
def test_fl1_state_matches_full_rebuild(seed, metric, n, eta, nu):
    """After every add along a greedy path the parts and gains are those of
    a state whose blocks were all rebuilt at the same selection, bit for bit."""
    rng = np.random.default_rng(seed)
    ctx, Q, P = random_instance(rng, n_range=(n, n), metric=metric, concepts=False)
    spec = FunctionSpec(Family.FACILITY_LOCATION_1, eta=eta, nu=nu)
    for mode in MeasureMode:
        state = make_state(spec, mode, ctx, Q=Q, P=P)
        floor = state.c.copy()
        rest = np.arange(n)
        for _ in range(min(n, 8)):
            j = int(rest[np.argmax(state.gain(rest))])
            state.add(j)
            rest = rest[rest != j]
            full = _rebuilt(state)
            assert full.part.tobytes() == state.part.tobytes(), (mode, state.selected)
            assert full.gains.tobytes() == state.gains.tobytes(), (mode, state.selected)
        capped = bool(np.any(state.c == state.hi))
        floored = mode in (MeasureMode.CG, MeasureMode.CSMI) and bool(np.any(state.c == floor))
        event(f"{mode.value}: cap binds {capped}, floor binds {floored}")
