"""Set cover is probabilistic set cover on its 0/1 coverage incidence."""

from __future__ import annotations

import numpy as np
import pytest

from submodsum.bench import random_instance, with_ground_members
from submodsum.functions import Family, FunctionSpec, evaluate, make_state, modes_supported
from submodsum.optimize import MeasureObjective, greedy_maximize

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SC, PSC = FunctionSpec(Family.SET_COVER), FunctionSpec(Family.PROB_SET_COVER)


def _state_reads(spec, mode, ctx, Q, P, picks):
    """The bytes of each gain read over the candidates left, before every
    pick and after the last."""
    state = make_state(spec, mode, ctx, Q, P)
    cands = MeasureObjective(spec, mode, ctx, Q=Q, P=P).candidates()
    reads = []
    for j in [*picks, None]:
        reads.append(state.gain(cands).tobytes())
        if j is not None:
            state.add(j)
            cands = cands[cands != j]
    return reads


@given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(("rbf", "cosine", "dot")),
       source=st.sampled_from(("built", "counts", "cover")), ground_members=st.booleans())
def test_set_cover_is_prob_set_cover_on_its_incidence(seed, metric, source, ground_members):
    """sc on a context equals psc, byte for byte, on the same context with
    cover_prob replaced by the 0/1 incidence sc reads (counts above 0 where
    the context has counts, else coverage above 0): evaluate in every mode,
    every state read along a greedy's picks, and the greedy's picks and gains.
    On a context without coverage probabilities psc reads that incidence
    itself, so there it equals sc on the context as it is."""
    rng = np.random.default_rng(seed)
    ctx, Q, P = random_instance(rng, metric=metric)
    if source == "counts":
        ctx = ctx.copy_with(cover_prob=None)
    elif source == "cover":
        ctx = ctx.copy_with(counts=None)
    incidence = (ctx.counts if ctx.counts is not None else ctx.cover_prob) > 0
    twins = [ctx.copy_with(cover_prob=incidence.astype(float))]
    if ctx.cover_prob is None:
        twins.append(ctx)
    if ground_members:
        A, Q, P = with_ground_members(rng, ctx, Q, P)
    else:
        A = tuple(rng.permutation(ctx.n_ground)[:int(rng.integers(1, ctx.n_ground + 1))].tolist())
    assert modes_supported(Family.SET_COVER) == modes_supported(Family.PROB_SET_COVER)
    for mode in modes_supported(Family.SET_COVER):
        value = np.float64(evaluate(SC, mode, ctx, A, Q, P)).tobytes()
        obj = MeasureObjective(SC, mode, ctx, Q=Q, P=P)
        k = min(4, len(obj.candidates()))
        sel = greedy_maximize(obj, k)
        reads = _state_reads(SC, mode, ctx, Q, P, sel.indices)
        for twin in twins:
            assert np.float64(evaluate(PSC, mode, twin, A, Q, P)).tobytes() == value
            twin_sel = greedy_maximize(MeasureObjective(PSC, mode, twin, Q=Q, P=P), k)
            assert sel.indices == twin_sel.indices
            assert np.asarray(sel.gains).tobytes() == np.asarray(twin_sel.gains).tobytes()
            assert reads == _state_reads(PSC, mode, twin, Q, P, sel.indices)
