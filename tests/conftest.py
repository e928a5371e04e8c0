"""Shared builders for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from submodsum.data import AuxiliarySet, GroundSet
from submodsum.functions import EvalContext
from submodsum.functions._common import as_indices


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Property tests that leave max_examples to the profile run 100 fixed
    # examples by default; `--hypothesis-profile deep` runs 2000 fresh ones.
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.register_profile("deep", max_examples=2000, database=None, deadline=None)
    settings.load_profile("tier1")


def relerr(a: float, b: float) -> float:
    """Relative error with a unit floor so values near zero compare absolutely."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def seed_from(name: str) -> int:
    """Stable cross-process seed for a label (str hashing is randomized)."""
    return zlib.crc32(name.encode())


def concept_ctx():
    """Two ground items, one query, one private, unit concept weights.

    Coverage sets: a -> {k1, k2}, b -> {k2, k3}, q -> {k2, k3}, p -> {k2}.
    """
    ground = GroundSet(["a", "b"], concepts=[{"k1": 1, "k2": 1}, {"k2": 1, "k3": 1}],
                       coverage=[{"k1": 0.9, "k2": 0.8}, {"k2": 0.7, "k3": 0.6}])
    q = AuxiliarySet(["q"], concepts=[{"k2": 1, "k3": 1}], coverage=[{"k2": 0.5, "k3": 0.4}], role_tag="query")
    p = AuxiliarySet(["p"], concepts=[{"k2": 1}], coverage=[{"k2": 0.3}], role_tag="private")
    return EvalContext.build(ground, [q, p])


def pair_ctx(s: float, n_ground: int = 1):
    """Two items with cross similarity s; metric 'dot' keeps the raw kernel."""
    kernel = np.array([[1.0, s], [s, 1.0]])
    return EvalContext(kernel, n_ground, metric="dot")


def psd_ctx(rng, n: int, n_ground: int | None = None):
    """Random well-conditioned PSD kernel with unit diagonal."""
    feats = rng.normal(size=(n, 3))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    kernel = 0.5 * (feats @ feats.T) + 0.5 * np.eye(n)
    np.fill_diagonal(kernel, 1.0)
    return EvalContext(kernel, n if n_ground is None else n_ground, metric="dot")


def with_copies(ctx, ground, aux):
    """Context over ctx's ground set followed by the items `ground`, with the
    items `aux` as its auxiliary set (all indices into ctx); a copy of an
    item has the same kernel row and concepts, so it ties exactly with it."""
    idx = np.r_[np.arange(ctx.n_ground), ground, aux].astype(int)
    return EvalContext(ctx.kernel[np.ix_(idx, idx)], ctx.n_ground + len(ground), metric=ctx.metric,
                       counts=ctx.counts[idx], cover_prob=ctx.cover_prob[idx],
                       concept_weights=ctx.concept_weights)


class ScratchObjective:
    """Any set function fn(A) of a sorted index array A over the items
    0..n-1, with every gain recomputed from scratch: the reference the
    incremental states are checked against.  Callable like a margin, so it
    also stands in for one in loss-augmented inference."""

    def __init__(self, fn, n: int):
        self.fn, self.n = fn, n

    def __call__(self, A) -> float:
        return float(self.fn(as_indices(A)))

    value = __call__

    def fresh_state(self):
        return _ScratchState(self.fn)

    def candidates(self) -> np.ndarray:
        return np.arange(self.n)

    def item_ids(self, indices) -> list[str]:
        return [str(i) for i in indices]


def one_gain(state, j) -> float:
    """Candidate j's gain, read alone."""
    return float(state.gain(np.array([j]))[0])


class _ScratchState:
    """Marginal state that rescores fn from scratch: a candidate's gain is
    fn(A + j) less the running sum of the pick gains from fn(empty set)."""

    def __init__(self, fn):
        self.fn = fn
        self.A: list[int] = []
        self.f_A = float(fn(np.zeros(0, dtype=int)))

    def gain(self, indices):
        return np.fromiter((float(self.fn(as_indices(self.A + [j]))) - self.f_A
                            for j in indices.tolist()), float, indices.size)

    def add(self, j):
        self.f_A += one_gain(self, j)
        self.A.append(int(j))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
