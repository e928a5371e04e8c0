"""Shared builders for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from submodsum.data import AuxiliarySet, GroundSet, ItemRecord
from submodsum.functions import EvalContext


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
    ground = GroundSet([
        ItemRecord("a", concepts={"k1": 1, "k2": 1}, coverage={"k1": 0.9, "k2": 0.8}),
        ItemRecord("b", concepts={"k2": 1, "k3": 1}, coverage={"k2": 0.7, "k3": 0.6}),
    ])
    q = AuxiliarySet([ItemRecord("q", concepts={"k2": 1, "k3": 1},
                                 coverage={"k2": 0.5, "k3": 0.4})], "query")
    p = AuxiliarySet([ItemRecord("p", concepts={"k2": 1}, coverage={"k2": 0.3})], "private")
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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
