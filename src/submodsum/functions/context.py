"""Evaluation context: one kernel plus concept matrices over V union V'.

Items are indexed 0..n-1 for the ground set V and n..N-1 for auxiliary
items (V').  The context holds the N x N kernel, the concept matrices and
one m x n array; families read what they need:

* kernel                   graph-cut, log-determinant (which reads blocks
                           of it and adds the jitter to their diagonals)
* similarity(rows, cols)   facility-location, disparity: a kernel block
                           mapped into [0, 1] by s = scale * (k + shift):
                           shift 1 and scale 1/2 for cosine, 0 and 1 (no
                           map) otherwise.  scale is a power of two, so a
                           reader of k + shift (the facility-location state)
                           holds s / scale exactly
* cross                    second facility-location variant,
                           concave-over-modular: the mapped V' x V block
* counts / cover_prob      set-cover, probabilistic set-cover, rouge

The kernel is finite and exactly symmetric (checked here unless it comes
as a SimilarityKernel: from build_kernel, which builds it so, or from
copy_with, which hands on a checked one), so cross serves both directions:
the V x V' block is its transpose.  The copy_with hook swaps the kernel
or the cross block; the definitional oracle uses it to evaluate base
functions on transformed kernels.
"""

from __future__ import annotations

import numpy as np

from ..data import (
    AuxiliarySet,
    ConceptUniverse,
    GroundSet,
    SimilarityKernel,
    aux_list,
    build_kernel,
    count_matrix,
    coverage_matrix,
)
from ..errors import ConfigError


class EvalContext:
    def __init__(
        self,
        kernel: np.ndarray | SimilarityKernel,
        n_ground: int,
        ids: tuple[str, ...] | None = None,
        metric: str = "cosine",
        jitter: float = 1e-6,
        counts: np.ndarray | None = None,
        cover_prob: np.ndarray | None = None,
        concept_weights: np.ndarray | None = None,
        role_indices: dict[str, tuple[int, ...]] | None = None,
    ):
        built = isinstance(kernel, SimilarityKernel)
        self.kernel = kernel.matrix if built else np.asarray(kernel, dtype=float)
        self.size = self.kernel.shape[0]
        if self.kernel.shape != (self.size, self.size):
            raise ConfigError("kernel must be square")
        if not (built or (np.isfinite(self.kernel).all() and np.array_equal(self.kernel, self.kernel.T))):
            raise ConfigError("kernel must be finite and symmetric")
        if not (0 <= n_ground <= self.size):
            raise ConfigError("n_ground out of range")
        self.n_ground = n_ground
        self.ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(self.size))
        if len(self.ids) != self.size:
            raise ConfigError(f"ids must name the {self.size} items of the kernel, got {len(self.ids)}")
        self.metric = metric
        self.shift, self.scale = (1.0, 0.5) if metric == "cosine" else (0.0, 1.0)
        self.jitter = float(jitter)
        self.counts = None if counts is None else np.asarray(counts, dtype=float)
        self.cover_prob = None if cover_prob is None else np.asarray(cover_prob, dtype=float)
        shapes = {m.shape for m in (self.counts, self.cover_prob) if m is not None}
        widths = {s[1] for s in shapes if len(s) == 2 and s[0] == self.size}
        if len(shapes) > 1 or len(widths) < len(shapes):
            raise ConfigError(f"counts and cover_prob must be matrices of one shape, one row per item "
                              f"of the kernel ({self.size}), got {sorted(shapes)}")
        w = np.ones(*widths) if concept_weights is None and widths else concept_weights
        self.concept_weights = None if w is None else np.asarray(w, dtype=float)
        if widths and self.concept_weights.shape != (*widths,):
            raise ConfigError(f"concept_weights must have shape {(*widths,)}, got {self.concept_weights.shape}")
        self.role_indices = dict(role_indices or {})
        self._index = {i: k for k, i in enumerate(self.ids)}
        self.cross = self.similarity(slice(n_ground, None), slice(n_ground))

    def similarity(self, rows, cols) -> np.ndarray:
        """Kernel block rows x cols mapped into [0, 1]: scale * (k + shift),
        (k + 1) / 2 for cosine, the kernel's own entries otherwise.  Two index
        arrays select through np.ix_, an int or a slice as numpy does: never
        write to the block."""
        block = self.kernel[np.ix_(rows, cols) if np.ndim(rows) and np.ndim(cols) else (rows, cols)]
        if not self.shift:  # shift 0 comes with scale 1: no map
            return block
        out = block + self.shift
        out *= self.scale
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        ground: GroundSet,
        aux: AuxiliarySet | list[AuxiliarySet] | None = None,
        metric: str = "cosine",
        jitter: float = 1e-6,
        sigma: float = 1.0,
        universe: ConceptUniverse | None = None,
    ) -> "EvalContext":
        aux_sets = aux_list(aux)
        kern = build_kernel(ground, aux_sets, metric=metric, jitter=jitter, sigma=sigma, universe=universe)
        all_sets = [ground, *aux_sets]
        counts = cover = weights = None
        if any(s.counts.names or s.cover.names for s in all_sets):
            uni = universe or ConceptUniverse.from_items(*all_sets)
            counts = count_matrix(all_sets, uni)
            cover = coverage_matrix(all_sets, uni)
            weights = uni.weights
        roles: dict[str, tuple[int, ...]] = {}
        offset = len(ground)
        for s in aux_sets:
            idx = tuple(range(offset, offset + len(s)))
            roles[s.role_tag] = roles.get(s.role_tag, ()) + idx
            offset += len(s)
        return cls(
            kern,
            len(ground),
            ids=kern.ids,
            metric=metric,
            jitter=jitter,
            counts=counts,
            cover_prob=cover,
            concept_weights=weights,
            role_indices=roles,
        )

    def copy_with(self, **kw) -> "EvalContext":
        """Copy with selected fields replaced.  A copy that keeps the kernel
        gets it as the checked SimilarityKernel it is, so it is not checked
        again; a bare kernel passed here is.  A cross block passed here is
        fixed on the copy; otherwise the copy builds it again from its kernel.
        """
        cross = kw.pop("cross", None)
        base = dict(
            kernel=SimilarityKernel(self.kernel, self.ids, self.metric, self.jitter),
            n_ground=self.n_ground,
            ids=self.ids,
            metric=self.metric,
            jitter=self.jitter,
            counts=self.counts,
            cover_prob=self.cover_prob,
            concept_weights=self.concept_weights,
            role_indices=self.role_indices,
        )
        base.update(kw)
        out = EvalContext(**base)
        if cross is not None:
            if np.shape(cross) != out.cross.shape:
                raise ConfigError(f"cross must have shape {out.cross.shape}, got {np.shape(cross)}")
            out.cross = np.asarray(cross, dtype=float)
        return out

    # -- index helpers -----------------------------------------------------

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise LookupError(f"unknown item id {item_id!r}") from None

    def indices_of(self, item_ids) -> tuple[int, ...]:
        return tuple(self.index_of(i) for i in item_ids)

    def require_concepts(self, what: str) -> None:
        if self.counts is None and self.cover_prob is None:
            raise ConfigError(f"{what} needs concept annotations, none present in the context")

    def require_counts(self, what: str) -> None:
        if self.counts is None:
            raise ConfigError(f"{what} needs concept counts, none present in the context")
