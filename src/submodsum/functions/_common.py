"""Shared plumbing for measure families: set handling, scaling, marginal states."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .spec import MeasureMode

# -- set handling ------------------------------------------------------------


NO_ITEMS = np.zeros(0, dtype=int)


def as_indices(S) -> np.ndarray:
    """Sorted unique int array; accepts any iterable of indices."""
    arr = np.asarray(sorted(set(int(i) for i in S)), dtype=int)
    return arr


def check_ground(A: np.ndarray, ctx, label: str = "A") -> None:
    if A.size and (A.min() < 0 or A.max() >= ctx.n_ground):
        raise ConfigError(f"{label} must be a subset of the ground set (indices 0..{ctx.n_ground - 1})")


def check_universe(S: np.ndarray, ctx, label: str) -> None:
    if S.size and (S.min() < 0 or S.max() >= ctx.size):
        raise ConfigError(f"{label} contains indices outside the universe 0..{ctx.size - 1}")


def check_disjoint(a: np.ndarray, b: np.ndarray, la: str, lb: str) -> None:
    if not (a.size and b.size):
        return
    inter = np.intersect1d(a, b)
    if inter.size:
        raise ConfigError(f"{la} and {lb} must be disjoint, share {inter.tolist()}")


def require_aux(S: np.ndarray, ctx, label: str) -> None:
    """Restricted families define their measures only against shadow-universe sets."""
    if S.size and S.min() < ctx.n_ground:
        raise ConfigError(f"{label} must live in the auxiliary universe for this family")


# -- scaling -----------------------------------------------------------------


def column_scale(cols: np.ndarray, ctx, t: float) -> np.ndarray:
    """Per-column factor seen from a ground-set row: t on auxiliary columns, 1 inside V.

    Cross-similarity weighting applies only to V <-> V' pairs.
    """
    return np.where(cols >= ctx.n_ground, float(t), 1.0)


def pair_membership_mask(rows: np.ndarray, cols: np.ndarray, members: set) -> np.ndarray:
    """Boolean mask over rows x cols: True where exactly one endpoint is a member.

    Pairs with both endpoints in the member set stay unscaled, as does the
    diagonal, so a symmetric kernel keeps its diagonal under scaling.
    """
    rin = np.array([int(r) in members for r in rows], dtype=bool)
    cin = np.array([int(c) in members for c in cols], dtype=bool)
    return rin[:, None] ^ cin[None, :]


def _aux_members(ctx, target) -> set:
    """Only auxiliary-universe members induce cross-pair scaling."""
    return set(int(c) for c in target if int(c) >= ctx.n_ground)


def pair_scaled_block(K: np.ndarray, rows: np.ndarray, cols: np.ndarray, ctx, eta_cols, eta: float, nu_cols, nu: float) -> np.ndarray:
    """K[rows, cols] with each pair weighted by eta^[one endpoint in eta set]
    * nu^[one endpoint in nu set]; the two-class pattern keeps the scaled
    kernel positive semidefinite for weights in [0, 1]."""
    block = K[np.ix_(rows, cols)].copy() if rows.size and cols.size else np.zeros((rows.size, cols.size))
    if not block.size:
        return block
    for t, target in ((float(eta), eta_cols), (float(nu), nu_cols)):
        members = _aux_members(ctx, target)
        if t == 1.0 or not members:
            continue
        block = np.where(pair_membership_mask(rows, cols, members), block * t, block)
    return block


# -- concave transforms --------------------------------------------------------

PSI = {
    "sqrt": np.sqrt,
    "log1p": np.log1p,
    "identity": lambda x: x,
}


# -- family protocol -----------------------------------------------------------


class FamilyOps:
    """One measure family: its closed form, incremental state and gradients.

    value(ctx, spec, mode, A, Q, P) is the closed form of the measure in
    any mode of MODES for a nonempty A in the ground set: f(A), I_f(A; Q),
    f(A | P) or I_f(A; Q | P), with the sets the mode does not read empty.
    base(ctx, spec, S) is f(S) for any S in the universe, the function the
    definitional oracle builds every mode from; it defaults to
    value(BASE, S), and a family overrides it where its f over a set that
    holds auxiliary items needs code of its own.  state() starts the
    incremental evaluator of a mode, and partials/near_kink give the
    gradients for PARAM_KEYS and flag a max/min switch close by.  A family
    computes the per-mode pieces these share (caps, masks, factors,
    blocks) in one helper that all of them read.

    PARAM_MAX bounds a parameter from above where the measure stops being
    well defined; every parameter is bounded below by zero.  The defaults
    below fit a family whose value carries no kernel weighting, has no
    continuous parameters and no max/min switches.
    """

    MODES: frozenset = frozenset(MeasureMode)
    PARAM_KEYS: tuple[str, ...] = ()
    PARAM_MAX: dict[str, float] = {}

    def value(self, ctx, spec, mode, A, Q, P) -> float:
        raise NotImplementedError

    def base(self, ctx, spec, S) -> float:
        return self.value(ctx, spec, MeasureMode.BASE, S, NO_ITEMS, NO_ITEMS)

    def oracle_view(self, ctx, spec, mode, Q, P):
        """Context on which the bare definitions reproduce the closed forms."""
        return ctx

    def partials(self, ctx, spec, mode, A, Q, P) -> dict:
        return {}

    def near_kink(self, ctx, spec, mode, A, Q, P, tol) -> bool:
        return False


# -- marginal state protocol ---------------------------------------------------


class MarginalState:
    """Incremental evaluator of one measure while the summary grows.

    ``gains`` holds every item's marginal gain against the current
    selection.  A family fills it in ``__init__`` and refreshes all of it
    in numpy inside ``_push``, so ``gain(j)`` is an array read and a pick
    costs one vectorized update instead of a recomputation per candidate
    (the per-candidate bookkeeping of "Fast Greedy MAP Inference for
    Determinantal Point Processes", Chen, Zhang & Zhou, NeurIPS 2018).
    ``gain(j)`` takes an int and returns a float, or takes an ascending
    index array and returns those candidates' gains in that order, each
    bit-equal to the int read of its candidate.  add(j) commits the
    candidate and returns its gain.
    """

    gains: np.ndarray

    def __init__(self):
        self.value = 0.0
        self.selected: list[int] = []

    def gain(self, j):
        return self.gains[j] if isinstance(j, np.ndarray) else float(self.gains[j])

    def _push(self, j: int) -> None:
        raise NotImplementedError

    def add(self, j: int) -> float:
        g = self.gain(j)
        self._push(j)
        self.value += g
        self.selected.append(int(j))
        return g


class SparseRows:
    """Nonzero entries (row, col, val) of an (N, L) matrix in row-major order.

    row_sums adds one value per entry into its row, sequentially in column
    order, so a row whose values are all zero sums to exactly 0.0 and equal
    rows give equal sums.  Concept-based states refresh their gains through
    it, touching only each item's nonzero concepts.
    """

    def __init__(self, mat: np.ndarray):
        self.n_rows = mat.shape[0]
        self.rows, self.cols = np.nonzero(mat)
        self.vals = mat[self.rows, self.cols]

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=values, minlength=self.n_rows)
