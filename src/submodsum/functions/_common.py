"""Shared plumbing for measure families: set handling, the eta/nu pair
weighting every weighted kernel read goes through, marginal states."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .spec import MeasureMode

# -- set handling ------------------------------------------------------------


NO_ITEMS = np.zeros(0, dtype=int)


def as_indices(S) -> np.ndarray:
    """Sorted unique int array from any flat iterable of integers, numpy
    integer arrays included; a float, bool, string, nested set or scalar
    raises ConfigError.  It checks no range: api._sets holds the rule for
    which index sets are legal."""
    try:
        items = S.tolist() if isinstance(S, np.ndarray) else list(S)
        # the type set settles plain Python ints at C speed
        if {int}.issuperset(map(type, items)) or all(
                isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in items):
            return np.asarray(sorted(set(items)), dtype=int)
    except (TypeError, OverflowError):  # a scalar, a nested set, an index past int64
        pass
    raise ConfigError(f"an index set must be a flat collection of integers, got {S!r}")


def complement(lo: int, hi: int, S) -> np.ndarray:
    """arange(lo, hi) without the members of S, ascending, from a boolean
    mask.  Entries of S outside [lo, hi) are ignored, as np.setdiff1d
    ignores them, so an index set can be checked after it is used here."""
    S = np.asarray(S, dtype=int)
    keep = np.ones(hi - lo, dtype=bool)
    keep[S[(S >= lo) & (S < hi)] - lo] = False
    return np.flatnonzero(keep) + lo


def cross_block(ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows x cols of the cross-only kernel: ctx.cross between V and V',
    the identity within a side.  Rows on one side and cols on the other, as
    the states and closed forms read it, index ctx.cross once.  C-ordered,
    so its row sums round the same whichever side the rows come from."""
    n = ctx.n_ground
    if rows.min(initial=n) >= n > cols.max(initial=-1):  # V' x V, as ctx.cross holds it
        return ctx.cross[(rows - n)[:, None], cols]
    if cols.min(initial=n) >= n > rows.max(initial=-1):  # V x V'
        return ctx.cross[(cols - n)[:, None], rows].T.copy()
    ra, ca = rows >= n, cols >= n
    out = (rows[:, None] == cols).astype(float)
    out[np.ix_(ra, ~ca)] = ctx.cross[np.ix_(rows[ra] - n, cols[~ca])]
    out[np.ix_(~ra, ca)] = ctx.cross[np.ix_(cols[ca] - n, rows[~ra])].T
    return out


# -- the eta/nu pair weighting -------------------------------------------------


def _reach(ctx, rows, cols, S):
    """rows x cols mask of the pairs with exactly one endpoint an auxiliary
    member of S, or None where no pair is such."""
    S = np.asarray(S, dtype=int)
    aux = S[S >= ctx.n_ground]
    if not aux.size:
        return None
    member = np.zeros(ctx.size, dtype=bool)
    member[aux] = True
    mask = member[rows][:, None] ^ member[cols]
    return mask if mask.any() else None


def pair_weighted(ctx, spec, block, rows, cols, Q=NO_ITEMS, P=NO_ITEMS):
    """block, read at the index arrays rows x cols, under the eta/nu rule of
    graph cut, facility location 1 and log-det.

    spec.eta weights each pair with exactly one endpoint an auxiliary member
    of Q, then spec.nu each such pair for P: only V <-> V' similarities are
    weighted, and Q and P may hold ground items.  This two-class pattern
    keeps a positive semidefinite kernel so for weights in [0, 1].  Where no
    weight applies (a weight of 1, or no pair reached) block itself comes
    back, so never write to the result.
    """
    for S, t in ((Q, spec.eta), (P, spec.nu)):
        if t != 1.0 and (mask := _reach(ctx, rows, cols, S)) is not None:
            block = np.where(mask, block * t, block)
    return block


def pair_masks(ctx, rows, cols, Q=NO_ITEMS, P=NO_ITEMS):
    """(in_q, in_p): the rows x cols pairs that eta and nu reach in
    pair_weighted, which the parameter gradients read."""
    return tuple(np.zeros((len(rows), len(cols)), dtype=bool) if m is None else m
                 for m in (_reach(ctx, rows, cols, S) for S in (Q, P)))


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
    holds auxiliary items needs code of its own.  api.evaluate reads BASE
    through base, so such a family's value need not handle BASE.  state()
    starts the incremental evaluator of a mode, and partials/near_kink give
    the gradients for PARAM_KEYS and flag a max/min switch close by.  A
    family computes the per-mode pieces these share (caps, masks, factors,
    blocks) in one helper that all of them read.

    PARAM_MAX bounds a parameter from above where the measure stops being
    well defined; every parameter is bounded below by zero.  AUX_ONLY marks
    a family whose measures are defined only for Q and P in the auxiliary
    universe; api checks it before any method runs.  The defaults below fit
    a family whose value carries no kernel weighting, has no continuous
    parameters and no max/min switches.
    """

    MODES: frozenset = frozenset(MeasureMode)
    AUX_ONLY = False
    PARAM_KEYS: tuple[str, ...] = ()
    PARAM_MAX: dict[str, float] = {}

    def value(self, ctx, spec, mode, A, Q, P) -> float:
        raise NotImplementedError

    def base(self, ctx, spec, S) -> float:
        return self.value(ctx, spec, MeasureMode.BASE, S, NO_ITEMS, NO_ITEMS)

    def oracle_view(self, ctx, spec, Q, P):
        """Context on which the bare definitions reproduce the closed forms
        of a mode that reads Q and P (a set it does not read comes empty)."""
        return ctx

    def partials(self, ctx, spec, mode, A, Q, P) -> dict:
        return {}

    def near_kink(self, ctx, spec, mode, A, Q, P, tol) -> bool:
        return False


# -- marginal state protocol ---------------------------------------------------


class MarginalState:
    """Incremental evaluator of one measure while the summary grows.

    The contract is two methods.  ``gain(indices)`` takes an ascending
    index array of ground items and returns those candidates' marginal
    gains against the current selection, in that order.  ``add(j)``
    commits candidate j and returns nothing; the summary's value is the
    greedy's, the sum of the gains it read at its picks.

    A family that keeps ``gains``, every ground item's gain (auxiliary
    items are never candidates), fills it in ``__init__`` and refreshes all
    of it in numpy inside ``add``, so a read is an array lookup and a pick
    costs one vectorized update instead of a recomputation per candidate
    (the per-candidate bookkeeping of "Fast Greedy MAP Inference for
    Determinantal Point Processes", Chen, Zhang & Zhou, NeurIPS 2018).
    It inherits ``gain``; a family without such an array overrides it.
    """

    def gain(self, indices: np.ndarray) -> np.ndarray:
        return self.gains[indices]

    def add(self, j: int) -> None:
        raise NotImplementedError


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
