"""Log-determinant measure on the jittered kernel D = K + jitter * I.

f(S) = log det D_S, and every form is a Schur complement: to condition on
a set S is to take log det D_{A u S} - log det D_S.  So each form is a
signed sum of log-dets of principal blocks of D (_terms), by which of Q
and P is nonempty:

    Q, P empty    f(A)          +A
    Q only        I(A; Q)       +A  +Q  -A u Q
    P only        f(A | P)      +A u P  -P
    Q and P       I(A; Q | P)   +A u P  +Q u P  -A u Q u P  -P

_terms lists the blocks in the last row's order: the pair +Q u P,
-A u Q u P only for a nonempty Q, and -P only for a nonempty P.

Every block, D_Q and D_P included, is read from D under the one eta/nu
pair rule of _common.pair_weighted: eta weights each pair with exactly one
endpoint an auxiliary member of Q, then nu each such pair for P.  So Q and
P may hold ground items, and the weighted D stays positive semidefinite
for weights in [0, 1].  No n x n matrix is formed, nor D itself: blocks are
read from the kernel with the jitter added where a row and a column are the
same item (_read).

The closed form and the parameter gradients read D once per call, over
(A, P, Q) in that order, and take each block of the table from that read
as a principal slice (_slices): every S of the table is P or (P, Q), so
D_{A u S} is a leading block and D_S the block after A.  Pair weighting
and the jitter act entry by entry, so a slice has the bits of a separate
read of its block.  The closed form sums sign * log det D_T over the
blocks; the gradients sum sign * tr(D_T^{-1} dD_T), dD the read on one
weight's pairs under the other weight.

The marginal state keeps, for each block that grows with A, an
incremental Cholesky factor ("Fast Greedy MAP Inference for Determinantal
Point Processes", Chen, Zhang & Zhou, NeurIPS 2018) that first pushes the
block's conditioning set, so a gain is a difference of logs of Schur
complements and each pick updates all candidates in O(n (k + |Q| + |P|)).
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from ._common import NO_ITEMS, FamilyOps, MarginalState, pair_masks, pair_weighted, weighted_view

_ADVICE = "matrix not positive definite; increase the kernel jitter or reduce eta/nu toward [0, 1]"


def _cholesky(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(_ADVICE) from exc


def _logdet_psd(M: np.ndarray) -> float:
    return float(2.0 * np.sum(np.log(np.diag(_cholesky(M)))))


def _solve_psd(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(_ADVICE) from exc


def _terms(Q, P):
    """(sign, S, with_A) per principal block of the module docstring's
    table, in its order: the block is D_{A u S} with with_A, else D_S."""
    terms = [(1, P, True)]
    if Q.size:
        QP = np.concatenate((P, Q))  # P first, as the states push it
        terms += [(1, QP, False), (-1, QP, True)]
    if P.size:
        terms.append((-1, P, False))
    return terms


def _slices(A, Q, P):
    """(sign, s) per block of _terms, in its order: the block is D[s, s] of
    D read over (A, P, Q), since its S is P or (P, Q)."""
    return [(sign, slice(0 if with_A else A.size, A.size + S.size)) for sign, S, with_A in _terms(Q, P)]


def _read(ctx, spec, rows, cols=None, Q=NO_ITEMS, P=NO_ITEMS) -> np.ndarray:
    """D[rows, cols] under the pair weights of Q and P; cols=None reads the
    principal block.  The jitter goes where a row and a column are the same
    item, a pair no weight reaches, so adding it first gives the bits of
    adding it last: k_ii + jitter there, the weighted k_ij elsewhere."""
    cols = rows if cols is None else cols
    block = ctx.block(rows, cols)
    block[rows[:, None] == cols] += ctx.jitter
    return pair_weighted(ctx, spec, block, rows, cols, Q, P)


def _dots(rows: np.ndarray, i: int) -> np.ndarray:
    """rows[:, i] @ rows with the bits of (rows[:, i, None] * rows).sum(axis=0),
    which adds the rows in order, but without its k x n temporary.  einsum's
    loop order is a numpy detail: it adds the rows in order at every output
    width but 1, where it can round apart (a one-item ground set, k >= 3),
    so width 1 keeps the elementwise sum."""
    if rows.shape[1] == 1:
        return (rows[:, i, None] * rows).sum(axis=0)
    return np.einsum("r,rj->j", rows[:, i], rows)


def _columns(n: int, S: np.ndarray) -> np.ndarray:
    """V u S ascending, as np.union1d(arange(n), S) gives it: V, then the
    auxiliary members of S, sorted and unique."""
    return np.concatenate((np.arange(n), np.unique(S[S >= n])))


class GrowingCholesky:
    """Cholesky rows of every ground column of D, under the weights of Q and
    P, against S followed by a growing selection.

    With k items pushed, C[:k] is the Cholesky factor L of D over them
    (rows in push order) extended to all n ground columns: C[:k, j] solves
    L c = D_j, so d2[j] = D_jj - |C[:k, j]|^2 is the Schur complement of j
    given them.  The conditioning set S is pushed first, over the columns
    V u S (_columns), its rows read through _read; then only the V columns
    are kept.  Selecting a ground item i reads row i of the kernel's V x V
    block from the context, a row no weight reaches, adds the jitter at i,
    appends e = (D_i - C[:k, i] @ C[:k]) / sqrt(d2[i]) as row k and lowers
    d2 by e^2, O(n k) per push.  The product is one contraction that adds
    the rows in order, not a BLAS product, so equal columns (copies of an
    item) stay bit-equal; at width 1 it keeps the elementwise sum (_dots).
    """

    def __init__(self, ctx, spec, S=NO_ITEMS, Q=NO_ITEMS, P=NO_ITEMS):
        n = ctx.n_ground
        self.ctx, self.ground = ctx, slice(n)
        cols = _columns(n, S)
        self.d2 = ctx.diagonal()[cols] + ctx.jitter
        self.C = np.zeros((0, cols.size))
        self.k = 0
        for i, row in zip(np.searchsorted(cols, S), _read(ctx, spec, S, cols, Q, P)):
            self._append(i, row)
        self.C, self.d2 = self.C[:self.k, :n].copy(), self.d2[:n]

    def push(self, i: int) -> None:
        row = self.ctx.block(i, self.ground).copy()
        row[i] += self.ctx.jitter
        self._append(i, row)

    def _append(self, i, row) -> None:
        d2 = self.d2[i]
        if not d2 > 0:
            raise NumericError(_ADVICE)
        k = self.k
        if k == self.C.shape[0]:  # capacity doubles, so a row is copied O(1) times on average
            grown = np.empty((max(2 * k, 8), self.C.shape[1]))
            grown[:k] = self.C
            self.C = grown
        e = (row - _dots(self.C[:k], i)) / np.sqrt(d2)
        self.C[k] = e
        self.k = k + 1
        self.d2 -= e * e


class LogDetOps(FamilyOps):
    PARAM_KEYS = ("eta", "nu")
    PARAM_MAX = {"eta": 1.0, "nu": 1.0}  # past 1 the scaled kernel can lose definiteness

    def value(self, ctx, spec, A, Q, P):
        D = _read(ctx, spec, np.concatenate((A, P, Q)), Q=Q, P=P)
        return sum(sign * _logdet_psd(D[s, s]) for sign, s in _slices(A, Q, P))

    def state(self, ctx, spec, Q, P):
        return _LogDetState(ctx, spec, Q, P)

    def oracle_view(self, ctx, spec, Q, P):
        return weighted_view(ctx, spec, Q, P)

    def partials(self, ctx, spec, A, Q, P):
        """d value / d eta (nu) for a nonempty Q (P): each weight's
        derivative of a block is the block on its pairs, under the other weight."""
        out = {key: 0.0 for key, S in (("eta", Q), ("nu", P)) if S.size}
        if not out:
            return out
        T = np.concatenate((A, P, Q))
        raw = _read(ctx, spec, T)
        xq, xp = pair_masks(ctx, T, T, Q, P)
        fq, fp = np.where(xq, spec.eta, 1.0), np.where(xp, spec.nu, 1.0)
        D = raw * fq * fp  # pair_weighted's read, bit for bit
        dD = {key: raw * x * f for key, x, f in (("eta", xq, fp), ("nu", xp, fq)) if key in out}
        for sign, s in _slices(A, Q, P):
            for key in out:
                out[key] += sign * float(np.trace(_solve_psd(D[s, s], dD[key][s, s])))
        return out


def _log(d2: np.ndarray) -> np.ndarray:
    """np.log of Schur complements that must all be positive."""
    if not (d2 > 0).all():
        raise NumericError(_ADVICE)
    return np.log(d2)


class _LogDetState(MarginalState):
    """gain(j) = log pos.d2[j] - log neg.d2[j]: one Cholesky per block of
    _terms that grows with A, conditioned on its S; the other blocks are
    constant in A."""

    def __init__(self, ctx, spec, Q, P):
        grows = {sign: GrowingCholesky(ctx, spec, S, Q, P) for sign, S, with_A in _terms(Q, P) if with_A}
        self.pos, self.neg = grows[1], grows.get(-1)

    def gain(self, indices):
        g = _log(self.pos.d2[indices])
        return g if self.neg is None else g - _log(self.neg.d2[indices])

    def add(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)
