"""Log-determinant measure on the jittered kernel D = K + jitter * I.

f(S) = log det D_S.  The query form discounts by the query-conditioned
kernel, the conditional form conditions on P first:

    I(A; Q)     = log det D_A - log det(D_A - C_q D_Q^{-1} C_q^T)
    f(A | P)    = log det(D_A - C_p D_P^{-1} C_p^T)
    I(A; Q | P) = log det G_A - log det(G_A - G_AQ G_Q^{-1} G_AQ^T)

where the G blocks are the P-conditioned kernel.  Every block, D_Q and D_P
included, is read from D under the one eta/nu pair rule of
_common.pair_weighted: eta weights each pair with exactly one endpoint an
auxiliary member of Q, then nu each such pair for P.  So Q and P may hold
ground items, and the weighted D stays positive semidefinite for weights in
[0, 1].

Each conditioned matrix is D_V less a low-rank term, so every mode reduces
to log-dets of principal submatrices of fixed matrices D_V - W W^T, with W
an n x r factor (r <= |P| + |Q|) built from Cholesky factors of the small
conditioning blocks (_blocks):

    I(A; Q)     W = none (r = 0)           and  W = C_q L_Q^{-T}
    f(A | P)    W = C_p L_P^{-T}
    I(A; Q | P) W = W_1 = B_1 L_P^{-T}     and  W = [W_1, G_VQ L_GQ^{-T}]

with X_2 = L_P^{-1} B_2, G_Q = D_Q - X_2^T X_2 = L_GQ L_GQ^T and
G_VQ = B_3 - W_1 X_2.  No n x n matrix is formed, nor D itself: blocks are
read from the kernel with the jitter added where a row and a column are the
same item (_read).  The marginal state keeps the Cholesky row of every
column against the current selection and reads a row of D_V - W W^T only
when it pushes it, so a gain is a read of a Schur complement and each pick
updates all candidates in O(n (k + r)) ("Fast Greedy MAP Inference for
Determinantal Point Processes", Chen, Zhang & Zhou, NeurIPS 2018); the
closed forms read the |A| x |A| block alone.  Every product with a factor
adds elementwise products one factor column at a time (_dots), not through
BLAS, so the closed form's block is the state's rows bit for bit and copies
of an item keep equal rows.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from ._common import NO_ITEMS, FamilyOps, MarginalState, pair_masks, pair_weighted
from .spec import MeasureMode

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


def _dots(X: np.ndarray, Y: np.ndarray):
    """sum_c X[..., c] * Y[..., c], X and Y broadcast, added one c at a time
    from 0.0: no BLAS or numpy reduction, so equal rows give equal sums and a
    subset of rows sums as in the whole, bit for bit."""
    out = 0.0
    for c in range(X.shape[-1]):
        out = out + X[..., c] * Y[..., c]
    return out


def _lower_solve(C: np.ndarray, L: np.ndarray) -> np.ndarray:
    """C L^{-T} for a lower-triangular L, by forward substitution one column
    at a time; each row is solved alone through _dots."""
    W = np.empty(C.shape)
    for k in range(C.shape[1]):
        W[:, k] = (C[:, k] - _dots(W[:, :k], L[k, :k])) / L[k, k]
    return W


class GrowingCholesky:
    """Cholesky rows of every column of M = K_V + jitter * I - W W^T against a growing selection S.

    K_V is the kernel's V x V block, read in place, and W an n x r factor,
    so M is never formed.  With k items selected, C[:k] is the Cholesky
    factor L of M_SS (rows in pick order) extended to all n columns:
    C[:k, j] solves L c = M_Sj, so d2[j] = M_jj - |C[:k, j]|^2 is the Schur
    complement of j given S.  d2 starts as diag(K_V) + jitter - _dots(W, W).
    Selecting i reads row i of M as K_V[i] - _dots(W, W[i]), with the
    jitter added at i before the subtraction, appends
    e = (M_i - C[:k, i] @ C[:k]) / sqrt(d2[i]) as row k and lowers d2 by e^2,
    O(n (k + r)) per pick.
    """

    def __init__(self, kv: np.ndarray, W: np.ndarray, jitter: float):
        self.kv = kv
        self.W = W
        self.jitter = jitter
        self.d2 = (np.diagonal(kv) + jitter) - _dots(W, W)
        self.C = np.zeros((0, kv.shape[0]))
        self.k = 0

    def push(self, i: int) -> None:
        d2 = self.d2[i]
        if not d2 > 0:
            raise NumericError(_ADVICE)
        k = self.k
        if k == self.C.shape[0]:  # capacity doubles, so a row is copied O(1) times on average
            grown = np.empty((max(2 * k, 8), self.C.shape[1]))
            grown[:k] = self.C
            self.C = grown
        rows = self.C[:k]
        row = self.kv[i].copy()
        row[i] += self.jitter  # before the subtraction, as in d2
        row -= _dots(self.W, self.W[i])
        # an elementwise product summed down the rows in a fixed order, not a
        # BLAS product, so equal columns (copies of an item) stay bit-equal
        e = (row - (rows[:, i, None] * rows).sum(axis=0)) / np.sqrt(d2)
        self.C[k] = e
        self.k = k + 1
        self.d2 -= e * e


def _read(ctx, spec, rows, cols=None, Q=NO_ITEMS, P=NO_ITEMS) -> np.ndarray:
    """D[rows, cols] under the pair weights of Q and P; cols=None reads the
    principal block.  The jitter goes where a row and a column are the same
    item, a pair no weight reaches, so adding it first gives the bits of
    adding it last: k_ii + jitter there, the weighted k_ij elsewhere."""
    cols = rows if cols is None else cols
    block = ctx.kernel[np.ix_(rows, cols)]
    block[rows[:, None] == cols] += ctx.jitter
    return pair_weighted(ctx, spec, block, rows, cols, Q, P)


class LogDetOps(FamilyOps):
    PARAM_KEYS = ("eta", "nu")
    PARAM_MAX = {"eta": 1.0, "nu": 1.0}  # past 1 the scaled kernel can lose definiteness

    def _blocks(self, ctx, spec, mode, Q, P, rows):
        """Factors (W, U) over the ground items `rows`, with
        value(A) = logdet (D_V - W W^T)_A - logdet (D_V - U U^T)_A.

        U is None where the mode has no negative term.  Every row of a
        factor is computed alone, so the rows of A are those of V bit for
        bit and a closed form needs only A's rows.
        """
        empty = np.zeros((rows.size, 0))
        if mode == MeasureMode.BASE:
            return empty, None

        def D(r, c=None):
            return _read(ctx, spec, r, c, Q, P)

        if mode == MeasureMode.SMI:
            return empty, _lower_solve(D(rows, Q), _cholesky(D(Q)))
        LP = _cholesky(D(P))
        if mode == MeasureMode.CG:
            return _lower_solve(D(rows, P), LP), None
        W1 = _lower_solve(D(rows, P), LP)
        X2t = _lower_solve(D(Q, P), LP)  # X_2^T = B_2^T L_P^{-T}
        GQ = D(Q) - _dots(X2t[:, None], X2t[None])
        GVQ = D(rows, Q) - _dots(W1[:, None], X2t[None])
        return W1, np.hstack([W1, _lower_solve(GVQ, _cholesky(GQ))])

    def base(self, ctx, spec, S):
        return _logdet_psd(_read(ctx, spec, S))

    def value(self, ctx, spec, mode, A, Q, P):
        W, U = self._blocks(ctx, spec, mode, Q, P, A)
        DA = _read(ctx, spec, A)  # A is in V, so no weight reaches D_A
        pos = _logdet_psd(DA - _dots(W[:, None], W[None]))
        return pos if U is None else pos - _logdet_psd(DA - _dots(U[:, None], U[None]))

    def state(self, ctx, spec, mode, Q, P):
        n = ctx.n_ground
        W, U = self._blocks(ctx, spec, mode, Q, P, np.arange(n))
        return _LogDetState(ctx.kernel[:n, :n], W, U, ctx.jitter)

    def oracle_view(self, ctx, spec, Q, P):
        idx = np.arange(ctx.size)
        return ctx.copy_with(kernel=pair_weighted(ctx, spec, ctx.kernel, idx, idx, Q, P))

    def partials(self, ctx, spec, mode, A, Q, P):
        if mode == MeasureMode.BASE:
            return {}

        def block(rows, cols):
            """(weighted, d/d eta, d/d nu) of a block of D: each derivative is
            the block on its weight's pairs, under the other weight."""
            raw = _read(ctx, spec, rows, cols)
            xq, xp = pair_masks(ctx, rows, cols, Q, P)
            fq, fp = np.where(xq, spec.eta, 1.0), np.where(xp, spec.nu, 1.0)
            return raw * fq * fp, raw * xq * fp, raw * xp * fq  # the first is pair_weighted's, bit for bit

        DA = _read(ctx, spec, A)  # A is in V, so no weight reaches D_A
        if mode != MeasureMode.CSMI:
            # logdet(D_A - C D_S^{-1} C^T) for the one set S the mode reads,
            # subtracted in SMI (S = Q, eta) and added in CG (S = P, nu); D_S
            # is weighted too, with a zero derivative where S is auxiliary alone
            S, key, i, sign = (Q, "eta", 1, 1.0) if mode == MeasureMode.SMI else (P, "nu", 2, -1.0)
            C, DS = block(A, S), block(S, S)
            X = _solve_psd(DS[0], C[0].T)
            E = C[i] @ X
            return {key: sign * float(np.trace(_solve_psd(DA - C[0] @ X, E + E.T - X.T @ DS[i] @ X)))}
        # csmi: differentiate logdet M_A - logdet H_A through every weighted block
        B1, dB1_eta, dB1_nu = block(A, P)
        B2, dB2_eta, dB2_nu = block(P, Q)
        B3, dB3_eta, dB3_nu = block(A, Q)
        DP, dDP_eta, dDP_nu = block(P, P)
        DQ, dDQ_eta, dDQ_nu = block(Q, Q)
        WpB1T = _solve_psd(DP, B1.T)
        WpB2 = _solve_psd(DP, B2)
        MA = DA - B1 @ WpB1T
        GQ = DQ - B2.T @ WpB2
        GAQ = B3 - B1 @ WpB2
        GQinv_GAQT = _solve_psd(GQ, GAQ.T)
        HA = MA - GAQ @ GQinv_GAQT
        out: dict[str, float] = {}
        for name, dB1, dB2, dB3, dDP, dDQ in (
            ("eta", dB1_eta, dB2_eta, dB3_eta, dDP_eta, dDQ_eta),
            ("nu", dB1_nu, dB2_nu, dB3_nu, dDP_nu, dDQ_nu),
        ):
            E1 = dB1 @ WpB1T
            dM = WpB1T.T @ dDP @ WpB1T - (E1 + E1.T)
            E2 = dB2.T @ WpB2
            dGQ = dDQ - (E2 + E2.T) + WpB2.T @ dDP @ WpB2
            dGAQ = dB3 - (dB1 @ WpB2 + B1 @ _solve_psd(DP, dB2)) + WpB1T.T @ dDP @ WpB2
            term = dGAQ @ GQinv_GAQT
            dH = dM - (term + term.T - GQinv_GAQT.T @ dGQ @ GQinv_GAQT)
            val = np.trace(_solve_psd(MA, dM)) - np.trace(_solve_psd(HA, dH))
            out[name] = float(val)
        return out


def _log(d2: np.ndarray) -> np.ndarray:
    """np.log of Schur complements that must all be positive."""
    if not (d2 > 0).all():
        raise NumericError(_ADVICE)
    return np.log(d2)


class _LogDetState(MarginalState):
    def __init__(self, kv, W, U, jitter):
        super().__init__()
        self.pos = GrowingCholesky(kv, W, jitter)
        self.neg = None if U is None else GrowingCholesky(kv, U, jitter)

    def gain(self, j):
        if not isinstance(j, np.ndarray):  # through the array read, so both give the same bits
            return float(self.gain(np.array([j]))[0])
        g = _log(self.pos.d2[j])
        return g if self.neg is None else g - _log(self.neg.d2[j])

    def _push(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)
