"""Log-determinant measure on the jittered kernel D = K + jitter * I.

f(S) = log det D_S.  The query form discounts by the query-conditioned
kernel, the conditional form conditions on P first:

    smi(A, Q)  = log det D_A - log det(D_A - C_q D_Q^{-1} C_q^T)
    cg(A, P)   = log det(D_A - C_p D_P^{-1} C_p^T)
    csmi       = log det G_A - log det(G_A - G_AQ G_Q^{-1} G_AQ^T)

where C_q/C_p are cross blocks with eta (resp. nu) applied to every pair
having exactly one endpoint in Q (resp. P), and the G blocks are the
P-conditioned kernel.  That pair rule keeps the scaled kernel positive
semidefinite for weights in [0, 1].  Every mode reduces to log-dets of
principal submatrices of fixed matrices over V, which is what makes the
rank-one incremental marginals exact: for each fixed matrix the state keeps
the Cholesky row of every column against the current selection, so a
candidate's gain is a read of its Schur complement and each pick updates
all candidates in O(n k) ("Fast Greedy MAP Inference for Determinantal
Point Processes", Chen, Zhang & Zhou, NeurIPS 2018).

D is never formed: every block is read from the kernel with the jitter
added where a row and a column are the same item (_dblock), the base
matrix over V is the kernel's V x V block read in place, and each
conditioned n x n block is formed in the storage of its own product.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError
from ._common import FamilyOps, MarginalState, pair_membership_mask, pair_scaled_block, scaled_kernel_matrix
from .spec import MeasureMode

_ADVICE = "matrix not positive definite; increase the kernel jitter or reduce eta/nu toward [0, 1]"


def _logdet_psd(M: np.ndarray) -> float:
    if M.shape[0] == 0:
        return 0.0
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(_ADVICE) from exc
    return float(2.0 * np.sum(np.log(np.diag(L))))


def _solve_psd(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    if M.shape[0] == 0:
        return np.zeros((0, B.shape[1] if B.ndim > 1 else 0))
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(_ADVICE) from exc


class GrowingCholesky:
    """Cholesky rows of every column of a fixed matrix M + jitter * I against a growing selection S.

    With k items selected, C[:k] is the Cholesky factor L of (M + jitter I)_SS
    (rows in pick order) extended to all n columns: C[:k, j] solves
    L c = (M + jitter I)_Sj, so d2[j] = M_jj + jitter - |C[:k, j]|^2 is the
    Schur complement of j given S.  Selecting i appends
    e = ((M + jitter I)_i - C[:k, i] @ C[:k]) / sqrt(d2[i]) as row k and lowers
    d2 by e^2, O(n k) per pick.  The jitter is added to the one diagonal entry
    of each row read, so M may be a block of the kernel read in place.
    """

    def __init__(self, mat: np.ndarray, jitter: float = 0.0):
        self.mat = mat
        self.jitter = jitter
        self.d2 = np.diagonal(mat) + jitter
        self.C = np.zeros((0, mat.shape[0]))
        self.k = 0

    def quad(self, j):
        """Schur complement d^2 of entry j against the current selection;
        for an index array, those of each entry."""
        return self.d2[j]

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
        row = self.mat[i].copy()
        row[i] += self.jitter  # before the subtraction, as in a row of M + jitter I
        # an elementwise product summed down the rows in a fixed order, not a
        # BLAS product, so equal columns (copies of an item) stay bit-equal
        e = (row - (rows[:, i, None] * rows).sum(axis=0)) / np.sqrt(d2)
        self.C[k] = e
        self.k = k + 1
        self.d2 -= e * e


def _jitter_at(ctx, block: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Add the jitter in place where a row and a column are the same item.

    This turns a read of K into the same read of D = K + jitter * I:
    k_ii + jitter where the item is shared, k_ij elsewhere.
    """
    block[rows[:, None] == cols] += ctx.jitter
    return block


def _dblock(ctx, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """D[rows, cols] read from the kernel; cols=None reads the principal block."""
    cols = rows if cols is None else cols
    return _jitter_at(ctx, ctx.kernel[np.ix_(rows, cols)], rows, cols)


def _scaled(ctx, rows, cols, eta_cols, eta, nu_cols, nu) -> np.ndarray:
    """D[rows, cols] under the pair scaling; a shared item's entry is never
    scaled, so adding its jitter after the scaling gives the same bits."""
    block = pair_scaled_block(ctx.kernel, rows, cols, ctx, eta_cols, eta, nu_cols, nu)
    return _jitter_at(ctx, block, rows, cols)


def _minus_dv(ctx, prod: np.ndarray) -> np.ndarray:
    """D_V - prod for an n x n product, formed in prod's own storage.

    Entry for entry this is the same subtraction as D_V - prod, with
    (k_ii + jitter) - p_ii on the diagonal.
    """
    n = prod.shape[0]
    diag = (np.diagonal(ctx.kernel)[:n] + ctx.jitter) - np.diagonal(prod)
    np.subtract(ctx.kernel[:n, :n], prod, out=prod)
    np.fill_diagonal(prod, diag)
    return prod


class LogDetOps(FamilyOps):
    PARAM_KEYS = ("eta", "nu")
    PARAM_MAX = {"eta": 1.0, "nu": 1.0}  # past 1 the scaled kernel can lose definiteness

    def _blocks(self, ctx, spec, mode, Q, P):
        """(M, N, jitter) over V with value(A) = logdet (M + jitter I)_A - logdet N_A.

        BASE and SMI read M in place as the kernel's V x V block, so its
        jitter is still owed; a conditioned M is formed with it and owes
        none.  N may be None.
        """
        n = ctx.n_ground
        V = np.arange(n)
        KV = ctx.kernel[:n, :n]
        if mode == MeasureMode.BASE:
            return KV, None, ctx.jitter
        if mode == MeasureMode.SMI:
            Cq = _scaled(ctx, V, Q, Q, spec.eta, (), 1.0)
            N = _minus_dv(ctx, Cq @ _solve_psd(_dblock(ctx, Q), Cq.T))
            return KV, N, ctx.jitter
        if mode == MeasureMode.CG:
            Cp = _scaled(ctx, V, P, (), 1.0, P, spec.nu)
            M = _minus_dv(ctx, Cp @ _solve_psd(_dblock(ctx, P), Cp.T))
            return M, None, 0.0
        B1 = _scaled(ctx, V, P, Q, spec.eta, P, spec.nu)
        B2 = _scaled(ctx, P, Q, Q, spec.eta, P, spec.nu)
        B3 = _scaled(ctx, V, Q, Q, spec.eta, P, spec.nu)
        DP = _dblock(ctx, P)
        DQ = _dblock(ctx, Q)
        M = _minus_dv(ctx, B1 @ _solve_psd(DP, B1.T))
        GQ = DQ - B2.T @ _solve_psd(DP, B2)
        GVQ = B3 - B1 @ _solve_psd(DP, B2)
        N = GVQ @ _solve_psd(GQ, GVQ.T)
        np.subtract(M, N, out=N)
        return M, N, 0.0

    def base(self, ctx, spec, S):
        return _logdet_psd(_dblock(ctx, S))

    def smi(self, ctx, spec, A, Q):
        _, N, _ = self._blocks(ctx, spec, MeasureMode.SMI, Q, np.zeros(0, dtype=int))
        return _logdet_psd(_dblock(ctx, A)) - _logdet_psd(N[np.ix_(A, A)])

    def cg(self, ctx, spec, A, P):
        M, _, _ = self._blocks(ctx, spec, MeasureMode.CG, np.zeros(0, dtype=int), P)
        return _logdet_psd(M[np.ix_(A, A)])

    def csmi(self, ctx, spec, A, Q, P):
        M, N, _ = self._blocks(ctx, spec, MeasureMode.CSMI, Q, P)
        return _logdet_psd(M[np.ix_(A, A)]) - _logdet_psd(N[np.ix_(A, A)])

    def state(self, ctx, spec, mode, Q, P):
        return _LogDetState(*self._blocks(ctx, spec, mode, Q, P))

    def oracle_view(self, ctx, spec, mode, Q, P):
        # the pair scaling never touches the diagonal, so it commutes with the jitter
        eta_cols = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else ()
        nu_cols = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else ()
        return ctx.copy_with(kernel=scaled_kernel_matrix(ctx.kernel, ctx, eta_cols, spec.eta, nu_cols, spec.nu))

    def partials(self, ctx, spec, mode, A, Q, P):
        if mode == MeasureMode.BASE:
            return {}
        n = ctx.n_ground
        qset = set(int(c) for c in Q if c >= n) if Q is not None else set()
        pset = set(int(c) for c in P if c >= n) if P is not None else set()

        def block(rows, cols):
            """(scaled, d/d eta, d/d nu) of the raw block under the pair rule."""
            raw = _dblock(ctx, rows, cols)
            xq = pair_membership_mask(rows, cols, qset) if qset else np.zeros(raw.shape, dtype=bool)
            xp = pair_membership_mask(rows, cols, pset) if pset else np.zeros(raw.shape, dtype=bool)
            fq = np.where(xq, spec.eta, 1.0)
            fp = np.where(xp, spec.nu, 1.0)
            return raw * fq * fp, raw * xq * fp, raw * xp * fq

        out: dict[str, float] = {}
        if mode == MeasureMode.SMI:
            Cq, dCq, _ = block(A, Q)
            DQ = _dblock(ctx, Q)
            NA = _dblock(ctx, A) - Cq @ _solve_psd(DQ, Cq.T)
            E = dCq @ _solve_psd(DQ, Cq.T)
            out["eta"] = float(np.trace(_solve_psd(NA, E + E.T)))
            return out
        if mode == MeasureMode.CG:
            Cp, _, dCp = block(A, P)
            DP = _dblock(ctx, P)
            MA = _dblock(ctx, A) - Cp @ _solve_psd(DP, Cp.T)
            E = dCp @ _solve_psd(DP, Cp.T)
            out["nu"] = float(-np.trace(_solve_psd(MA, E + E.T)))
            return out
        # csmi: differentiate logdet M_A - logdet H_A through every scaled block
        B1, dB1_eta, dB1_nu = block(A, P)
        B2, dB2_eta, dB2_nu = block(P, Q)
        B3, dB3_eta, dB3_nu = block(A, Q)
        DP = _dblock(ctx, P)
        DQ = _dblock(ctx, Q)
        WpB1T = _solve_psd(DP, B1.T)
        WpB2 = _solve_psd(DP, B2)
        MA = _dblock(ctx, A) - B1 @ WpB1T
        GQ = DQ - B2.T @ WpB2
        GAQ = B3 - B1 @ WpB2
        HA = MA - GAQ @ _solve_psd(GQ, GAQ.T)
        for name, dB1, dB2, dB3 in (
            ("eta", dB1_eta, dB2_eta, dB3_eta),
            ("nu", dB1_nu, dB2_nu, dB3_nu),
        ):
            E1 = dB1 @ WpB1T
            dM = -(E1 + E1.T)
            E2 = dB2.T @ WpB2
            dGQ = -(E2 + E2.T)
            dGAQ = dB3 - (dB1 @ WpB2 + B1 @ _solve_psd(DP, dB2))
            GQinv_GAQT = _solve_psd(GQ, GAQ.T)
            term = dGAQ @ GQinv_GAQT
            dH = dM - (term + term.T - GQinv_GAQT.T @ dGQ @ GQinv_GAQT)
            val = np.trace(_solve_psd(MA, dM)) - np.trace(_solve_psd(HA, dH))
            out[name] = float(val)
        return out


def _log(d2):
    """math.log of a positive Schur complement, or of each entry of an array.

    The array form maps math.log too, since numpy's vectorized log can
    round an entry differently and a gain read must not depend on its form.
    """
    if isinstance(d2, np.ndarray):
        if not (d2 > 0).all():
            raise NumericError(_ADVICE)
        return np.fromiter(map(math.log, d2.tolist()), float, d2.size)
    if not d2 > 0:
        raise NumericError(_ADVICE)
    return math.log(d2)


class _LogDetState(MarginalState):
    def __init__(self, M, N, jitter):
        super().__init__()
        self.pos = GrowingCholesky(M, jitter)
        self.neg = GrowingCholesky(N) if N is not None else None

    def gain(self, j):
        g = _log(self.pos.quad(j))
        return g if self.neg is None else g - _log(self.neg.quad(j))

    def _push(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)
