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
    """Cholesky rows of every column of a fixed matrix M against a growing selection S.

    With k items selected, C[:k] is the Cholesky factor L of M_SS (rows in
    pick order) extended to all n columns: C[:k, j] solves L c = M_Sj, so
    d2[j] = M_jj - |C[:k, j]|^2 is the Schur complement of j given S.
    Selecting i appends e = (M_i - C[:k, i] @ C[:k]) / sqrt(d2[i]) as row k
    and lowers d2 by e^2, O(n k) per pick.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.d2 = np.diagonal(mat).astype(float)
        self.C = np.zeros((0, mat.shape[0]))
        self.k = 0

    def quad(self, j: int) -> float:
        """Schur complement d^2 of entry j against the current selection."""
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
        e = (self.mat[i] - rows[:, i] @ rows) / np.sqrt(d2)
        self.C[k] = e
        self.k = k + 1
        self.d2 -= e * e


class LogDetOps(FamilyOps):
    PARAM_KEYS = ("eta", "nu")
    PARAM_MAX = {"eta": 1.0, "nu": 1.0}  # past 1 the scaled kernel can lose definiteness

    def _blocks(self, ctx, spec, mode, Q, P):
        """(M, N) over V with value(A) = logdet M_A - logdet N_A (N may be None)."""
        D = ctx.logdet
        n = ctx.n_ground
        V = np.arange(n)
        DV = D[:n, :n]
        if mode == MeasureMode.BASE:
            return DV, None
        if mode == MeasureMode.SMI:
            Cq = pair_scaled_block(D, V, Q, ctx, Q, spec.eta, (), 1.0)
            N = DV - Cq @ _solve_psd(D[np.ix_(Q, Q)], Cq.T)
            return DV, N
        if mode == MeasureMode.CG:
            Cp = pair_scaled_block(D, V, P, ctx, (), 1.0, P, spec.nu)
            M = DV - Cp @ _solve_psd(D[np.ix_(P, P)], Cp.T)
            return M, None
        B1 = pair_scaled_block(D, V, P, ctx, Q, spec.eta, P, spec.nu)
        B2 = pair_scaled_block(D, P, Q, ctx, Q, spec.eta, P, spec.nu)
        B3 = pair_scaled_block(D, V, Q, ctx, Q, spec.eta, P, spec.nu)
        DP = D[np.ix_(P, P)]
        DQ = D[np.ix_(Q, Q)]
        M = DV - B1 @ _solve_psd(DP, B1.T)
        GQ = DQ - B2.T @ _solve_psd(DP, B2)
        GVQ = B3 - B1 @ _solve_psd(DP, B2)
        N = M - GVQ @ _solve_psd(GQ, GVQ.T)
        return M, N

    def base(self, ctx, spec, S):
        return _logdet_psd(ctx.logdet[np.ix_(S, S)])

    def smi(self, ctx, spec, A, Q):
        M, N = self._blocks(ctx, spec, MeasureMode.SMI, Q, np.zeros(0, dtype=int))
        return _logdet_psd(M[np.ix_(A, A)]) - _logdet_psd(N[np.ix_(A, A)])

    def cg(self, ctx, spec, A, P):
        M, _ = self._blocks(ctx, spec, MeasureMode.CG, np.zeros(0, dtype=int), P)
        return _logdet_psd(M[np.ix_(A, A)])

    def csmi(self, ctx, spec, A, Q, P):
        M, N = self._blocks(ctx, spec, MeasureMode.CSMI, Q, P)
        return _logdet_psd(M[np.ix_(A, A)]) - _logdet_psd(N[np.ix_(A, A)])

    def state(self, ctx, spec, mode, Q, P):
        M, N = self._blocks(ctx, spec, mode, Q, P)
        return _LogDetState(M, N)

    def oracle_view(self, ctx, spec, mode, Q, P):
        eta_cols = Q if mode in (MeasureMode.SMI, MeasureMode.CSMI) else ()
        nu_cols = P if mode in (MeasureMode.CG, MeasureMode.CSMI) else ()
        return ctx.copy_with(logdet=scaled_kernel_matrix(ctx.logdet, ctx, eta_cols, spec.eta, nu_cols, spec.nu))

    def partials(self, ctx, spec, mode, A, Q, P):
        if mode == MeasureMode.BASE:
            return {}
        D = ctx.logdet
        n = ctx.n_ground
        qset = set(int(c) for c in Q if c >= n) if Q is not None else set()
        pset = set(int(c) for c in P if c >= n) if P is not None else set()

        def block(rows, cols):
            """(scaled, d/d eta, d/d nu) of the raw block under the pair rule."""
            raw = D[np.ix_(rows, cols)]
            xq = pair_membership_mask(rows, cols, qset) if qset else np.zeros(raw.shape, dtype=bool)
            xp = pair_membership_mask(rows, cols, pset) if pset else np.zeros(raw.shape, dtype=bool)
            fq = np.where(xq, spec.eta, 1.0)
            fp = np.where(xp, spec.nu, 1.0)
            return raw * fq * fp, raw * xq * fp, raw * xp * fq

        out: dict[str, float] = {}
        if mode == MeasureMode.SMI:
            Cq, dCq, _ = block(A, Q)
            DQ = D[np.ix_(Q, Q)]
            NA = D[np.ix_(A, A)] - Cq @ _solve_psd(DQ, Cq.T)
            E = dCq @ _solve_psd(DQ, Cq.T)
            out["eta"] = float(np.trace(_solve_psd(NA, E + E.T)))
            return out
        if mode == MeasureMode.CG:
            Cp, _, dCp = block(A, P)
            DP = D[np.ix_(P, P)]
            MA = D[np.ix_(A, A)] - Cp @ _solve_psd(DP, Cp.T)
            E = dCp @ _solve_psd(DP, Cp.T)
            out["nu"] = float(-np.trace(_solve_psd(MA, E + E.T)))
            return out
        # csmi: differentiate logdet M_A - logdet H_A through every scaled block
        B1, dB1_eta, dB1_nu = block(A, P)
        B2, dB2_eta, dB2_nu = block(P, Q)
        B3, dB3_eta, dB3_nu = block(A, Q)
        DP = D[np.ix_(P, P)]
        DQ = D[np.ix_(Q, Q)]
        WpB1T = _solve_psd(DP, B1.T)
        WpB2 = _solve_psd(DP, B2)
        MA = D[np.ix_(A, A)] - B1 @ WpB1T
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


class _LogDetState(MarginalState):
    def __init__(self, M, N):
        super().__init__()
        self.pos = GrowingCholesky(M)
        self.neg = GrowingCholesky(N) if N is not None else None

    def gain(self, j):
        d2 = self.pos.quad(j)
        if not d2 > 0:
            raise NumericError(_ADVICE)
        if self.neg is None:
            return math.log(d2)
        e2 = self.neg.quad(j)
        if not e2 > 0:
            raise NumericError(_ADVICE)
        return math.log(d2) - math.log(e2)

    def _push(self, j):
        self.pos.push(j)
        if self.neg is not None:
            self.neg.push(j)
