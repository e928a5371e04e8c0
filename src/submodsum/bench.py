"""Evaluation metrics, synthetic 2-D instances, and selection behavior reports.

rouge_q / vrouge score summaries by weighted concept-count overlap against
reference summaries.  synth_generate builds the seeded four-cluster toy
layout used by the behavior studies, and behavior_metrics condenses a
greedy Selection into the quantities those studies assert on: per-query
match counts, fairness, saturation step, and privacy violations.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import AuxiliarySet, GroundSet
from .errors import ConfigError, FormatError
from .functions import EvalContext, Family, FunctionSpec, MeasureMode
from .functions.api import index_set
from .optimize import CompositeObjective, MeasureObjective, Selection, greedy_maximize


# ---------------------------------------------------------------------------
# count-overlap metrics


def rouge_q(counts_a, counts_q, weights=None) -> float:
    """Weighted elementwise min of two concept-count vectors."""
    ca = np.asarray(counts_a, dtype=float)
    cq = np.asarray(counts_q, dtype=float)
    if ca.shape != cq.shape or ca.ndim != 1:
        raise FormatError(f"count vectors must be 1-D and equal length, got {ca.shape} and {cq.shape}")
    if weights is None:
        w = np.ones(ca.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != ca.shape:
            raise FormatError(f"weight vector length {w.shape} does not match counts {ca.shape}")
    return float(w @ np.minimum(ca, cq))


def summary_counts(ctx: EvalContext, S) -> np.ndarray:
    """Total concept counts of the items indexed by S, a set in the universe
    V u V' (zeros for none)."""
    ctx.require_counts("count overlap scoring")
    return ctx.counts[index_set(ctx, S, "S")].sum(axis=0)


def vrouge(Y, references, ctx: EvalContext) -> float:
    """Mean over references R of rouge_q(c(Y), c(R)) / rouge_q(c(R), c(R)).

    Y and every reference must be sets of ground items.  References whose
    own weighted count mass is zero cannot be normalized; they are skipped
    with a warning that names them by their item ids.
    """
    if not references:
        raise ConfigError("vrouge needs at least one reference summary")
    w = ctx.concept_weights
    cy = summary_counts(ctx, index_set(ctx, Y, "Y", ground=True))
    scores = []
    for R in references:
        R = index_set(ctx, R, "reference", ground=True)
        cr = summary_counts(ctx, R)
        self_score = rouge_q(cr, cr, w)
        if self_score <= 0.0:
            warnings.warn(f"reference {[ctx.ids[i] for i in R]} has zero weighted concept mass")
            continue
        scores.append(rouge_q(cy, cr, w) / self_score)
    if not scores:
        raise ConfigError("every reference has zero weighted concept mass")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# synthetic instances


@dataclass
class SyntheticConfig:
    """Seeded 2-D layout: four Gaussian clusters plus isolated outliers.

    Queries sit at one cluster center and at one outlying position with no
    data support; the private point sits at another cluster center so that
    privacy-blind selections run into it.
    """

    seed: int = 7
    centers: tuple = ((-4.0, 4.0), (4.0, 4.0), (-4.0, -4.0), (4.0, -4.0))
    cluster_std: float = 0.7
    per_cluster: int = 25
    outliers: tuple = ((0.0, 0.0), (7.5, 0.5))
    queries: tuple = ((-4.0, 4.0), (9.0, -9.0))
    privates: tuple = ((4.0, 4.0), (0.0, 0.0))
    sigma: float = 2.0

    @property
    def n_items(self) -> int:
        return len(self.centers) * self.per_cluster + len(self.outliers)


def synth_generate(cfg: SyntheticConfig):
    """Deterministic (GroundSet, queries, privates) for the given config."""
    rng = np.random.default_rng(cfg.seed)
    ids = [f"d{c}_{r:02d}" for c in range(len(cfg.centers)) for r in range(cfg.per_cluster)]
    feats = [row for center in cfg.centers
             for row in np.asarray(center) + cfg.cluster_std * rng.standard_normal((cfg.per_cluster, 2))]
    ground = GroundSet(ids + [f"out{o}" for o in range(len(cfg.outliers))], feats + list(cfg.outliers))
    queries = AuxiliarySet([f"q{i}" for i in range(len(cfg.queries))], cfg.queries, role_tag="query")
    privates = AuxiliarySet([f"p{i}" for i in range(len(cfg.privates))], cfg.privates, role_tag="private")
    return ground, queries, privates


def synth_context(cfg: SyntheticConfig) -> EvalContext:
    ground, queries, privates = synth_generate(cfg)
    return EvalContext.build(ground, [queries, privates], metric="rbf", sigma=cfg.sigma)


# ---------------------------------------------------------------------------
# behavior reports


@dataclass
class BehaviorReport:
    query_match_count: list[int] = field(default_factory=list)
    fairness: int | None = None
    saturation_step: int | None = None
    privacy_violations: int | None = None

    def to_json(self) -> dict:
        return {
            "query_match_count": [int(c) for c in self.query_match_count],
            "fairness": self.fairness,
            "saturation_step": self.saturation_step,
            "privacy_violations": self.privacy_violations,
        }


def behavior_metrics(
    sel: Selection,
    ground_xy,
    query_xy=None,
    private_xy=None,
    delta: float = 1.0,
) -> BehaviorReport:
    """Condense a selection over 2-D items into the study quantities.

    delta is the match radius in coordinate units.  A pick saturates when
    its gain falls under 1e-3 times the first pick's, a scale-free test;
    a first pick that gains nothing saturates at once.
    """
    if not 0 < delta < np.inf:
        raise ConfigError(f"match radius delta must be finite and positive, got {delta}")
    ground_xy = np.asarray(ground_xy, dtype=float)
    picked = ground_xy[np.asarray(sel.indices, dtype=int)] if sel.indices else np.zeros((0, 2))
    report = BehaviorReport()

    if query_xy is not None and len(query_xy):
        qxy = np.asarray(query_xy, dtype=float)
        counts = []
        for q in qxy:
            d = np.linalg.norm(picked - q, axis=1) if len(picked) else np.zeros(0)
            counts.append(int(np.sum(d <= delta)))
        report.query_match_count = counts
        report.fairness = min(counts)

    gains = list(sel.gains)
    if gains:
        thresh = 1e-3 * abs(gains[0])
        for t, g in enumerate(gains, start=1):
            if g < thresh or not thresh:
                report.saturation_step = t
                break

    if private_xy is not None and len(private_xy):
        pxy = np.asarray(private_xy, dtype=float)
        hits = 0
        for row in picked:
            if np.any(np.linalg.norm(pxy - row, axis=1) <= delta):
                hits += 1
        report.privacy_violations = hits
    return report


def random_instance(rng, n_range=(4, 8), nq_range=(1, 3), np_range=(1, 3),
                    metric: str = "rbf", sigma: float = 1.5, concepts: bool = True):
    """Small random (ctx, Q, P) instance for self-checks and property tests.

    Items carry 2-D features; with concepts=True every item gets counts over
    four concepts (at least one nonzero) plus matching coverage probabilities.
    The context's cross block (the mapped V' x V similarities) is rescaled
    when needed so concave-over-modular's sqrt(n) guard holds on it.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    nq = int(rng.integers(nq_range[0], nq_range[1] + 1))
    npv = int(rng.integers(np_range[0], np_range[1] + 1))

    def item():
        cc = cov = None
        if concepts:
            cc = {f"c{k}": int(v) for k, v in enumerate(rng.integers(0, 4, size=4)) if v}
            if not cc:
                cc = {f"c{int(rng.integers(0, 4))}": 1}
            cov = {k: float(rng.uniform(0.05, 0.95)) for k in cc}
        return rng.normal(size=2), cc, cov

    def items(prefix, count):
        """The columns of count items: ids, then features, concepts and coverage."""
        return [f"{prefix}{i}" for i in range(count)], *zip(*[item() for _ in range(count)])

    ground = GroundSet(*items("g", n))
    aux = [AuxiliarySet(*items("q", nq), role_tag="query"), AuxiliarySet(*items("p", npv), role_tag="private")]
    ctx = EvalContext.build(ground, aux, metric=metric, sigma=sigma)
    cross = ctx.cross.T.copy()  # n x m in C order: its sums round as they always have
    guard = np.sqrt(n)
    worst = max(cross.sum(axis=1).max(), cross.sum(axis=0).max()) if cross.size else 0.0
    if worst > guard:
        ctx = ctx.copy_with(cross=ctx.cross * (0.99 * guard / worst))
    Q = tuple(ctx.role_indices.get("query", ()))
    P = tuple(ctx.role_indices.get("private", ()))
    return ctx, Q, P


def with_ground_members(rng, ctx, Q, P):
    """(A, Q, P) with Q and P each holding one more, distinct, ground item
    and A a nonempty set of the ground items left (the ground set needs 3)."""
    gq, gp, *rest = rng.permutation(ctx.n_ground).tolist()
    A = tuple(sorted(rest[:int(rng.integers(1, len(rest) + 1))]))
    return A, (*Q, gq), (*P, gp)


def make_collection(seed: int, budget: int = 4):
    """Seeded clustered collection with two synthetic reference summaries.

    Four clusters of six 2-D items, per-cluster concept pairs plus an
    occasional background concept, and one query item near the first
    cluster.  References come from greedily maximizing a fixed ground-truth
    mixture (query-coverage plus query-relevant representation); the second
    reference swaps the last pick for the next-best completion, imitating a
    second annotator.  Returns (ctx, references, Q).
    """
    rng = np.random.default_rng(seed)
    centers = np.array([[-3, 3], [3, 3], [-3, -3], [3, -3]], dtype=float)
    feats, counts = [], []
    for c in range(4):
        for r in range(6):
            feats.append(centers[c] + 0.7 * rng.standard_normal(2))
            cc = {f"c{2 * c}": int(rng.integers(1, 4)), f"c{2 * c + 1}": int(rng.integers(0, 3))}
            cc = {k: v for k, v in cc.items() if v}
            if rng.random() < 0.5:
                cc["bg"] = int(rng.integers(1, 3))
            counts.append(cc)
    ground = GroundSet([f"i{c}_{r}" for c in range(4) for r in range(6)], feats, counts)
    q = AuxiliarySet(["q0"], [centers[0] + 0.2 * rng.standard_normal(2)], [{"c0": 2, "c1": 1}], role_tag="query")
    ctx = EvalContext.build(ground, [q], metric="rbf", sigma=2.0)
    Q = tuple(ctx.role_indices["query"])
    truth = CompositeObjective([
        (0.6, MeasureObjective(FunctionSpec(Family.SET_COVER), MeasureMode.SMI, ctx, Q=Q)),
        (0.4, MeasureObjective(FunctionSpec(Family.FACILITY_LOCATION_1), MeasureMode.SMI, ctx, Q=Q)),
    ])
    ref1 = greedy_maximize(truth, budget).indices
    st = truth.fresh_state()
    for j in ref1[:-1]:
        st.add(j)
    pool = np.setdiff1d(truth.candidates(), ref1)
    g = st.gain(pool)
    alt = int(pool[np.flatnonzero(g == g.max())[-1]])  # the highest index wins a tie
    ref2 = ref1[:-1] + [alt]
    return ctx, [tuple(ref1), tuple(ref2)], Q


def plot_csv(ground_xy, sel: Selection, query_xy=None, private_xy=None) -> str:
    """Scatter/selection CSV text: x, y, role in {data, query, private, selected},
    pick_order, with csv's CRLF row ends (write it with newline="" to keep them)."""
    ground_xy = np.asarray(ground_xy, dtype=float)
    order = {int(j): t + 1 for t, j in enumerate(sel.indices)}
    buf = io.StringIO()
    out = csv.writer(buf)
    out.writerow(["x", "y", "role", "pick_order"])
    for i, (x, y) in enumerate(ground_xy):
        if i in order:
            out.writerow([f"{x:.10g}", f"{y:.10g}", "selected", order[i]])
        else:
            out.writerow([f"{x:.10g}", f"{y:.10g}", "data", ""])
    for x, y in np.asarray(query_xy if query_xy is not None else (), dtype=float).reshape(-1, 2):
        out.writerow([f"{x:.10g}", f"{y:.10g}", "query", ""])
    for x, y in np.asarray(private_xy if private_xy is not None else (), dtype=float).reshape(-1, 2):
        out.writerow([f"{x:.10g}", f"{y:.10g}", "private", ""])
    return buf.getvalue()
