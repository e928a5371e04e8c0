"""Max-margin learning of nonnegative mixtures of the information measures.

A mixture F(Y) = sum_i w_i f_i(Y) is fit to reference summaries with the
generalized hinge  L_n = max_Y [F(Y) + l_n(Y)] - F(Y_n), the max taken by
greedy loss-augmented inference.  Weight gradients are exact differences of
component values; internal parameters (lambda, eta, nu) get analytic
partials, checked against central finite differences.  Training is
full-batch Nesterov descent projected onto the box each family declares
(nonnegative, and at most PARAM_MAX where a family sets one).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bench import vrouge
from .data import write_json
from .errors import ConfigError, NumericError
from .functions import (
    REGISTRY,
    Family,
    FunctionSpec,
    MeasureMode,
    evaluate,
    modes_supported,
    near_kink,
    parse_family,
    partials,
)
from .functions._common import MarginalState, as_indices
from .optimize import (
    CompositeObjective,
    Flavor,
    FunctionObjective,
    MeasureObjective,
    Selection,
    flavor_sets,
    greedy_maximize,
)

MARGINS = ("one_minus_vrouge", "zero_one")


# ---------------------------------------------------------------------------
# model and data containers


@dataclass
class MixtureModel:
    """Components with nonnegative mixture weights.

    reg_strength is the training objective's l2 coefficient, not the
    graph-cut lambda living inside a component spec.
    """

    components: list[FunctionSpec]
    weights: np.ndarray
    reg_strength: float = 1e-3
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.components:
            raise ConfigError("mixture needs at least one component")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.components),):
            raise ConfigError(
                f"got {self.weights.size} weights for {len(self.components)} components"
            )
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0)):
            raise ConfigError("mixture weights must be finite and nonnegative")
        if not 0 <= self.reg_strength < np.inf:
            raise ConfigError("reg_strength must be finite and nonnegative")

    def to_json(self) -> dict:
        comps = []
        for spec in self.components:
            entry = {"family": spec.family.value, "lam": spec.lam, "eta": spec.eta,
                     "nu": spec.nu, "psi": spec.psi}
            if spec.com_weights is not None:
                entry["com_weights"] = [float(v) for v in spec.com_weights]
            comps.append(entry)
        return {
            "components": comps,
            "weights": [float(w) for w in self.weights],
            "reg_strength": float(self.reg_strength),
            "metadata": self.metadata,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MixtureModel":
        comps = []
        for entry in doc.get("components", []):
            cw = entry.get("com_weights")
            comps.append(FunctionSpec(
                parse_family(entry["family"]),
                lam=float(entry.get("lam", 1.0)),
                eta=float(entry.get("eta", 1.0)),
                nu=float(entry.get("nu", 1.0)),
                psi=entry.get("psi", "sqrt"),
                com_weights=None if cw is None else tuple(float(v) for v in cw),
            ))
        return cls(
            components=comps,
            weights=np.asarray(doc.get("weights", []), dtype=float),
            reg_strength=float(doc.get("reg_strength", 1e-3)),
            metadata=dict(doc.get("metadata", {})),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "MixtureModel":
        return cls.from_json(json.loads(Path(path).read_text()))


def init_mixture(families, seed: int = 0, reg_strength: float = 1e-3) -> MixtureModel:
    """Fresh mixture: unit internal parameters, weights uniform in [0, 2/sqrt(M)]."""
    specs = [FunctionSpec(parse_family(f)) if not isinstance(f, FunctionSpec) else f
             for f in families]
    rng = np.random.default_rng(seed)
    m = len(specs)
    if m == 0:
        raise ConfigError("mixture needs at least one component")
    weights = rng.uniform(0.0, 2.0 / np.sqrt(m), size=m)
    return MixtureModel(specs, weights, reg_strength=reg_strength)


@dataclass
class TrainingExample:
    """One collection: context, reference summaries (ground indices), budget,
    and whichever auxiliary index sets the task needs."""

    ctx: object
    references: list[tuple[int, ...]]
    budget: int
    Q: tuple = ()
    P: tuple = ()
    previous: tuple = ()

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigError("budget must be at least 1")
        if not self.references:
            raise ConfigError("training example needs at least one reference summary")
        n = self.ctx.n_ground
        refs = []
        for ref in self.references:
            idx = tuple(int(i) for i in ref)
            if any(i < 0 or i >= n for i in idx):
                raise ConfigError("reference items must belong to the ground set")
            if len(set(idx)) > self.budget:
                raise ConfigError(
                    f"reference of size {len(set(idx))} exceeds budget {self.budget}"
                )
            refs.append(idx)
        self.references = refs
        self.Q = tuple(int(i) for i in self.Q)
        self.P = tuple(int(i) for i in self.P)
        self.previous = tuple(int(i) for i in self.previous)


@dataclass
class TrainConfig:
    epochs: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    margin: str = "one_minus_vrouge"
    task: Flavor = Flavor.QUERY

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not 0 <= self.lr < np.inf:
            raise ConfigError("learning rate must be finite and nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.margin not in MARGINS:
            raise ConfigError(f"margin must be one of {MARGINS}, got {self.margin!r}")
        self.task = Flavor(self.task)


# ---------------------------------------------------------------------------
# mixture evaluation and inference


def effective_mode(family: Family, mode: MeasureMode) -> MeasureMode:
    """Components whose family lacks the task's measure fall back to their base
    function inside a mixture (base-only families still contribute, e.g. as
    diversity terms)."""
    return mode if mode in modes_supported(family) else MeasureMode.BASE


def _task_sets(ex: TrainingExample, task: Flavor):
    mode, q_used, cond = flavor_sets(task, Q=ex.Q, P=ex.P, previous=ex.previous)
    return mode, (() if q_used is None else q_used), (() if cond is None else cond)


def _candidates(ex: TrainingExample, q_used, cond) -> np.ndarray:
    n = ex.ctx.n_ground
    fixed = [i for i in (*q_used, *cond) if i < n]
    return np.setdiff1d(np.arange(n), np.asarray(fixed, dtype=int))


def mixture_eval(model: MixtureModel, Y, ex: TrainingExample,
                 task: Flavor = Flavor.QUERY) -> float:
    """F(Y) = sum_i w_i f_i(Y) with each component in the task's mode."""
    mode, q_used, cond = _task_sets(ex, task)
    total = 0.0
    for w, spec in zip(model.weights, model.components):
        total += w * evaluate(spec, effective_mode(spec.family, mode), ex.ctx, Y, q_used, cond)
    return float(total)


def mixture_objective(model: MixtureModel, ex: TrainingExample, task: Flavor,
                      margin_fn=None) -> CompositeObjective:
    mode, q_used, cond = _task_sets(ex, task)
    parts = [(w, MeasureObjective(spec, effective_mode(spec.family, mode), ex.ctx, Q=q_used, P=cond))
             for w, spec in zip(model.weights, model.components)]
    if margin_fn is not None:
        if not isinstance(margin_fn, FunctionObjective):
            margin_fn = FunctionObjective(margin_fn, _candidates(ex, q_used, cond))
        parts.append((1.0, margin_fn))
    return CompositeObjective(parts)


class VRougeMargin(FunctionObjective):
    """l(Y) = 1 - V-ROUGE(Y, {R}), callable on any summary like every margin,
    with a marginal state that tracks the running concept counts c_Y, so a
    gain is a read instead of a from-scratch V-ROUGE:

        l(Y + j) - l(Y) = -w . (min(c_Y + c_j, c_R) - min(c_Y, c_R)) / (w . c_R)
    """

    def __init__(self, ctx, reference):
        super().__init__(self, np.arange(ctx.n_ground), ids=ctx.ids)
        self.ctx = ctx
        self.ref = as_indices(reference)

    def __call__(self, Y) -> float:
        return 1.0 - vrouge(Y, [self.ref], self.ctx)

    def fresh_state(self):
        return _VRougeMarginState(self.ctx, self.ref)


class _VRougeMarginState(MarginalState):
    def __init__(self, ctx, ref):
        super().__init__()
        if ctx.counts is None:
            raise ConfigError("the one_minus_vrouge margin needs concept counts, "
                              "none present in the context")
        counts = ctx.counts[:ctx.n_ground]
        c_ref = counts[ref].sum(axis=0)
        w = ctx.concept_weights
        mass = float(w @ c_ref)
        if not mass > 0.0:
            raise ConfigError("reference has zero weighted concept mass")
        cols = np.flatnonzero(w * c_ref)  # other concepts never move the overlap
        self.counts = counts[:, cols]
        self.c_ref = c_ref[cols]
        self.w = w[cols]
        self.mass = mass
        self.c_sel = np.zeros(cols.size)
        self.value = 1.0  # l(empty set)
        self._refresh()

    def _refresh(self):
        have = np.minimum(self.c_sel, self.c_ref)
        self.gains = -((np.minimum(self.c_sel + self.counts, self.c_ref) - have) @ self.w) / self.mass

    def _push(self, j):
        self.c_sel += self.counts[j]
        self._refresh()


def make_margin(ex: TrainingExample, name: str, reference):
    """Per-reference margin l(Y); evaluable on every candidate summary."""
    ref = as_indices(reference)
    if name == "zero_one":
        ref_set = frozenset(int(i) for i in ref)
        return lambda Y: 0.0 if frozenset(int(i) for i in as_indices(Y)) == ref_set else 1.0
    if name == "one_minus_vrouge":
        return VRougeMargin(ex.ctx, ref)
    raise ConfigError(f"unknown margin {name!r}")


def loss_augmented_inference(model: MixtureModel, ex: TrainingExample, margin_fn,
                             task: Flavor = Flavor.QUERY) -> Selection:
    """Greedy argmax of F(Y) + l(Y) over |Y| <= budget.

    The margin makes the augmented objective non-submodular in general, so
    the composite opts out of lazy evaluation and the plain scan runs."""
    obj = mixture_objective(model, ex, task, margin_fn=margin_fn)
    mode, q_used, cond = _task_sets(ex, task)
    return greedy_maximize(obj, ex.budget, candidates=_candidates(ex, q_used, cond))


def hinge_loss(model: MixtureModel, ex: TrainingExample, reference,
               margin: str = "one_minus_vrouge", task: Flavor = Flavor.QUERY) -> float:
    """L = [F(Y_hat) + l(Y_hat)] - F(Y_ref) for a single reference."""
    ref = tuple(int(i) for i in as_indices(reference))
    if any(i < 0 or i >= ex.ctx.n_ground for i in ref):
        raise ConfigError("reference items must belong to the ground set")
    margin_fn = make_margin(ex, margin, ref)
    sel = loss_augmented_inference(model, ex, margin_fn, task)
    yhat = tuple(sel.indices)
    # sel.value telescopes the margin from l(empty), so rebuild F + l directly
    return float(mixture_eval(model, yhat, ex, task) + margin_fn(yhat)
                 - mixture_eval(model, ref, ex, task))


def example_hinge(model: MixtureModel, ex: TrainingExample, cfg: TrainConfig) -> float:
    """Mean per-reference hinge for one example."""
    losses = [hinge_loss(model, ex, ref, cfg.margin, cfg.task) for ref in ex.references]
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# parameter vector packing


def theta_slots(model: MixtureModel) -> list[tuple]:
    slots: list[tuple] = [("w", i) for i in range(len(model.components))]
    for i, spec in enumerate(model.components):
        for key in REGISTRY[spec.family].PARAM_KEYS:
            slots.append((i, key))
    return slots


def _theta_upper(model: MixtureModel) -> np.ndarray:
    """Upper end of the feasible box per slot: the family's PARAM_MAX, else inf."""
    return np.asarray([
        np.inf if slot[0] == "w"
        else REGISTRY[model.components[slot[0]].family].PARAM_MAX.get(slot[1], np.inf)
        for slot in theta_slots(model)
    ])


def pack_theta(model: MixtureModel) -> np.ndarray:
    out = []
    for slot in theta_slots(model):
        if slot[0] == "w":
            out.append(model.weights[slot[1]])
        else:
            out.append(getattr(model.components[slot[0]], slot[1]))
    return np.asarray(out, dtype=float)


def unpack_theta(model: MixtureModel, theta: np.ndarray) -> MixtureModel:
    weights = model.weights.copy()
    updates: dict[int, dict] = {}
    for slot, val in zip(theta_slots(model), np.asarray(theta, dtype=float)):
        if slot[0] == "w":
            weights[slot[1]] = val
        else:
            updates.setdefault(slot[0], {})[slot[1]] = float(val)
    comps = [replace(spec, **updates.get(i, {})) for i, spec in enumerate(model.components)]
    return MixtureModel(comps, weights, reg_strength=model.reg_strength,
                        metadata=dict(model.metadata))


# ---------------------------------------------------------------------------
# gradients


def gradients(model: MixtureModel, ex: TrainingExample, reference,
              task: Flavor = Flavor.QUERY, margin: str = "one_minus_vrouge",
              yhat=None) -> np.ndarray:
    """Subgradient of the per-reference hinge plus the l2 term, over the packed
    parameter vector (Y_hat held constant)."""
    ref = tuple(int(i) for i in as_indices(reference))
    if yhat is None:
        sel = loss_augmented_inference(model, ex, make_margin(ex, margin, ref), task)
        yhat = tuple(sel.indices)
    mode, q, p = _task_sets(ex, task)
    grad = np.zeros(len(theta_slots(model)))
    modes = [effective_mode(spec.family, mode) for spec in model.components]
    for i, (spec, m) in enumerate(zip(model.components, modes)):
        grad[i] = evaluate(spec, m, ex.ctx, yhat, q, p) - evaluate(spec, m, ex.ctx, ref, q, p)
    pos = len(modes)
    for i, (spec, m) in enumerate(zip(model.components, modes)):
        keys = REGISTRY[spec.family].PARAM_KEYS
        if not keys:
            continue
        p_hat = partials(spec, m, ex.ctx, yhat, q, p)
        p_ref = partials(spec, m, ex.ctx, ref, q, p)
        for key in keys:
            grad[pos] = model.weights[i] * (p_hat.get(key, 0.0) - p_ref.get(key, 0.0))
            pos += 1
    return grad + model.reg_strength * pack_theta(model)


def finite_diff_check(model: MixtureModel, ex: TrainingExample, h: float = 1e-5,
                      task: Flavor = Flavor.QUERY, margin: str = "one_minus_vrouge",
                      reference=None) -> float:
    """Max relative gap between analytic and central-difference gradients.

    Y_hat is frozen once; parameter entries whose component sits at an
    indicator kink (for either summary) are excluded."""
    if h <= 0:
        raise ConfigError("finite-difference step must be positive")
    ref = tuple(int(i) for i in as_indices(reference if reference is not None
                                           else ex.references[0]))
    sel = loss_augmented_inference(model, ex, make_margin(ex, margin, ref), task)
    yhat = tuple(sel.indices)
    analytic = gradients(model, ex, ref, task, margin, yhat=yhat)
    mode, q_used, cond = _task_sets(ex, task)
    theta = pack_theta(model)

    def objective(vec: np.ndarray) -> float:
        m = unpack_theta(model, vec)
        return (mixture_eval(m, yhat, ex, task) - mixture_eval(m, ref, ex, task)
                + 0.5 * model.reg_strength * float(vec @ vec))

    worst = 0.0
    for k, slot in enumerate(theta_slots(model)):
        if slot[0] != "w":
            spec = model.components[slot[0]]
            m = effective_mode(spec.family, mode)
            if (near_kink(spec, m, ex.ctx, yhat, q_used, cond)
                    or near_kink(spec, m, ex.ctx, ref, q_used, cond)):
                continue
        step = np.zeros_like(theta)
        step[k] = h
        numeric = (objective(theta + step) - objective(theta - step)) / (2.0 * h)
        worst = max(worst, abs(analytic[k] - numeric) / (abs(analytic[k]) + 1e-12))
    return float(worst)


# ---------------------------------------------------------------------------
# training loop


def train(dataset: list[TrainingExample], model0: MixtureModel,
          cfg: TrainConfig) -> MixtureModel:
    """Full-batch Nesterov descent of the averaged hinge plus l2, with Theta
    projected onto [0, PARAM_MAX] (see _theta_upper) after every step."""
    if not dataset:
        raise ConfigError("training needs at least one example")
    upper = _theta_upper(model0)
    theta = np.clip(pack_theta(model0), 0.0, upper)
    velocity = np.zeros_like(theta)
    trace: list[dict] = []
    last_finite = theta.copy()

    for epoch in range(1, cfg.epochs + 1):
        lookahead = np.clip(theta + cfg.momentum * velocity, 0.0, upper)
        look_model = unpack_theta(model0, lookahead)
        try:
            mean_loss, grad = _mean_hinge_and_gradient(look_model, dataset, cfg)
        except NumericError as exc:
            err = NumericError(f"training diverged at epoch {epoch}: {exc}")
            err.last_model = unpack_theta(model0, last_finite)
            raise err from exc
        velocity = cfg.momentum * velocity - cfg.lr * grad
        theta = np.clip(theta + velocity, 0.0, upper)
        last_finite = theta.copy()
        model_now = unpack_theta(model0, theta)
        trace.append({
            "epoch": epoch,
            "mean_hinge": mean_loss,
            "mean_vrouge": _mean_vrouge(model_now, dataset, cfg),
        })

    final = unpack_theta(model0, theta)
    final.metadata.update({
        "task": cfg.task.value,
        "margin": cfg.margin,
        "epochs": cfg.epochs,
        "loss_trace": trace,
    })
    return final


def _mean_hinge_and_gradient(model: MixtureModel, dataset, cfg: TrainConfig):
    """Hinge and gradient averaged over every (example, reference) pair."""
    grads = []
    losses = []
    for ex in dataset:
        for ref in ex.references:
            margin_fn = make_margin(ex, cfg.margin, ref)
            sel = loss_augmented_inference(model, ex, margin_fn, cfg.task)
            yhat = tuple(sel.indices)
            losses.append(mixture_eval(model, yhat, ex, cfg.task) + margin_fn(yhat)
                          - mixture_eval(model, ref, ex, cfg.task))
            grads.append(gradients(model, ex, ref, cfg.task, cfg.margin, yhat=yhat))
    mean_loss = float(np.mean(losses))
    grad = np.mean(grads, axis=0)
    if not np.isfinite(mean_loss) or not np.all(np.isfinite(grad)):
        raise NumericError("non-finite hinge or gradient")
    return mean_loss, grad


def _mean_vrouge(model: MixtureModel, dataset, cfg: TrainConfig) -> float | None:
    scores = []
    for ex in dataset:
        if ex.ctx.counts is None:
            return None
        sel = summarize_with_mixture(model, ex, cfg.task)
        scores.append(vrouge(sel.indices, ex.references, ex.ctx))
    return float(np.mean(scores))


def summarize_with_mixture(model: MixtureModel, ex: TrainingExample,
                           task: Flavor = Flavor.QUERY) -> Selection:
    """Plain greedy summary under the mixture (no margin)."""
    obj = mixture_objective(model, ex, task)
    mode, q_used, cond = _task_sets(ex, task)
    return greedy_maximize(obj, ex.budget, candidates=_candidates(ex, q_used, cond),
                           flavor=task.value)


def write_training_log(path, model: MixtureModel) -> None:
    """CSV trace (epoch, mean hinge, mean V-ROUGE) from a trained model."""
    trace = model.metadata.get("loss_trace", [])
    with Path(path).open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["epoch", "mean_hinge", "mean_vrouge"])
        for row in trace:
            vr = row.get("mean_vrouge")
            out.writerow([row["epoch"], f"{row['mean_hinge']:.10g}",
                          "" if vr is None else f"{vr:.10g}"])
