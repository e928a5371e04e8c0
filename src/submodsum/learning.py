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
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .bench import vrouge
from .data import read_json, write_json
from .errors import ConfigError, FormatError, NumericError
from .functions import (
    REGISTRY,
    Family,
    FunctionSpec,
    MeasureMode,
    modes_supported,
    near_kink,
    parse_family,
    partials,
)
from .functions._common import MarginalState, as_indices
from .functions.api import index_set
from .optimize import (
    CompositeObjective,
    Flavor,
    MeasureObjective,
    Selection,
    flavor_sets,
    greedy_maximize,
)


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
        return {
            "components": [spec.to_json() for spec in self.components],
            "weights": [float(w) for w in self.weights],
            "reg_strength": float(self.reg_strength),
            "metadata": self.metadata,
        }

    @classmethod
    def from_json(cls, doc) -> "MixtureModel":
        if not isinstance(doc, dict):
            raise FormatError("model must be a JSON object")
        comps = doc.get("components", [])
        if not isinstance(comps, list):
            raise FormatError("model 'components' must be a list of function specs")
        specs = [FunctionSpec.from_json(c) for c in comps]
        try:
            weights = np.asarray(doc.get("weights", []), dtype=float)
            reg_strength = float(doc.get("reg_strength", 1e-3))
            metadata = dict(doc.get("metadata", {}))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed model: {exc}") from None
        return cls(specs, weights, reg_strength=reg_strength, metadata=metadata)

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "MixtureModel":
        return cls.from_json(read_json(path))


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
        # every set as sorted unique ints, under the index-set rule of api
        self.references = [tuple(index_set(self.ctx, ref, "reference", ground=True).tolist())
                            for ref in self.references]
        for ref in self.references:
            if len(ref) > self.budget:
                raise ConfigError(f"reference of size {len(ref)} exceeds budget {self.budget}")
        self.Q, self.P, self.previous = (tuple(as_indices(S).tolist())
                                         for S in (self.Q, self.P, self.previous))


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
            raise ConfigError(f"margin must be one of {tuple(MARGINS)}, got {self.margin!r}")
        self.task = Flavor(self.task)


# ---------------------------------------------------------------------------
# mixture evaluation and inference


def effective_mode(family: Family, mode: MeasureMode) -> MeasureMode:
    """Components whose family lacks the task's measure fall back to their base
    function inside a mixture (base-only families still contribute, e.g. as
    diversity terms)."""
    return mode if mode in modes_supported(family) else MeasureMode.BASE


def mixture_objective(model: MixtureModel, ex: TrainingExample, task: Flavor,
                      margin=None) -> CompositeObjective:
    """F(Y) = sum_i w_i f_i(Y), each component in the task's mode (see
    effective_mode), plus the margin l(Y) at weight 1 when one is given."""
    mode, q_used, cond = flavor_sets(task, Q=ex.Q, P=ex.P, previous=ex.previous)
    parts = [(w, MeasureObjective(spec, effective_mode(spec.family, mode), ex.ctx, Q=q_used, P=cond))
             for w, spec in zip(model.weights, model.components)]
    if margin is not None:
        parts.append((1.0, margin))
    return CompositeObjective(parts)


def mixture_eval(model: MixtureModel, Y, ex: TrainingExample,
                 task: Flavor = Flavor.QUERY) -> float:
    """F(Y) = sum_i w_i f_i(Y) with each component in the task's mode."""
    return mixture_objective(model, ex, task).value(Y)


class _Margin:
    """Per-reference margin l(Y): callable on any summary, and an objective
    whose fresh_state() the loss-augmented greedy reads incrementally."""

    def __init__(self, ctx, reference):
        self.ctx = ctx
        self.ref = as_indices(reference)

    def value(self, Y) -> float:
        return self(Y)


class VRougeMargin(_Margin):
    """l(Y) = 1 - V-ROUGE(Y, {R}), with a marginal state that tracks the
    running concept counts c_Y, so a gain is a read instead of a
    from-scratch V-ROUGE:

        l(Y + j) - l(Y) = -w . (min(c_Y + c_j, c_R) - min(c_Y, c_R)) / (w . c_R)
    """

    def __call__(self, Y) -> float:
        return 1.0 - vrouge(Y, [self.ref], self.ctx)

    def fresh_state(self):
        return _VRougeMarginState(self.ctx, self.ref)


class _VRougeMarginState(MarginalState):
    def __init__(self, ctx, ref):
        ctx.require_counts("the one_minus_vrouge margin")
        counts = ctx.counts[:ctx.n_ground]
        c_ref = counts[ref].sum(axis=0)
        w = ctx.concept_weights
        mass = float(w @ c_ref)
        if not mass > 0.0:
            raise ConfigError(f"reference {[ctx.ids[i] for i in ref]} has zero weighted concept mass")
        cols = np.flatnonzero(w * c_ref)  # other concepts never move the overlap
        self.counts = counts[:, cols]
        self.c_ref = c_ref[cols]
        self.w = w[cols]
        self.mass = mass
        self.c_sel = np.zeros(cols.size)
        self._refresh()

    def _refresh(self):
        have = np.minimum(self.c_sel, self.c_ref)
        self.gains = -((np.minimum(self.c_sel + self.counts, self.c_ref) - have) @ self.w) / self.mass

    def add(self, j):
        self.c_sel += self.counts[j]
        self._refresh()


class ZeroOneMargin(_Margin):
    """l(Y) = 0 if Y is the reference R, else 1."""

    def __call__(self, Y) -> float:
        return 0.0 if np.array_equal(as_indices(Y), self.ref) else 1.0

    def fresh_state(self):
        return _ZeroOneMarginState(self.ctx.n_ground, self.ref)


class _ZeroOneMarginState(MarginalState):
    """Gains move only while Y stays inside R: the last missing reference
    item gets -1, and once Y = R every item gets +1.  Any item outside R
    leaves it for good, and every gain is 0 from then on."""

    def __init__(self, n, ref):
        self.missing = set(ref.tolist())  # R minus Y
        self.inside = True  # Y is a subset of R
        self.gains = np.zeros(n)
        self._refresh()

    def _refresh(self):
        self.gains.fill(0.0)
        if not self.inside:
            return
        if not self.missing:
            self.gains.fill(1.0)
        elif len(self.missing) == 1:
            self.gains[next(iter(self.missing))] = -1.0

    def add(self, j):
        if j in self.missing:
            self.missing.remove(j)
        else:
            self.inside = False
        self._refresh()


MARGINS = {"one_minus_vrouge": VRougeMargin, "zero_one": ZeroOneMargin}


def make_margin(ex: TrainingExample, name: str, reference) -> _Margin:
    """Per-reference margin l(Y); evaluable on every candidate summary."""
    if name not in MARGINS:
        raise ConfigError(f"unknown margin {name!r}")
    return MARGINS[name](ex.ctx, reference)


def loss_augmented_inference(model: MixtureModel, ex: TrainingExample, margin,
                             task: Flavor = Flavor.QUERY) -> Selection:
    """Greedy argmax of F(Y) + l(Y) over |Y| <= budget."""
    return greedy_maximize(mixture_objective(model, ex, task, margin=margin), ex.budget)


def _pair_hinge(model: MixtureModel, ex: TrainingExample, ref, margin: str,
                task: Flavor) -> tuple[float, tuple[int, ...]]:
    """(F(Y_hat) + l(Y_hat) - F(ref), Y_hat) for one reference, Y_hat from
    loss-augmented inference."""
    margin_fn = make_margin(ex, margin, ref)
    yhat = tuple(loss_augmented_inference(model, ex, margin_fn, task).indices)
    # the selection's value telescopes the margin from l(empty), so rebuild F + l directly
    loss = mixture_eval(model, yhat, ex, task) + margin_fn(yhat) - mixture_eval(model, ref, ex, task)
    return loss, yhat


def hinge_loss(model: MixtureModel, ex: TrainingExample, reference,
               margin: str = "one_minus_vrouge", task: Flavor = Flavor.QUERY) -> float:
    """L = [F(Y_hat) + l(Y_hat)] - F(Y_ref) for a single reference."""
    ref = tuple(int(i) for i in index_set(ex.ctx, reference, "reference", ground=True))
    return float(_pair_hinge(model, ex, ref, margin, task)[0])


def example_hinge(model: MixtureModel, ex: TrainingExample, cfg: TrainConfig) -> float:
    """Mean per-reference hinge for one example."""
    losses = [_pair_hinge(model, ex, ref, cfg.margin, cfg.task)[0] for ref in ex.references]
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


def gradients(model: MixtureModel, ex: TrainingExample, reference, yhat,
              task: Flavor = Flavor.QUERY) -> np.ndarray:
    """Subgradient of the per-reference hinge plus the l2 term, over the packed
    parameter vector, at the loss-augmented summary yhat (held constant)."""
    ref = tuple(int(i) for i in as_indices(reference))
    parts = [obj for _, obj in mixture_objective(model, ex, task).parts]
    grad = np.zeros(len(theta_slots(model)))
    for i, obj in enumerate(parts):
        grad[i] = obj.value(yhat) - obj.value(ref)
    pos = len(parts)
    for i, obj in enumerate(parts):
        keys = REGISTRY[obj.spec.family].PARAM_KEYS
        if not keys:
            continue
        p_hat = partials(obj.spec, obj.mode, obj.ctx, yhat, obj.Q, obj.P)
        p_ref = partials(obj.spec, obj.mode, obj.ctx, ref, obj.Q, obj.P)
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
    yhat = _pair_hinge(model, ex, ref, margin, task)[1]
    analytic = gradients(model, ex, ref, yhat, task)
    parts = [obj for _, obj in mixture_objective(model, ex, task).parts]
    theta = pack_theta(model)

    def objective(vec: np.ndarray) -> float:
        m = unpack_theta(model, vec)
        return (mixture_eval(m, yhat, ex, task) - mixture_eval(m, ref, ex, task)
                + 0.5 * model.reg_strength * float(vec @ vec))

    worst = 0.0
    for k, slot in enumerate(theta_slots(model)):
        if slot[0] != "w":
            obj = parts[slot[0]]
            if any(near_kink(obj.spec, obj.mode, obj.ctx, Y, obj.Q, obj.P) for Y in (yhat, ref)):
                continue
        step = np.zeros_like(theta)
        step[k] = h
        # forward difference where theta - h would leave the box at its lower bound 0
        lo, span = (theta - step, 2.0 * h) if theta[k] >= h else (theta, h)
        numeric = (objective(theta + step) - objective(lo)) / span
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

    for epoch in range(1, cfg.epochs + 1):
        lookahead = np.clip(theta + cfg.momentum * velocity, 0.0, upper)
        look_model = unpack_theta(model0, lookahead)
        try:
            mean_loss, grad = _mean_hinge_and_gradient(look_model, dataset, cfg)
        except NumericError as exc:
            err = NumericError(f"training diverged at epoch {epoch}: {exc}")
            err.last_model = unpack_theta(model0, theta)
            raise err from exc
        velocity = cfg.momentum * velocity - cfg.lr * grad
        theta = np.clip(theta + velocity, 0.0, upper)
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
            loss, yhat = _pair_hinge(model, ex, ref, cfg.margin, cfg.task)
            losses.append(loss)
            grads.append(gradients(model, ex, ref, yhat, cfg.task))
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
    return greedy_maximize(mixture_objective(model, ex, task), ex.budget, flavor=task.value)


def training_log_csv(model: MixtureModel) -> str:
    """CSV text of a trained model's trace (epoch, mean hinge, mean V-ROUGE),
    with csv's CRLF row ends (write it with newline="" to keep them)."""
    buf = io.StringIO()
    out = csv.writer(buf)
    out.writerow(["epoch", "mean_hinge", "mean_vrouge"])
    for row in model.metadata.get("loss_trace", []):
        vr = row.get("mean_vrouge")
        out.writerow([row["epoch"], f"{row['mean_hinge']:.10g}",
                      "" if vr is None else f"{vr:.10g}"])
    return buf.getvalue()
