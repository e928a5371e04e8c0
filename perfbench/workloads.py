"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one process, one client thread, the next
operation issued when the previous one returns.  A workload exposes

* ``setup()``      program work done once before the first operation
                   (timed as set-up, repeated to take a median);
* ``prepare(i)``   untimed input generation for operation i;
* ``run(i, prep)`` the timed operation;
* ``check(i, prep, out)`` untimed output checks -> ``Outcome``;
* ``cleanup(i, prep)`` removes the operation's files.

``cycle`` is the length of the operation mix; a run ends on a cycle
boundary and makes at least ``min_ops`` timed operations, so that the
tail percentile (ten samples beyond it) sits above the median.

Checks call the package's closed forms, which are traced layers, so the
runner keeps the tracer off while they run.
"""

from __future__ import annotations

import inspect
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

# lazy-path (family, flavor) pairs the cli-summarize mix cycles through
CLI_MIX = (
    ("fl1", "query_privacy"), ("gc", "privacy"), ("sc", "query"), ("com", "query"),
    ("psc", "generic"), ("fl2", "query"), ("logdet", "privacy"), ("rouge", "query"),
)
# logdet mutual-information forms are not lazy-safe: both take the plain scan
SCAN_MIX = ("query", "query_privacy")
LEARN_COMPONENTS = ("sc", "gc", "fl1", "fl2", "logdet", "com")
# log-det conditioning stays positive definite only for eta, nu in [0, 1]
# (the package's own check draws them there).  init_mixture starts every
# parameter at 1.0, and the learner projects onto >= 0 only, so from 1.0 one
# upward step can make train() raise NumericError; start log-det mid-range.
LOGDET_START = {"eta": 0.5, "nu": 0.5}

SIZES = {
    "full": {
        "cli-summarize": {"shape": gen.CollectionShape(2000, 64, 300, (3, 8), 4, 4, 0, 0),
                          "budget": 20},
        "scan-logdet": {"shape": gen.CollectionShape(1000, 32, 300, (3, 8), 4, 4, 0, 0),
                        "budget": 20},
        "learn": {"shape": gen.CollectionShape(100, 16, 40, (3, 8), 1, 0, 2, 5),
                  "collections": 4, "panel": 8, "budget": 5, "epochs": 3},
    },
    # smoke-test size: same code paths, a fraction of a second per operation
    "tiny": {
        "cli-summarize": {"shape": gen.CollectionShape(60, 8, 30, (3, 8), 2, 2, 0, 0),
                          "budget": 5},
        "scan-logdet": {"shape": gen.CollectionShape(60, 8, 30, (3, 8), 2, 2, 0, 0),
                        "budget": 5},
        "learn": {"shape": gen.CollectionShape(20, 6, 15, (3, 8), 1, 0, 2, 3),
                  "collections": 2, "panel": 2, "budget": 3, "epochs": 1},
    },
}


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    picks: list[list[int]] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    vrouges: list[float] = field(default_factory=list)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_summary(out: Outcome, sel, doc: dict, closed_form: float, label: str,
                  scale: float = 1.0) -> None:
    """The per-summary checks: finite gains, gains telescope to the value,
    the value equals the closed form, and the JSON record matches.  The
    value enters ``objective_mean`` divided by scale."""
    gains = [float(g) for g in doc["gains"]]
    value = float(doc["value"])
    if doc["indices"] != [int(i) for i in sel.indices]:
        out.problems.append(f"{label}: selection.json picks differ from the returned selection")
    if not all(math.isfinite(g) for g in gains) or not math.isfinite(value):
        out.problems.append(f"{label}: non-finite gain or value")
        return
    if abs(sum(gains) - value) > 1e-12 * max(1.0, abs(value)):
        out.problems.append(f"{label}: gains sum to {sum(gains)!r}, value is {value!r}")
    rel = abs(closed_form - value) / max(1.0, abs(closed_form), abs(value))
    if rel > 1e-8:
        out.problems.append(f"{label}: value {value!r} vs closed form {closed_form!r} (rel {rel:.2e})")
    out.picks.append([int(i) for i in sel.indices])
    out.values.append(value / scale)


def source_vrouge(bench, sel, ctx) -> float:
    """V-ROUGE of a summary against its whole ground set: the share of the
    collection's weighted concept mass the summary covers."""
    return bench.vrouge(sel.indices, [range(ctx.n_ground)], ctx)


def view_bytes(ctx) -> int:
    """Computed bytes of every array the context holds (views included)."""
    return sum(v.nbytes for v in vars(ctx).values() if isinstance(v, np.ndarray))


def _op_rng(seed: int, i: int):
    return np.random.default_rng([seed, i])


class CliSummarize:
    """In-process ``submodsum summarize`` on a fresh generated file per call."""

    name = "cli-summarize"
    cycle = len(CLI_MIX)
    min_ops = 40

    def __init__(self, size: str, seed: int, workdir: Path):
        from submodsum import bench, cli, functions, optimize

        self.cli, self.bench, self.functions, self.optimize = cli, bench, functions, optimize
        self.params = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir
        self.view_bytes = 0.0
        # keep the solver's inputs and result for the checks; wrapping the
        # cli module's binding leaves the solver itself untouched
        solve = cli.master_solve
        self._signature = inspect.signature(inspect.unwrap(solve))
        self.captured: list = []

        def capture(*args, **kwargs):
            sel = solve(*args, **kwargs)
            self.captured.append((args, kwargs, sel))
            return sel

        cli.master_solve = capture

    def setup(self) -> None:
        pass

    def prepare(self, i: int):
        family, flavor = CLI_MIX[i % self.cycle]
        doc = gen.make_collection(_op_rng(self.seed, i), self.params["shape"])
        path = self.workdir / f"collection-{i}.json"
        gen.write_json(path, doc)
        self.captured.clear()
        return {"path": path, "out": self.workdir / f"out-{i}", "family": family,
                "flavor": flavor}

    def run(self, i: int, prep) -> int:
        return self.cli.main([
            "summarize", "--collection", str(prep["path"]), "--flavor", prep["flavor"],
            "--budget", str(self.params["budget"]), "--fn", prep["family"],
            "--out", str(prep["out"]),
        ])

    def check(self, i: int, prep, rc) -> Outcome:
        out = Outcome()
        label = f"op {i} {prep['family']}/{prep['flavor']}"
        if rc != 0:
            out.problems.append(f"{label}: exit code {rc}")
            return out
        if len(self.captured) != 1:
            out.problems.append(f"{label}: expected one solve, saw {len(self.captured)}")
            return out
        args, kwargs, sel = self.captured[0]
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        ctx = a["ctx"]
        mode, q_used, cond = self.optimize.flavor_sets(a["flavor"], a["Q"], a["P"], a["previous"])
        closed = self.functions.evaluate(a["spec"], mode, ctx, sel.indices, q_used, cond)
        doc = strict_json((prep["out"] / "selection.json").read_text())
        check_summary(out, sel, doc, closed, label)
        out.vrouges.append(source_vrouge(self.bench, sel, ctx))
        self.view_bytes = view_bytes(ctx)
        self.captured.clear()
        return out

    def cleanup(self, i: int, prep) -> None:
        prep["path"].unlink(missing_ok=True)
        shutil.rmtree(prep["out"], ignore_errors=True)


class ScanLogdet:
    """Repeated log-det SMI / CSMI solves on one context built in set-up."""

    name = "scan-logdet"
    cycle = len(SCAN_MIX)
    min_ops = 40

    def __init__(self, size: str, seed: int, workdir: Path):
        from submodsum import bench, data, functions, optimize

        self.bench, self.data, self.functions, self.optimize = bench, data, functions, optimize
        self.params = SIZES[size][self.name]
        self.path = workdir / "collection.json"
        gen.write_json(self.path, gen.make_collection(_op_rng(seed, 0), self.params["shape"]))
        self.spec = functions.FunctionSpec(functions.Family.LOG_DET)
        self.ctx = None

    def setup(self) -> None:
        coll = self.data.load_collection(self.path)
        self.ctx = self.functions.EvalContext.build(coll.ground, coll.aux_sets,
                                                    metric="cosine", universe=coll.universe)
        self.Q = list(self.ctx.role_indices["query"])
        self.P = list(self.ctx.role_indices["private"])
        self.view_bytes = view_bytes(self.ctx)

    def prepare(self, i: int):
        return self.optimize.Flavor(SCAN_MIX[i % self.cycle])

    def run(self, i: int, flavor):
        return self.optimize.master_solve(flavor, self.spec, self.ctx, self.params["budget"],
                                          Q=self.Q, P=self.P)

    def check(self, i: int, flavor, sel) -> Outcome:
        out = Outcome()
        mode, q_used, cond = self.optimize.flavor_sets(flavor, self.Q, self.P)
        closed = self.functions.evaluate(self.spec, mode, self.ctx, sel.indices, q_used, cond)
        doc = strict_json(json.dumps(sel.to_json()))
        check_summary(out, sel, doc, closed, f"op {i} logdet/{flavor.value}")
        out.vrouges.append(source_vrouge(self.bench, sel, self.ctx))
        return out

    def cleanup(self, i: int, prep) -> None:
        pass


class Learn:
    """Repeated ``learning.train`` on a fixed set of generated collections;
    each call starts from its own seeded initial mixture.

    Each trained mixture is checked and scored on a panel of held-out
    collections that is the same for every seed.  Scored on one seed's own
    four collections, V-ROUGE swings by a quarter from seed to seed with the
    collections; on the fixed panel it moves only with the trained model."""

    name = "learn"
    cycle = 1
    min_ops = 22
    PANEL_SEED = 2**40

    def __init__(self, size: str, seed: int, workdir: Path):
        from submodsum import bench, data, functions, learning

        self.bench, self.data, self.functions, self.learning = bench, data, functions, learning
        self.params = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir
        self.paths = self._write(seed, "train", self.params["collections"])
        self.panel = self._examples(self._write(self.PANEL_SEED, "panel", self.params["panel"]))
        self.cfg = learning.TrainConfig(epochs=self.params["epochs"], margin="one_minus_vrouge",
                                        task="query")
        self.components = [
            functions.FunctionSpec(functions.parse_family(f), **LOGDET_START) if f == "logdet"
            else f for f in LEARN_COMPONENTS]
        self.examples = []

    def _write(self, seed: int, tag: str, count: int) -> list[Path]:
        paths = []
        for c in range(count):
            path = self.workdir / f"{tag}-{c}.json"
            gen.write_json(path, gen.make_collection(_op_rng(seed, c), self.params["shape"]))
            paths.append(path)
        return paths

    def _examples(self, paths) -> list:
        examples = []
        for path in paths:
            coll = self.data.load_collection(path)
            ctx = self.functions.EvalContext.build(coll.ground, coll.aux_sets,
                                                   metric="cosine", universe=coll.universe)
            refs = [ctx.indices_of(ref) for ref in coll.references]
            examples.append(self.learning.TrainingExample(
                ctx, refs, self.params["budget"],
                Q=ctx.role_indices.get("query", ()), P=ctx.role_indices.get("private", ())))
        return examples

    def setup(self) -> None:
        self.examples = self._examples(self.paths)
        self.view_bytes = sum(view_bytes(ex.ctx) for ex in self.examples)

    def prepare(self, i: int):
        init_seed = int(_op_rng(self.seed, i).integers(2**31))
        return self.learning.init_mixture(self.components, seed=init_seed)

    def run(self, i: int, model0):
        return self.learning.train(self.examples, model0, self.cfg)

    def check(self, i: int, model0, model) -> Outcome:
        out = Outcome()
        theta = self.learning.pack_theta(model)
        if not (np.all(np.isfinite(theta)) and np.all(theta >= 0)):
            out.problems.append(f"op {i}: trained parameters not finite and nonnegative")
            return out
        task = self.cfg.task
        for e, ex in enumerate(self.panel):
            sel = self.learning.summarize_with_mixture(model, ex, task)
            closed = self.learning.mixture_eval(model, sel.indices, ex, task)
            # learned weights set the objective's scale; the references'
            # value under the same mixture removes it
            scale = statistics.fmean(self.learning.mixture_eval(model, ref, ex, task)
                                     for ref in ex.references)
            if not scale > 0:
                out.problems.append(f"op {i} panel {e}: mixture values the references at {scale!r}")
                continue
            doc = strict_json(json.dumps(sel.to_json()))
            check_summary(out, sel, doc, closed, f"op {i} panel {e}", scale)
            out.vrouges.append(self.bench.vrouge(sel.indices, ex.references, ex.ctx))
        return out

    def cleanup(self, i: int, prep) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (CliSummarize, ScanLogdet, Learn)}
