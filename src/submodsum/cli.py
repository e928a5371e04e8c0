"""Command-line front end.

Subcommands: summarize (any flavor over a JSON collection), learn
(max-margin mixture training over a directory of collections), eval
(V-ROUGE of a summary against references), synth (seeded 2-D behavior
studies with CSV plot data), and check (closed-form and gradient
self-verification).  Exit codes: 0 success, 1 failed check, 2
configuration or format error, 3 numeric failure.

summarize, learn, eval and synth write a manifest.json next to their
outputs: every option but --out, with the values the command resolved
laid over the typed ones, and the library version; check writes none.
They write nothing unless they succeed: _write makes --out only once every
output is computed.  Outputs contain no timestamps, so the same seed and
config give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    SyntheticConfig,
    behavior_metrics,
    make_collection,
    plot_csv,
    random_instance,
    synth_context,
    synth_generate,
    vrouge,
    with_ground_members,
)
from .data import AuxiliarySet, ConceptUniverse, id_list, id_lists, json_text, load_collection, read_json
from .errors import ConfigError, FormatError, NumericError, SubmodsumError
from .functions import (
    REGISTRY,
    EvalContext,
    Family,
    FunctionSpec,
    MeasureMode,
    definitional_oracle,
    evaluate,
    modes_supported,
)
from .learning import (
    MixtureModel,
    TrainConfig,
    TrainingExample,
    finite_diff_check,
    init_mixture,
    train,
    training_log_csv,
)
from .optimize import FLAVOR_TABLE, Flavor, master_solve, parse_flavor

# what to pass to summarize when a set a flavor reads (see FLAVOR_TABLE) is missing
_SET_HINT = {"query": "--query or collection queries",
             "private": "--private or collection privates",
             "previous": "--prev with previous summary items"}


# ---------------------------------------------------------------------------
# shared plumbing


def parse_fn_spec(text: str) -> FunctionSpec:
    """Parse 'family[:key=value,...]' into the spec object model.json holds
    and read it with FunctionSpec.from_json, e.g. 'fl1:eta=0.5,nu=2' or
    'com:com_weights=0.3|0.7,psi=log1p' ('|' separates com_weights)."""
    head, _, tail = text.partition(":")
    obj = {}
    for part in tail.split(",") if tail else ():
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"malformed function parameter {part!r}; expected key=value")
        if key == "family":
            raise ConfigError("the family goes before the ':', not among its parameters")
        obj[key] = val.split("|") if key == "com_weights" else val.strip()
    return FunctionSpec.from_json({**obj, "family": head})


def _write(args, outputs: dict, **resolved) -> int:
    """The one writer of --out: outputs (file name to a JSON payload or CSV
    text) and manifest.json (every parsed option but --out, the values the
    command resolved laid over them, and the library version), all serialized
    before --out is made, so a payload that is not strict JSON writes nothing."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "fn_cmd", "out")}
    outputs = {**outputs, "manifest.json": {"command": args.command, "config": {**config, **resolved},
                                            "version": __version__}}
    out = Path(args.out)
    texts = {name: doc if isinstance(doc, str) else json_text(doc, out / name)
             for name, doc in outputs.items()}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text, newline="")  # keeps csv's \r\n rows
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {args.out}: {exc.strerror or exc}") from None
    return 0


def _context_from_collection(coll, args, aux=None):
    return EvalContext.build(
        coll.ground,
        coll.aux_sets if aux is None else aux,
        metric=args.metric,
        sigma=args.sigma,
        jitter=args.jitter,
        universe=coll.universe,
    )


def _indices(ctx, ids, role=None) -> list[int]:
    """Context indices of the items ids names, each a ground item or, with a
    role, an item of ctx.role_indices[role]; ids None names every item of
    the role."""
    allowed = ctx.role_indices.get(role, ()) if role else range(ctx.n_ground)
    if ids is None:
        return list(allowed)
    indices = []
    for token in ids:
        try:
            i = ctx.index_of(token)
        except LookupError:
            i = None
        if i not in allowed:
            raise ConfigError(f"no {role} item with id {token!r} in the collection" if role
                              else f"item {token!r} is not in the ground set")
        indices.append(i)
    return indices


def _missing_set(flavor: Flavor, Q, P, prev) -> str | None:
    """The first set the flavor reads (FLAVOR_TABLE) that comes empty, as a
    key of _SET_HINT, or None where every such set has items.  An empty set
    would collapse the flavor's measure to another one."""
    _, wants_q, cond_source = FLAVOR_TABLE[flavor]
    if wants_q and not Q:
        return "query"
    if cond_source and not {"private": P, "previous": prev}[cond_source]:
        return cond_source
    return None


def _split_csv(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [t.strip() for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# summarize


def cmd_summarize(args) -> int:
    coll = load_collection(args.collection)
    query_tokens = _split_csv(args.query)
    aux = coll.aux_sets
    if query_tokens and not set(query_tokens) <= set(coll.queries.ids):
        # not item ids: treat the tokens as concept names of the universe the
        # context is built on, and build a query item
        universe = coll.universe or ConceptUniverse.from_items(coll.ground, *coll.aux_sets)
        unknown = [t for t in query_tokens if t not in universe.index]
        if unknown:
            raise ConfigError(
                f"--query tokens {unknown} match neither query item ids nor concepts"
            )
        synthesized = AuxiliarySet(["query:" + ",".join(query_tokens)],
                                   concepts=[{t: 1 for t in query_tokens}], role_tag="query")
        # right after the collection's queries, as one more of them
        aux = [coll.queries, synthesized, coll.privates]
        query_tokens = list(synthesized.ids)
    ctx = _context_from_collection(coll, args, aux)
    flavor = parse_flavor(args.flavor)
    Q = _indices(ctx, query_tokens, "query")
    P = _indices(ctx, _split_csv(args.private), "private")
    prev = _indices(ctx, _split_csv(args.prev) or [])

    if missing := _missing_set(flavor, Q, P, prev):
        raise ConfigError(f"flavor {flavor.value} needs {_SET_HINT[missing]}")

    spec = parse_fn_spec(args.fn)
    sel = master_solve(flavor, spec, ctx, args.budget, Q=Q, P=P, previous=prev,
                       stop_on_nonpositive=args.stop_on_nonpositive)
    return _write(args, {"selection.json": sel.to_json()}, flavor=flavor.value)


# ---------------------------------------------------------------------------
# learn


def cmd_learn(args) -> int:
    train_dir = Path(args.train_dir)
    paths = sorted(train_dir.glob("*.json"))
    if not paths:
        raise ConfigError(f"no collection files found in {train_dir}")
    task = parse_flavor(args.task)
    examples = []
    for path in paths:
        coll = load_collection(path)
        if not coll.references:
            raise ConfigError(f"collection {path.name} has no reference summaries")
        ctx = _context_from_collection(coll, args)
        refs = [_indices(ctx, ref) for ref in coll.references]
        Q, P = _indices(ctx, None, "query"), _indices(ctx, None, "private")
        if (missing := _missing_set(task, Q, P, ())) == "previous":  # learn takes no previous summary
            raise ConfigError(f"task {task.value} needs a previous summary, which learn does not take")
        if missing:
            raise ConfigError(f"task {task.value} needs {missing} items, but collection {path.name} has none")
        examples.append(TrainingExample(ctx, refs, args.budget, Q=Q, P=P))
    families = _split_csv(args.components)
    model0 = init_mixture(families, seed=args.seed, reg_strength=args.reg)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, momentum=args.momentum,
                      margin=args.margin, task=task)
    model = train(examples, model0, cfg)
    return _write(args, {"model.json": model.to_json(), "training_log.csv": training_log_csv(model)},
                  task=cfg.task.value, components=families)


# ---------------------------------------------------------------------------
# eval


def _load_summary_ids(path) -> list[str]:
    """Ids from a JSON list of ids, or from an object's 'items' list."""
    doc = read_json(path)
    if isinstance(doc, dict):
        if "items" not in doc:
            raise FormatError(f"{path}: JSON object has no 'items' key")
        return list(id_list(doc["items"], f"{path}: 'items'"))
    return list(id_list(doc, f"{path}: summary"))


def cmd_eval(args) -> int:
    coll = load_collection(args.collection)
    ctx = _context_from_collection(coll, args)
    summary_ids = _load_summary_ids(args.summary)
    Y = _indices(ctx, summary_ids)
    if args.references is not None:
        refs_ids = id_lists(read_json(args.references), str(args.references))
    else:
        refs_ids = coll.references
    if not refs_ids:
        raise ConfigError("no reference summaries given (collection has none, --references missing)")
    refs = [_indices(ctx, r) for r in refs_ids]
    per_ref = [vrouge(Y, [r], ctx) for r in refs]
    report = {
        "summary": summary_ids,
        "vrouge": vrouge(Y, refs, ctx),
        "per_reference": per_ref,
    }
    return _write(args, {"report.json": report})


# ---------------------------------------------------------------------------
# synth


_STUDIES = {
    "generic": (Flavor.GENERIC, "gc:lam=0.5", None),
    "query": (Flavor.QUERY, "fl2:eta=0", None),
    "privacy": (Flavor.PRIVACY, "gc:lam=0.5", "nu=0,1,5,10"),
    "joint": (Flavor.QUERY_PRIVACY, "fl1", None),
}


def cmd_synth(args) -> int:
    flavor, default_fn, default_sweep = _STUDIES[args.study]
    fn = args.fn if args.fn is not None else default_fn
    spec = parse_fn_spec(fn)
    sweep_text = args.sweep if args.sweep is not None else default_sweep
    cfg = SyntheticConfig(seed=args.seed)
    ground, queries, privates = synth_generate(cfg)
    ctx = synth_context(cfg)
    gxy, qxy, pxy = ground.features, queries.features, privates.features
    Q, P = _indices(ctx, None, "query"), _indices(ctx, None, "private")

    if sweep_text is None:
        sweep = [(None, spec)]
    else:
        param, _, values = sweep_text.partition("=")
        param = param.strip()
        if param not in ("lam", "eta", "nu"):
            raise ConfigError(f"--sweep parameter must be lam, eta, or nu, got {param!r}")
        # each value read by the spec's own rule, as model.json's would be
        sweep = [(param, FunctionSpec.from_json({**spec.to_json(), param: v}))
                 for v in values.split(",") if v.strip()]
        if not sweep:
            raise ConfigError("--sweep needs at least one value")
        shown = [f"{getattr(s, param):g}" for _, s in sweep]  # the plot files' names
        if len(set(shown)) < len(shown):
            raise ConfigError(f"--sweep values name their plot files, so must print apart: {param}={','.join(shown)}")

    outputs, runs = {}, []
    for param, run_spec in sweep:
        value = None if param is None else getattr(run_spec, param)
        sel = master_solve(flavor, run_spec, ctx, args.budget, Q=Q, P=P)
        rep = behavior_metrics(sel, gxy, qxy, pxy, delta=args.delta)
        tag = "" if param is None else f"_{param}_{value:g}"
        outputs[f"plot{tag}.csv"] = plot_csv(gxy, sel, qxy, pxy)
        entry = {"selection": sel.to_json(), "behavior": rep.to_json()}
        if param is not None:
            entry[param] = value
        runs.append(entry)
    outputs["report.json"] = {"study": args.study, "flavor": flavor.value, "fn": fn, "runs": runs}
    return _write(args, outputs, fn=fn, sweep=sweep_text)


# ---------------------------------------------------------------------------
# check


# every closed form beyond f itself, checked against the definitional oracle
_CHECK_FORMS = [(family, mode) for family in Family for mode in MeasureMode
                if mode is not MeasureMode.BASE and mode in modes_supported(family)]


def _check_closed_forms(seed: int, trials: int = 25, tol: float = 1e-8) -> list[str]:
    """Each trial checks auxiliary Q and P, and again Q and P that each also
    hold a ground item where the family accepts them."""
    failures = []
    rng = np.random.default_rng(seed)
    for family, mode in _CHECK_FORMS:
        metric = "cosine" if family in (Family.GRAPH_CUT, Family.LOG_DET) else "rbf"
        before = len(failures)
        for t in range(trials):
            ctx, Q, P = random_instance(rng, metric=metric)
            hi = 1.0 if family is Family.LOG_DET else 2.0
            spec = FunctionSpec(family, lam=float(rng.uniform(0.1, 1.0)),
                                eta=float(rng.uniform(0.0, hi)),
                                nu=float(rng.uniform(0.0, hi)))
            size = int(rng.integers(1, ctx.n_ground + 1))
            draws = {"": (tuple(sorted(rng.choice(ctx.n_ground, size=size, replace=False).tolist())), Q, P)}
            if not REGISTRY[family].AUX_ONLY:
                draws[" with ground members"] = with_ground_members(rng, ctx, Q, P)
            for label, sets in draws.items():
                got = evaluate(spec, mode, ctx, *sets)
                want = definitional_oracle(spec, mode, ctx, *sets)
                rel = abs(got - want) / max(1.0, abs(got), abs(want))
                if rel > tol:
                    failures.append(f"{family.value} {mode.value}{label}: rel {rel:.2e} at trial {t}")
            if len(failures) > before:
                break
    return failures


def _check_gradients(seed: int, tol: float = 1e-3) -> list[str]:
    failures = []
    fams = ["sc", "gc", "fl1", "fl2", "logdet", "com"]
    for t in range(3):
        ctx, refs, Q = make_collection(seed + t)
        ex = TrainingExample(ctx, refs, budget=4, Q=Q)
        base = init_mixture(fams, seed=seed + t)
        # shift weights off zero so every component contributes to the loss
        model = MixtureModel(base.components, base.weights + 0.1,
                             reg_strength=base.reg_strength)
        err = finite_diff_check(model, ex)
        if not err <= tol:  # a NaN gap fails
            failures.append(f"collection {t}: finite-difference gap {err:.2e}")
    return failures


def cmd_check(args) -> int:
    if not args.oracle:
        raise ConfigError("nothing selected; pass --oracle to run the self-check suites")
    suites = [
        ("closed-forms-vs-definitional", _check_closed_forms),
        ("gradients-vs-finite-difference", _check_gradients),
    ]
    failed = 0
    for name, fn in suites:
        failures = fn(args.seed)
        if failures:
            failed += 1
            print(f"FAIL {name}")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """--seed: a nonnegative int, as numpy's generators take it; anything
    else is a ConfigError, read before any output is written."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise ConfigError(f"--seed must be a nonnegative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (a value it cannot convert, an unknown or a
    missing option) raise ConfigError, so main prints them on one line and
    returns 2; its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _add_kernel_flags(p) -> None:
    p.add_argument("--metric", default="cosine", choices=("cosine", "dot", "rbf"),
                   help="similarity metric for the kernel")
    p.add_argument("--sigma", type=float, default=1.0, help="rbf bandwidth")
    p.add_argument("--jitter", type=float, default=1e-6, help="diagonal boost for factorizations")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="submodsum",
        description="Summarization via submodular information measures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="select a budget-k summary under a flavor")
    p.add_argument("--collection", required=True)
    p.add_argument("--flavor", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--fn", required=True, help="function spec family[:key=value,...], keys lam, "
                   "eta, nu, psi and com_weights=a|b as in model.json, e.g. fl1:eta=0.5,nu=2")
    p.add_argument("--query", help="query item ids or concept names (comma separated)")
    p.add_argument("--private", help="private item ids (comma separated)")
    p.add_argument("--prev", help="previous summary ground ids (comma separated)")
    p.add_argument("--stop-on-nonpositive", action="store_true")
    p.add_argument("--out", default=".")
    _add_kernel_flags(p)
    p.set_defaults(fn_cmd=cmd_summarize)

    p = sub.add_parser("learn", help="train a mixture on a directory of collections")
    p.add_argument("--train-dir", required=True)
    p.add_argument("--task", default="query")
    p.add_argument("--components", default="sc,gc,fl1,fl2")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--margin", default="one_minus_vrouge")
    p.add_argument("--reg", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=".")
    _add_kernel_flags(p)
    p.set_defaults(fn_cmd=cmd_learn)

    p = sub.add_parser("eval", help="score a summary against references (V-ROUGE)")
    p.add_argument("--collection", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--references", help="JSON file with a list of reference id lists")
    p.add_argument("--out", default=".")
    _add_kernel_flags(p)
    p.set_defaults(fn_cmd=cmd_eval)

    p = sub.add_parser("synth", help="seeded synthetic behavior study")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--study", required=True, choices=sorted(_STUDIES))
    p.add_argument("--fn", help="override the study's default function spec")
    p.add_argument("--sweep", help="parameter sweep, e.g. nu=0,1,5,10")
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out", default=".")
    p.set_defaults(fn_cmd=cmd_synth)

    p = sub.add_parser("check", help="run self-verification suites")
    p.add_argument("--oracle", action="store_true",
                   help="verify closed forms and gradients against definitional oracles")
    p.add_argument("--seed", type=_seed, default=11)
    p.set_defaults(fn_cmd=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # a numpy overflow, NaN or division by zero raises instead of warning,
        # and so does the library's UserWarning: no warning reaches stderr
        with np.errstate(over="raise", invalid="raise", divide="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            args = parser.parse_args(argv)
            if [] in vars(args).values():  # what argparse leaves for an option value of '--'
                raise ConfigError("an option got '--' for its value")
            return args.fn_cmd(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numeric error: non-finite arithmetic: {exc}", file=sys.stderr)
        return 3
    except (SubmodsumError, UserWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
