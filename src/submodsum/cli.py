"""Command-line front end.

Subcommands: summarize (any flavor over a JSON collection), learn
(max-margin mixture training over a directory of collections), eval
(V-ROUGE of a summary against references), synth (seeded 2-D behavior
studies with CSV plot data), and check (closed-form and gradient
self-verification).  Exit codes: 0 success, 1 failed check, 2
configuration or format error, 3 numeric failure.

Every subcommand writes a manifest.json (resolved config echo plus the
library version) next to its outputs; outputs contain no timestamps, so
the same seed and config give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    SyntheticConfig,
    behavior_metrics,
    make_collection,
    random_instance,
    synth_context,
    synth_generate,
    vrouge,
    write_plot_csv,
)
from .data import AuxiliarySet, ItemRecord, id_list, id_lists, load_collection, read_json, write_json
from .errors import ConfigError, FormatError, NumericError, SubmodsumError
from .functions import (
    EvalContext,
    Family,
    FunctionSpec,
    MeasureMode,
    definitional_oracle,
    evaluate,
    modes_supported,
    parse_family,
)
from .learning import (
    MixtureModel,
    TrainConfig,
    TrainingExample,
    finite_diff_check,
    init_mixture,
    train,
    write_training_log,
)
from .optimize import FLAVOR_TABLE, Flavor, master_solve, parse_flavor

# what to pass when a flavor's conditioning set (see FLAVOR_TABLE) is missing
_COND_HINT = {"private": "--private or collection privates",
              "previous": "--prev with previous summary items"}


# ---------------------------------------------------------------------------
# shared plumbing


def parse_fn_spec(text: str) -> FunctionSpec:
    """Parse 'family[:key=value,...]', e.g. 'fl1:eta=0.5,nu=2'."""
    head, _, tail = text.partition(":")
    spec = FunctionSpec(parse_family(head.strip()))
    if not tail:
        return spec
    updates: dict = {}
    for part in tail.split(","):
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"malformed function parameter {part!r}; expected key=value")
        if key in ("lam", "eta", "nu"):
            updates[key] = _number(key, val)
        elif key == "psi":
            updates[key] = val.strip()
        elif key == "com_weights":
            updates[key] = tuple(_number(key, v) for v in val.split("|"))
        else:
            raise ConfigError(f"unknown function parameter {key!r}")
    return replace(spec, **updates)


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"function parameter {key!r} needs a number, got {text!r}") from None


def _manifest(outdir: Path, command: str, config: dict) -> None:
    write_json(outdir / "manifest.json", {
        "command": command,
        "config": config,
        "version": __version__,
    })


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _context_from_collection(coll, args, aux=None):
    return EvalContext.build(
        coll.ground,
        coll.aux_sets if aux is None else aux,
        metric=args.metric,
        sigma=args.sigma,
        jitter=args.jitter,
        universe=coll.universe,
    )


def _aux_indices(ctx, role: str, restrict_ids=None) -> list[int]:
    idx = list(ctx.role_indices.get(role, ()))
    if restrict_ids is None:
        return idx
    wanted = []
    by_id = {ctx.ids[i]: i for i in idx}
    for token in restrict_ids:
        if token not in by_id:
            raise ConfigError(f"no {role} item with id {token!r} in the collection")
        wanted.append(by_id[token])
    return wanted


def _ground_indices(coll, ids) -> list[int]:
    try:
        return [coll.ground.index_of(token) for token in ids]
    except LookupError:
        unknown = next(token for token in ids if token not in coll.ground.ids)
        raise ConfigError(f"item {unknown!r} is not in the ground set") from None


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
        # not item ids: treat the tokens as concept names and build a query item
        universe = set(coll.ground.counts.names)
        unknown = [t for t in query_tokens if t not in universe]
        if unknown:
            raise ConfigError(
                f"--query tokens {unknown} match neither query item ids nor concepts"
            )
        synthesized = ItemRecord("query:" + ",".join(query_tokens),
                                 concepts={t: 1 for t in query_tokens})
        # right after the collection's queries, as one more of them
        aux = [coll.queries, AuxiliarySet([synthesized], "query"), coll.privates]
        query_tokens = [synthesized.id]
    ctx = _context_from_collection(coll, args, aux)
    flavor = parse_flavor(args.flavor)
    Q = _aux_indices(ctx, "query", query_tokens)
    P = _aux_indices(ctx, "private", _split_csv(args.private))
    prev = _ground_indices(coll, _split_csv(args.prev) or [])

    _, wants_q, cond_source = FLAVOR_TABLE[flavor]
    if wants_q and not Q:
        raise ConfigError(f"flavor {flavor.value} needs --query or collection queries")
    if cond_source and not {"private": P, "previous": prev}[cond_source]:
        raise ConfigError(f"flavor {flavor.value} needs {_COND_HINT[cond_source]}")

    spec = parse_fn_spec(args.fn)
    sel = master_solve(flavor, spec, ctx, args.budget, Q=Q, P=P, previous=prev,
                       stop_on_nonpositive=args.stop_on_nonpositive)
    out = _outdir(args)
    write_json(out / "selection.json", sel.to_json())
    _manifest(out, "summarize", {
        "collection": str(args.collection),
        "flavor": flavor.value,
        "budget": args.budget,
        "fn": args.fn,
        "query": args.query,
        "private": args.private,
        "prev": args.prev,
        "metric": args.metric,
        "sigma": args.sigma,
        "jitter": args.jitter,
        "stop_on_nonpositive": bool(args.stop_on_nonpositive),
    })
    return 0


# ---------------------------------------------------------------------------
# learn


def _example_from_collection(coll, ctx, budget: int) -> TrainingExample:
    refs = [tuple(_ground_indices(coll, ref)) for ref in coll.references]
    return TrainingExample(
        ctx,
        refs,
        budget,
        Q=tuple(ctx.role_indices.get("query", ())),
        P=tuple(ctx.role_indices.get("private", ())),
    )


def cmd_learn(args) -> int:
    train_dir = Path(args.train_dir)
    paths = sorted(train_dir.glob("*.json"))
    if not paths:
        raise ConfigError(f"no collection files found in {train_dir}")
    examples = []
    for path in paths:
        coll = load_collection(path)
        if not coll.references:
            raise ConfigError(f"collection {path.name} has no reference summaries")
        ctx = _context_from_collection(coll, args)
        examples.append(_example_from_collection(coll, ctx, args.budget))
    families = _split_csv(args.components)
    model0 = init_mixture(families, seed=args.seed, reg_strength=args.reg)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, momentum=args.momentum,
                      margin=args.margin, task=parse_flavor(args.task))
    model = train(examples, model0, cfg)
    out = _outdir(args)
    model.save(out / "model.json")
    write_training_log(out / "training_log.csv", model)
    _manifest(out, "learn", {
        "train_dir": str(train_dir),
        "task": cfg.task.value,
        "components": families,
        "budget": args.budget,
        "epochs": args.epochs,
        "lr": args.lr,
        "momentum": args.momentum,
        "margin": args.margin,
        "reg": args.reg,
        "seed": args.seed,
        "metric": args.metric,
        "sigma": args.sigma,
        "jitter": args.jitter,
    })
    return 0


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
    Y = _ground_indices(coll, summary_ids)
    if args.references is not None:
        refs_ids = id_lists(read_json(args.references), str(args.references))
    else:
        refs_ids = coll.references
    if not refs_ids:
        raise ConfigError("no reference summaries given (collection has none, --references missing)")
    refs = [_ground_indices(coll, r) for r in refs_ids]
    per_ref = [vrouge(Y, [r], ctx) for r in refs]
    report = {
        "summary": summary_ids,
        "vrouge": vrouge(Y, refs, ctx),
        "per_reference": per_ref,
    }
    out = _outdir(args)
    write_json(out / "report.json", report)
    _manifest(out, "eval", {
        "collection": str(args.collection),
        "summary": str(args.summary),
        "references": None if args.references is None else str(args.references),
        "metric": args.metric,
        "sigma": args.sigma,
        "jitter": args.jitter,
    })
    return 0


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
    spec = parse_fn_spec(args.fn if args.fn is not None else default_fn)
    sweep_text = args.sweep if args.sweep is not None else default_sweep
    cfg = SyntheticConfig(seed=args.seed)
    ground, queries, privates = synth_generate(cfg)
    ctx = synth_context(cfg)
    gxy, qxy, pxy = ground.features, queries.features, privates.features
    Q = list(ctx.role_indices.get("query", ()))
    P = list(ctx.role_indices.get("private", ()))

    runs = []
    if sweep_text is None:
        sweep = [(None, None)]
    else:
        param, _, values = sweep_text.partition("=")
        param = param.strip()
        if param not in ("lam", "eta", "nu"):
            raise ConfigError(f"--sweep parameter must be lam, eta, or nu, got {param!r}")
        sweep = [(param, float(v)) for v in values.split(",") if v.strip()]
        if not sweep:
            raise ConfigError("--sweep needs at least one value")

    out = _outdir(args)
    for param, value in sweep:
        run_spec = spec if param is None else replace(spec, **{param: value})
        sel = master_solve(flavor, run_spec, ctx, args.budget, Q=Q, P=P)
        rep = behavior_metrics(sel, gxy, qxy, pxy, delta=args.delta)
        tag = "" if param is None else f"_{param}_{value:g}"
        write_plot_csv(out / f"plot{tag}.csv", gxy, sel, qxy, pxy)
        entry = {"selection": sel.to_json(), "behavior": rep.to_json()}
        if param is not None:
            entry[param] = value
        runs.append(entry)
    write_json(out / "report.json", {"study": args.study, "flavor": flavor.value,
                                     "fn": args.fn or default_fn, "runs": runs})
    _manifest(out, "synth", {
        "seed": args.seed,
        "study": args.study,
        "fn": args.fn or default_fn,
        "sweep": sweep_text,
        "budget": args.budget,
        "delta": args.delta,
    })
    return 0


# ---------------------------------------------------------------------------
# check


# every closed form beyond f itself, checked against the definitional oracle
_CHECK_FORMS = [(family, mode) for family in Family for mode in MeasureMode
                if mode is not MeasureMode.BASE and mode in modes_supported(family)]


def _check_closed_forms(seed: int, trials: int = 25, tol: float = 1e-8) -> list[str]:
    failures = []
    rng = np.random.default_rng(seed)
    for family, mode in _CHECK_FORMS:
        metric = "cosine" if family in (Family.GRAPH_CUT, Family.LOG_DET) else "rbf"
        for t in range(trials):
            ctx, Q, P = random_instance(rng, metric=metric)
            hi = 1.0 if family is Family.LOG_DET else 2.0
            spec = FunctionSpec(family, lam=float(rng.uniform(0.1, 1.0)),
                                eta=float(rng.uniform(0.0, hi)),
                                nu=float(rng.uniform(0.0, hi)))
            size = int(rng.integers(1, ctx.n_ground + 1))
            A = tuple(sorted(rng.choice(ctx.n_ground, size=size, replace=False).tolist()))
            got = evaluate(spec, mode, ctx, A, Q, P)
            want = definitional_oracle(spec, mode, ctx, A, Q, P)
            rel = abs(got - want) / max(1.0, abs(got), abs(want))
            if rel > tol:
                failures.append(f"{family.value} {mode.value}: rel {rel:.2e} at trial {t}")
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
        if err > tol:
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


def _add_kernel_flags(p) -> None:
    p.add_argument("--metric", default="cosine", choices=("cosine", "dot", "rbf"),
                   help="similarity metric for the kernel")
    p.add_argument("--sigma", type=float, default=1.0, help="rbf bandwidth")
    p.add_argument("--jitter", type=float, default=1e-6, help="diagonal boost for factorizations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submodsum",
        description="Summarization via submodular information measures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="select a budget-k summary under a flavor")
    p.add_argument("--collection", required=True)
    p.add_argument("--flavor", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--fn", required=True, help="function spec, e.g. fl1:eta=0.5,nu=2")
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=7)
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
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(fn_cmd=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn_cmd(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except SubmodsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
