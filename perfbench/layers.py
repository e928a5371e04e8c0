"""Which package functions are traced, and the per-layer metrics built from them.

Layer names follow the package's modules: cli, data, functions.context,
functions (the measure families), optimize, learning and bench (vrouge).
Time metrics are seconds per operation; on a workload where a layer runs
only while setting up (data and context on scan-logdet and learn), the
figure is per set-up instead.  Counts are per operation as well.
"""

from __future__ import annotations

from tracer import CountingState, Tracer

FAMILY_SHORT = {
    "set_cover": "sc",
    "prob_set_cover": "psc",
    "graph_cut": "gc",
    "facility_location_1": "fl1",
    "facility_location_2": "fl2",
    "log_det": "logdet",
    "concave_over_modular": "com",
    "rouge": "rouge",
    "disparity_sum": "dsum",
    "disparity_min": "dmin",
}
GAIN_FAMILIES = ("sc", "psc", "gc", "fl1", "fl2", "logdet", "com", "rouge")

_DATA_CONTEXT = ("data.load_collection", "data.build_kernel",
                 "data.check_positive_definite", "context.build")
_SOLVE = ("optimize.greedy_maximize", "functions.make_state",
          "functions.gain", "functions.add")
_LEARN = ("learning.loss_augmented_inference", "learning.gradients",
          "learning.mixture_eval", "learning._mean_vrouge",
          "functions.evaluate", "functions.partials", "bench.vrouge")

# Spans (and per-family gain counters) that must fire on each workload, by
# phase, and spans that must stay out of its operations.
REQUIRED = {
    "cli-summarize": {
        "op": ("cli.cmd_summarize", *_DATA_CONTEXT, "optimize.master_solve", *_SOLVE,
               *(f"functions.gain.{f}" for f in GAIN_FAMILIES)),
    },
    "scan-logdet": {
        "setup": _DATA_CONTEXT,
        "op": ("optimize.master_solve", *_SOLVE, "functions.gain.logdet"),
    },
    "learn": {
        "setup": _DATA_CONTEXT,
        "op": (*_SOLVE, *_LEARN,
               *(f"functions.gain.{f}" for f in ("sc", "gc", "fl1", "fl2", "logdet", "com"))),
    },
}
ABSENT_FROM_OPS = {
    "cli-summarize": _LEARN[:4] + ("bench.vrouge",),
    "scan-logdet": _DATA_CONTEXT + _LEARN[:4] + ("bench.vrouge",),
    "learn": _DATA_CONTEXT,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary, aliases included."""
    from submodsum import cli, data, learning, optimize
    from submodsum.functions import api, context
    from submodsum import bench

    def span(name, **kw):
        return lambda fn: tracer.span(name, fn, **kw)

    tracer.patch_function(cli, "cmd_summarize", span("cli.cmd_summarize"))
    tracer.patch_function(data, "load_collection", span("data.load_collection"))
    tracer.patch_function(data, "build_kernel", span(
        "data.build_kernel",
        on_exit=lambda f, a, k, kern: tracer.add_count("data.kernel_bytes", kern.matrix.nbytes)))
    tracer.patch_method(data.SimilarityKernel, "check_positive_definite",
                        span("data.check_positive_definite"))
    tracer.patch_method(context.EvalContext, "build", span("context.build"))
    tracer.patch_function(optimize, "master_solve", span("optimize.master_solve"))
    tracer.patch_function(optimize, "greedy_maximize", span(
        "optimize.greedy_maximize", extra=_greedy_info, on_exit=_greedy_done(tracer)))
    tracer.patch_function(api, "make_state", _make_state(tracer))
    for cls in (optimize.MeasureObjective, optimize.CompositeObjective):
        tracer.patch_method(cls, "lazy_safe", _lazy_safe(tracer))
    tracer.patch_function(api, "evaluate", span("functions.evaluate"))
    tracer.patch_function(api, "partials", span("functions.partials"))
    for name in ("loss_augmented_inference", "gradients", "mixture_eval", "_mean_vrouge"):
        tracer.patch_function(learning, name, span(f"learning.{name}"))
    tracer.patch_function(bench, "vrouge", lambda fn: tracer.leaf_wrapper("bench.vrouge", fn))


def _greedy_info(args, kwargs) -> dict:
    lazy = kwargs.get("lazy", args[2] if len(args) > 2 else True)
    obj = args[0] if args else kwargs["obj"]
    return {"obj": obj, "lazy_arg": bool(lazy), "lazy_safe": None, "states": []}


def _greedy_done(tracer: Tracer):
    def on_exit(frame, args, kwargs, sel):
        info = frame[3]
        safe = info["lazy_safe"]
        if safe is None:
            safe = bool(getattr(info["obj"], "lazy_safe", True))
        tracer.add_count("optimize.greedy_calls", 1)
        tracer.add_count("optimize.lazy_calls", int(info["lazy_arg"] and safe))
        tracer.add_count("optimize.picks", len(sel.indices))
        # a composite asks every component for every candidate, so one
        # component's call count is the number of candidate evaluations
        tracer.add_count("optimize.candidate_evals",
                         info["states"][0].calls if info["states"] else 0)
    return on_exit


def _make_state(tracer: Tracer):
    def wrap(fn):
        timed = tracer.span("functions.make_state", fn)

        def traced(*args, **kwargs):
            state = timed(*args, **kwargs)
            if not tracer.active:
                return state
            spec = args[0] if args else kwargs["spec"]
            proxy = CountingState(state, tracer, FAMILY_SHORT.get(spec.family.value, "other"))
            greedy = tracer.find_frame("optimize.greedy_maximize")
            if greedy is not None:
                greedy[3]["states"].append(proxy)
            return proxy

        traced.__wrapped__ = fn
        return traced
    return wrap


def _lazy_safe(tracer: Tracer):
    def wrap(fget):
        def traced(self):
            value = fget(self)
            if tracer.active:
                greedy = tracer.find_frame("optimize.greedy_maximize")
                if greedy is not None and greedy[3]["obj"] is self:
                    greedy[3]["lazy_safe"] = bool(value)
            return value
        return traced
    return wrap


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    """Declared spans that never fired, and spans that fired where they must not."""
    problems = []
    for phase, names in REQUIRED[workload].items():
        for name in names:
            if not tracer.fired(phase, name):
                problems.append(f"span {name} never fired during {phase}")
    for name in ABSENT_FROM_OPS[workload]:
        if tracer.fired("op", name):
            problems.append(f"span {name} fired during operations")
    return problems


# name -> unit, in output order
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "data.load_s": "s",
    "data.kernel_s": "s",
    "data.pd_check_s": "s",
    "data.kernel_bytes": "bytes",
    "context.build_s": "s",
    "context.view_bytes": "bytes",
    "functions.state_init_s": "s",
    "functions.gain_calls": "count",
    "functions.gain_s": "s",
    "functions.gain_us": "us",
    **{f"functions.gain_s.{f}": "s" for f in GAIN_FAMILIES},
    "functions.add_s": "s",
    "functions.evaluate_s": "s",
    "functions.partials_s": "s",
    "optimize.greedy_s": "s",
    "optimize.self_s": "s",
    "optimize.picks": "count",
    "optimize.gains_per_pick": "ratio",
    "optimize.lazy_share": "ratio",
    "learning.lai_s": "s",
    "learning.gradients_s": "s",
    "learning.mixture_eval_s": "s",
    "learning.monitor_s": "s",
    "bench.vrouge_calls": "count",
    "bench.vrouge_s": "s",
    "trace.op_s_p50": "s",
}


def per_layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, view_bytes: float,
                      traced_p50: float) -> dict:
    """Every per-layer metric by name -> (value, unit)."""

    def phase_of(key) -> tuple[str, int]:
        if tracer.fired("op", key) or tracer.counts.get(("op", key), 0):
            return "op", n_ops
        return "setup", max(n_setups, 1)

    def tot(name, idx):
        phase, denom = phase_of(name)
        return tracer.totals.get((phase, name), (0, 0.0, 0.0))[idx] / denom

    def cnt(name):
        phase, denom = phase_of(name)
        return tracer.counts.get((phase, name), 0.0) / denom

    gain_calls = tot("functions.gain", 0)
    gain_s = tot("functions.gain", 1)
    greedy_calls = cnt("optimize.greedy_calls")
    picks = cnt("optimize.picks")
    kernel_builds = tot("data.build_kernel", 0)
    values = {
        "cli.self_s": tot("cli.cmd_summarize", 2),
        "data.load_s": tot("data.load_collection", 1),
        "data.kernel_s": tot("data.build_kernel", 1),
        "data.pd_check_s": tot("data.check_positive_definite", 1),
        "data.kernel_bytes": cnt("data.kernel_bytes") / kernel_builds if kernel_builds else 0.0,
        "context.build_s": tot("context.build", 2),
        "context.view_bytes": view_bytes,
        "functions.state_init_s": tot("functions.make_state", 1),
        "functions.gain_calls": gain_calls,
        "functions.gain_s": gain_s,
        "functions.gain_us": 1e6 * gain_s / gain_calls if gain_calls else 0.0,
        **{f"functions.gain_s.{f}": tot(f"functions.gain.{f}", 1) for f in GAIN_FAMILIES},
        "functions.add_s": tot("functions.add", 1),
        "functions.evaluate_s": tot("functions.evaluate", 1),
        "functions.partials_s": tot("functions.partials", 1),
        "optimize.greedy_s": tot("optimize.greedy_maximize", 1),
        "optimize.self_s": tot("optimize.greedy_maximize", 2),
        "optimize.picks": picks,
        "optimize.gains_per_pick": cnt("optimize.candidate_evals") / picks if picks else 0.0,
        "optimize.lazy_share": cnt("optimize.lazy_calls") / greedy_calls if greedy_calls else 0.0,
        "learning.lai_s": tot("learning.loss_augmented_inference", 1),
        "learning.gradients_s": tot("learning.gradients", 1),
        "learning.mixture_eval_s": tot("learning.mixture_eval", 1),
        "learning.monitor_s": tot("learning._mean_vrouge", 1),
        "bench.vrouge_calls": tot("bench.vrouge", 0),
        "bench.vrouge_s": tot("bench.vrouge", 1),
        "trace.op_s_p50": traced_p50,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


# the layers each workload is meant to stress, as named per-layer metrics
DOMINANT = {
    "cli-summarize": ("data.load_s", "data.kernel_s", "context.build_s"),
    "scan-logdet": ("functions.gain_s",),
    "learn": ("learning.lai_s",),
}


def dominant_shares(metrics: dict, workload: str, op_mean_s: float) -> dict:
    """Share of the mean traced operation time spent in each stressed layer."""
    shares = {name: metrics[name][0] / op_mean_s for name in DOMINANT[workload]}
    shares["total"] = sum(shares.values())
    return shares
