"""Outside-in tracer: spans around the package's layer boundaries.

The package has no tracing of its own, so the benchmark wraps the public
functions of each layer where they are looked up.  A name bound with
``from .x import y`` is a second reference to the same function object;
``Tracer.patch_function`` therefore replaces every module-level alias of
the original across the loaded ``submodsum`` modules, not only the
defining one.  Methods, classmethods and properties are wrapped on their
class.

Coarse layers record a span (id, parent, op, name, start, end).  The hot
leaves (marginal-state ``gain``/``add`` and ``vrouge``) are only counted
and timed in aggregate; their time still counts as child time of the
enclosing span, so self times stay exact.  Spans stay in memory until
``write_spans`` at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"  # "setup" or "op": which totals a span lands in
        self.op = None
        self.stack: list[list] = []  # open frames: [name, id, child_s, extra]
        self.spans: list[tuple] = []
        # (phase, name) -> [calls, inclusive_s, self_s]
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, name) -> summed numbers recorded by on_exit hooks
        self.counts: dict = defaultdict(float)
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- frames ------------------------------------------------------------

    def _open(self, name: str, extra=None) -> list:
        frame = [name, self._next_id, 0.0, extra]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        name, span_id, child_s, _ = frame
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        tot = self.totals[(self.phase, name)]
        tot[0] += 1
        tot[2] += dur - child_s
        # a recursive call is already inside its outer call's inclusive time
        if not any(f[0] == name for f in self.stack):
            tot[1] += dur
        self.spans.append((span_id, None if parent is None else parent[1],
                           self.op, name, t0, t1))

    def leaf(self, name: str, dur: float) -> None:
        """Aggregate-only timing for calls too frequent to keep as spans."""
        tot = self.totals[(self.phase, name)]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def add_count(self, name: str, value: float) -> None:
        """Add to a named figure (bytes, picks, ...) of the current phase."""
        self.counts[(self.phase, name)] += value

    def find_frame(self, name: str):
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame
        return None

    def operation(self, phase: str, op_id):
        """Context manager for one setup or one operation: the root span."""
        return _Root(self, phase, op_id)

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, on_exit=None, extra=None):
        """Wrap fn in a span; on_exit(frame, args, kwargs, result) runs after
        the span closes, still inside the parent."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name, None if extra is None else extra(args, kwargs))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, t0, perf_counter())
            if on_exit is not None:
                on_exit(frame, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(name, perf_counter() - t0)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, wrap) -> int:
        """Replace module.attr and every alias of it in the loaded package
        modules with wrap(original); returns the number of bindings patched."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        root = module.__name__.split(".")[0]
        patched = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == root or modname.startswith(root + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))
                    patched += 1
        return patched

    def patch_method(self, cls, attr: str, wrap) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        elif isinstance(raw, property):
            new = property(wrap(raw.fget))
        else:
            new = wrap(raw)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def fired(self, phase: str, name: str) -> bool:
        return self.totals.get((phase, name), (0,))[0] > 0

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, phase: str, op_id):
        self.tracer = tracer
        self.phase = phase
        self.op_id = op_id

    def __enter__(self):
        tr = self.tracer
        self.frame = None
        if tr.active:
            tr.phase, tr.op = self.phase, self.op_id
            self.frame = tr._open("op")
            self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer._close(self.frame, self.t0, perf_counter())
        return False


class CountingState:
    """Proxy around a marginal state that times and counts gain/add calls.

    Attribute reads other than gain/add pass through, so the greedy loop
    and the learner see the wrapped state's value and bookkeeping.  A state
    lives inside one operation, so the totals it feeds are looked up once."""

    __slots__ = ("_state", "_stack", "_gain", "_family", "_add", "calls")

    def __init__(self, state, tracer: Tracer, family: str):
        self._state = state
        self._stack = tracer.stack
        self._gain = tracer.totals[(tracer.phase, "functions.gain")]
        self._family = tracer.totals[(tracer.phase, "functions.gain." + family)]
        self._add = tracer.totals[(tracer.phase, "functions.add")]
        self.calls = 0

    def gain(self, j):
        t0 = perf_counter()
        g = self._state.gain(j)
        dur = perf_counter() - t0
        self.calls += 1
        for tot in (self._gain, self._family):
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return g

    def add(self, j):
        t0 = perf_counter()
        g = self._state.add(j)
        dur = perf_counter() - t0
        tot = self._add
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return g

    def __getattr__(self, name):
        return getattr(self._state, name)
