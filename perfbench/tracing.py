"""Span tracing for the traced benchmark run, applied from outside the program.

`Tracer` wraps the public functions of each hyperforge module and
`install()` rebinds every name under which a wrapped function is bound in
any loaded ``hyperforge`` module namespace.  `certificate`, `moves` and
`classifier` import names such as `components`, `validate` and
`diagram_isomorphic` directly, so patching only the defining module would
miss those calls.  `DiagramBuilder.build` is patched on the class.  The
bindings are found once, so `install()` and `uninstall()` are cheap enough
to switch tracing on and off between items.

Spans are kept in memory as (id, name, start, end, parent id, thread, size,
ok) and written out when the run ends.  A span's parent is the innermost
traced call open in the same thread; spans started in a worker thread (the
`verify --jobs` pool) are roots, and the wait for them stays in the self
time of the `cli.run` span that started the pool.

Self time is a span's duration minus the time covered by its child spans.
Diagrams analyse themselves lazily (`LinkDiagram._analysis`), so that cost
lands in the self time of whichever traced function first touches a new
diagram.

`RepeatCounter` wraps `menasco_certify` alone and counts the calls whose
input was certified before, over every call made while it is installed.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import sys
import threading
import time

# (layer, function) of every traced function, in report order; each layer is
# the hyperforge module of that name.
TRACED = (
    ("diagram", "parse_pd"),
    ("diagram", "format_pd"),
    ("diagram", "validate"),
    ("diagram", "components"),
    ("diagram", "two_edge_cuts"),
    ("diagram", "nugatory_crossings"),
    ("diagram", "is_alternating"),
    ("diagram", "reduce_diagram"),
    ("diagram", "two_braid_status"),
    ("diagram", "diagram_isomorphic"),
    ("diagram", "builder_build"),
    ("tangle", "fraction"),
    ("tangle", "to_alternating_diagram"),
    ("moves", "find_chain_sites"),
    ("moves", "chain_move"),
    ("moves", "augmented_chain_move"),
    ("moves", "switch_move"),
    ("moves", "half_twist"),
    ("classifier", "menasco_certify"),
    ("classifier", "augmented_alternating_certify"),
    ("classifier", "excluded_exterior"),
    ("certificate", "extend"),
    ("certificate", "verify"),
    ("certificate", "serialize"),
    ("certificate", "deserialize"),
    ("generators", "chain_link"),
    ("generators", "rational_link"),
    ("generators", "tk_closure"),
    ("cli", "run"),
)
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attr in TRACED)
MOVES = ("moves.chain_move", "moves.augmented_chain_move", "moves.switch_move",
         "moves.half_twist")
CHAIN_MOVES = ("moves.chain_move", "moves.augmented_chain_move")


def _crossing_count(args, kwargs):
    return len(args[0].crossings)


def _step_count(args, kwargs):
    return len(args[0].steps)


# Per-call size recorded for the growth-order fits.
SIZE_OF = {
    "diagram.two_edge_cuts": _crossing_count,
    "classifier.menasco_certify": _crossing_count,
    "certificate.verify": _step_count,
}


def _bindings(wrappers):
    """(namespace, name, original, wrapper) for every name under which a
    loaded hyperforge module binds a function of `wrappers`, a dict from
    id(original) to (original, wrapper)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hyperforge" and not mod_name.startswith("hyperforge."):
            continue
        for attr, value in vars(mod).items():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                found.append((mod, attr, value, hit[1]))
    return found


class _Patch:
    """A set of bindings that can be switched between wrapper and original."""

    _bindings: list

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "size",
                 "ok", "child_time", "result_valid")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.size = None
        self.ok = False
        self.child_time = 0.0
        self.result_valid = None
        self.start = self.end = 0.0

    @property
    def self_time(self):
        return (self.end - self.start) - self.child_time


class Tracer(_Patch):
    """Wraps hyperforge's public functions and records a span per call.

    Make it after hyperforge is imported; it is not installed until
    `install()` is called.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._bindings = []
        wrappers = {}
        for layer, attr in TRACED:
            mod = sys.modules[f"hyperforge.{layer}"]
            name = f"{layer}.{attr}"
            if attr == "builder_build":
                cls = mod.DiagramBuilder
                self._bindings.append((cls, "build", cls.build, self._wrap(name, cls.build)))
                continue
            original = getattr(mod, attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        self._bindings += _bindings(wrappers)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), name, parent.id if parent else None,
                        threading.get_ident())
            if size_of is not None:
                span.size = size_of(args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
                if name == "certificate.verify":
                    span.result_valid = bool(result.valid)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                tracer.spans.append(span)

        return traced

    def write(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "size": s.size,
                    "ok": s.ok,
                }) + "\n")


class RepeatCounter(_Patch):
    """Counts `menasco_certify` calls whose input diagram was certified
    earlier while the counter was installed.  Make it after hyperforge is
    imported."""

    def __init__(self):
        self.calls = self.repeats = 0
        self._seen = set()
        self._lock = threading.Lock()  # `verify --jobs` calls it from threads
        original = sys.modules["hyperforge.classifier"].menasco_certify

        @functools.wraps(original)
        def counted(d, *args, **kwargs):
            key = (d.crossings, d.loops)  # format_pd is a function of exactly these
            with self._lock:
                self.calls += 1
                self.repeats += key in self._seen
                self._seen.add(key)
            return original(d, *args, **kwargs)

        self._bindings = _bindings({id(original): (original, counted)})

    @property
    def share(self):
        return self.repeats / self.calls if self.calls else 0.0


def _slope(points):
    """Least-squares slope of log(time) against log(size); 0.0 when undefined."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_metrics(spans, items, repeat_share):
    """Per-item per-layer metrics from the spans of `items` traced items;
    `repeat_share` is `RepeatCounter.share`, passed through."""
    by_id = {s.id: s for s in spans}

    def has_ancestor(span, names):
        pid = span.parent
        while pid is not None:
            p = by_id.get(pid)
            if p is None:
                return False
            if p.name in names:
                return True
            pid = p.parent
        return False

    out = {}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_time
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / items
        out[f"{name}.self_ms"] = self_s[name] * 1e3 / items

    moves_ok = sum(1 for s in spans if s.name in MOVES and s.ok)
    builds_in_moves = sum(
        1 for s in spans if s.name == "diagram.builder_build" and has_ancestor(s, MOVES)
    )
    out["moves.builds_per_move"] = builds_in_moves / moves_ok if moves_ok else 0.0

    verify = ("certificate.verify",)
    scans = sum(
        1 for s in spans if s.name == "moves.find_chain_sites" and has_ancestor(s, verify)
    )
    chain_steps = sum(
        1 for s in spans if s.name in CHAIN_MOVES and has_ancestor(s, verify)
    )
    out["certificate.site_scans_per_chain_step"] = scans / chain_steps if chain_steps else 0.0

    out["classifier.repeat_share"] = repeat_share

    out["diagram.two_edge_cuts.slope"] = _slope(
        (s.size, s.end - s.start) for s in spans if s.name == "diagram.two_edge_cuts"
    )
    out["classifier.menasco_certify.slope"] = _slope(
        (s.size, s.end - s.start) for s in spans if s.name == "classifier.menasco_certify"
    )
    out["certificate.verify.slope"] = _slope(
        (s.size, s.end - s.start) for s in spans
        if s.name == "certificate.verify" and s.result_valid
    )
    return out
