"""Spans around the library's public callables, and per-layer metrics computed from them.

`install` wraps every public function of every `cyclecert` module, plus a few
named methods, and rebinds each wrapped function wherever a module holds it
(so `pullback.hurwitz_class_number` and `certify.cover_profile` are traced
too).  Each call records a span (name, start, end, parent, op id) in memory.
A layer is the module a callable is defined in; a layer's self time is the
duration of its spans minus the time covered by their child spans.

Counters whose source a later version of the library no longer has (a
function, a method, a class, a `cache_info`) come out as None, never as an
error.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import time
from array import array

PACKAGE = "cyclecert"
ROOT = "bench.op"

# methods traced in addition to module-level functions: (module, class, method)
TRACED_METHODS = (
    ("newforms", "NewformClient", "fetch_newforms"),
    ("newforms", "NewformClient", "available_offline_levels"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder for one thread: parallel arrays plus a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float | None] = {}
        self.errors: dict[str, int] = {}
        self._last_exc: BaseException | None = None

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int, exc: BaseException | None = None) -> None:
        self.end[i] = self.clock()
        self._stack.pop()
        if exc is not None and exc is not self._last_exc:
            # counted once, at the innermost traced frame it left
            self._last_exc = exc
            key = "%s@%s" % (type(exc).__name__, layer_of(self.names[self.name_id[i]]))
            self.errors[key] = self.errors.get(key, 0) + 1

    def add_span(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        """Append an already finished span (e.g. one recorded by a child process)."""
        i = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return i

    def count(self, key: str, amount: float) -> None:
        if key in self.counters and self.counters[key] is None:
            return
        self.counters[key] = (self.counters.get(key) or 0) + amount

    def unavailable(self, key: str) -> None:
        self.counters[key] = None

    def spans(self):
        """Spans as (name, start, end, parent, op) tuples."""
        names = self.names
        for nid, s, e, p, o in zip(self.name_id, self.start, self.end, self.parent, self.op):
            yield names[nid], s, e, p, o

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, s, e, p, o) in enumerate(self.spans()):
                fh.write('{"id":%d,"op":%d,"name":"%s","start":%.9f,"end":%.9f,"parent":%s}\n'
                         % (i, o, name, s, e, "null" if p < 0 else p))


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the durations of its direct children.

    The three sequences describe span i by start[i], end[i] and parent[i], the
    index of the enclosing span or -1.  Children of one span do not overlap
    (one thread), so the time they cover is the sum of their durations.
    """
    out = [e - s for s, e in zip(start, end)]
    for s, e, p in zip(start, end, parent):
        if p >= 0:
            out[p] -= e - s
    return out


def _wrap(tracer: Tracer, fn, name: str, on_result=None):
    nid = tracer.intern(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            finish(i, exc)
            raise
        finish(i)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _hook(tracer: Tracer, key: str, measure):
    """Result hook adding measure(result) to a counter; None from measure disables it."""
    tracer.counters.setdefault(key, 0)

    def on_result(result):
        value = measure(result)
        if value is None:
            tracer.unavailable(key)
        else:
            tracer.count(key, value)

    return on_result


def _len_attr(attr):
    def measure(result):
        value = getattr(result, attr, None)
        return None if value is None else len(value)
    return measure


def _incomplete(cert):
    text = getattr(cert, "justification", None)
    return None if text is None else int("factorization incomplete" in text)


# counters filled from return values: traced name -> (counter, measure)
RESULT_COUNTERS = {
    "heegner.enumerate_heegner_divisor": ("heegner.classes_enumerated", _len_attr("classes")),
    "pullback.decompose_heegner": ("pullback.ladder_terms", _len_attr("terms")),
    "newforms.NewformClient.fetch_newforms": ("newforms.records_read", len),
    "certify.certify": ("certify.factorization_incomplete", _incomplete),
}

# lru-cached callables whose hit ratio is reported: traced name -> metric
CACHE_RATIOS = {
    "heegner.hurwitz_class_number": "heegner.hurwitz_hit_ratio",
    "modcurves.cover_profile": "modcurves.cover_profile_hit_ratio",
}


class Installation:
    """What `install` traced, so that metrics whose source is missing read None."""

    def __init__(self):
        self.layers: set[str] = set()
        self.traced: dict[str, object] = {}  # traced name -> original callable
        self._cache_start: dict[str, tuple[int, int]] = {}

    def cache_snapshot(self) -> None:
        for name in CACHE_RATIOS:
            info = getattr(self.traced.get(name), "cache_info", None)
            if info is not None:
                ci = info()
                self._cache_start[name] = (ci.hits, ci.misses)

    def cache_deltas(self) -> dict[str, list[int] | None]:
        out: dict[str, list[int] | None] = {}
        for name in CACHE_RATIOS:
            info = getattr(self.traced.get(name), "cache_info", None)
            if info is None or name not in self._cache_start:
                out[name] = None
                continue
            ci = info()
            h0, m0 = self._cache_start[name]
            out[name] = [ci.hits - h0, ci.misses - m0]
        return out


def install(tracer: Tracer, package: str = PACKAGE) -> Installation:
    pkg = importlib.import_module(package)
    modules = [importlib.import_module("%s.%s" % (package, m.name))
               for m in pkgutil.iter_modules(pkg.__path__)]
    inst = Installation()
    wrappers: dict[int, tuple[object, object]] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        inst.layers.add(layer)
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            hook = None
            if name in RESULT_COUNTERS:
                hook = _hook(tracer, *RESULT_COUNTERS[name])
            wrappers[id(value)] = (value, _wrap(tracer, value, name, hook))
            inst.traced[name] = value
    # rebind every reference to a wrapped function, wherever a module holds it
    for mod in [pkg] + modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for modname, clsname, meth in TRACED_METHODS:
        cls = getattr(_module(package, modname), clsname, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if fn is None:
            continue
        name = "%s.%s.%s" % (modname, clsname, meth)
        hook = _hook(tracer, *RESULT_COUNTERS[name]) if name in RESULT_COUNTERS else None
        setattr(cls, meth, _wrap(tracer, fn, name, hook))
        inst.traced[name] = fn
    for name, (key, _) in RESULT_COUNTERS.items():
        if name not in inst.traced:
            tracer.unavailable(key)
    _count_divisor_classes(tracer, package)
    inst.cache_snapshot()
    return inst


def _module(package, name):
    try:
        return importlib.import_module("%s.%s" % (package, name))
    except ImportError:
        return None


def _count_divisor_classes(tracer: Tracer, package: str) -> None:
    key = "pullback.divisor_classes_built"
    cls = getattr(_module(package, "pullback"), "DivisorClass", None)
    init = getattr(cls, "__init__", None) if cls is not None else None
    if init is None or init is object.__init__:
        tracer.unavailable(key)
        return
    tracer.counters[key] = 0

    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        tracer.count(key, 1)
        init(self, *args, **kwargs)

    setattr(cls, "__init__", counted)


# -- aggregation -------------------------------------------------------------

# traced names whose individual durations are kept for metrics
KEPT_DURATIONS = (
    "heegner.enumerate_heegner_divisor",
    "pullback.decompose_heegner",
    "pullback.verify_decomposition",
)


def summarize(tracer: Tracer, inst: Installation | None) -> dict:
    """Aggregates of one traced process, mergeable with `merge`."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    self_by_layer: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {n: [] for n in KEPT_DURATIONS}
    for nid, s, e, st in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        name = names[nid]
        layer = layer_of(name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        if name in durations:
            durations[name].append(e - s)
    return {
        "spans": len(selfs),
        "self_s": self_by_layer,
        "calls": calls,
        "durations": durations,
        "counters": dict(tracer.counters),
        "errors": dict(tracer.errors),
        "cache": inst.cache_deltas() if inst else {},
        "layers": sorted(inst.layers) if inst else [],
        "traced": sorted(inst.traced) if inst else [],
    }


def merge(a: dict, b: dict) -> dict:
    """Combine two summaries; None (unavailable) wins over any number, absent is neutral."""
    out = {"spans": a["spans"] + b["spans"]}
    for key in ("self_s", "calls", "errors"):
        d = dict(a[key])
        for k, v in b[key].items():
            d[k] = d.get(k, 0) + v
        out[key] = d
    out["durations"] = {k: a["durations"].get(k, []) + b["durations"].get(k, [])
                        for k in set(a["durations"]) | set(b["durations"])}
    counters = dict(a["counters"])
    for k, v in b["counters"].items():
        counters[k] = None if v is None or counters.get(k, 0) is None else counters.get(k, 0) + v
    out["counters"] = counters
    cache = {}
    for k in set(a["cache"]) | set(b["cache"]):
        if k not in a["cache"] or k not in b["cache"]:
            cache[k] = a["cache"].get(k, b["cache"].get(k))
            continue
        x, y = a["cache"][k], b["cache"][k]
        cache[k] = None if x is None or y is None else [x[0] + y[0], x[1] + y[1]]
    out["cache"] = cache
    out["layers"] = sorted(set(a["layers"]) | set(b["layers"]))
    out["traced"] = sorted(set(a["traced"]) | set(b["traced"]))
    return out


EMPTY_SUMMARY = {"spans": 0, "self_s": {}, "calls": {}, "durations": {},
                 "counters": {}, "errors": {}, "cache": {}, "layers": [], "traced": []}

SELF_TIME_LAYERS = ("heegner", "pullback", "repcount", "lattices", "certify", "newforms", "modcurves")


def layer_metrics(summary: dict) -> dict[str, float | None]:
    """The per-layer metrics of the benchmark, from a (merged) summary."""
    layers = set(summary["layers"])
    traced = set(summary["traced"])
    calls = summary["calls"]
    counters = summary["counters"]
    out: dict[str, float | None] = {}

    def present(name):
        return name in traced

    for layer in SELF_TIME_LAYERS:
        out["%s.self_s" % layer] = summary["self_s"].get(layer, 0.0) if layer in layers else None
    enum = "heegner.enumerate_heegner_divisor"
    d = summary["durations"].get(enum, [])
    out["heegner.enumerate_p50_ms"] = (1000 * statistics.median(d) if d else 0.0) if present(enum) else None
    out["heegner.classes_enumerated"] = counters.get("heegner.classes_enumerated")
    for name, metric in CACHE_RATIOS.items():
        hm = summary["cache"].get(name)
        out[metric] = None if hm is None else (hm[0] / (hm[0] + hm[1]) if hm[0] + hm[1] else 0.0)
    for short, name in (("decompose", "pullback.decompose_heegner"), ("verify", "pullback.verify_decomposition")):
        out["pullback.%s_s" % short] = sum(summary["durations"].get(name, []), 0.0) if present(name) else None
    out["pullback.ladder_terms"] = counters.get("pullback.ladder_terms")
    out["pullback.divisor_classes_built"] = counters.get("pullback.divisor_classes_built")
    for layer in ("repcount", "lattices"):
        out["%s.calls" % layer] = (
            sum(n for k, n in calls.items() if layer_of(k) == layer) if layer in layers else None
        )
    out["certify.factorization_incomplete"] = counters.get("certify.factorization_incomplete")
    fetch = "newforms.NewformClient.fetch_newforms"
    scan = "newforms.NewformClient.available_offline_levels"
    out["newforms.fetches"] = calls.get(fetch, 0) if present(fetch) else None
    out["newforms.records_read"] = counters.get("newforms.records_read")
    out["newforms.offline_level_scans"] = calls.get(scan, 0) if present(scan) else None
    out["modcurves.level_bound_errors"] = (
        summary["errors"].get("LevelBoundError@modcurves", 0) if "modcurves" in layers else None
    )
    out["bench.self_s"] = summary["self_s"].get("bench", 0.0)
    return out
