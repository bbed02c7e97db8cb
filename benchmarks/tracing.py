"""Span tracing around heatconf's public functions, and the per-layer metrics.

`Tracer.install` runs inside a benchmark child process before the CLI starts.
It wraps every public function and method (plus `__init__` of non-dataclass
classes) of the eight heatconf modules, and `numpy.fft.fftn`/`ifftn`, so each
call records a span: id, name, start, end (monotonic ns), parent span id,
run id and a few attributes computed from array shapes.  Spans stay in memory
and the child writes them once, when its run ends.

`aggregate` runs in the benchmark parent on the spans of one repetition and
turns them into the per-layer metrics listed in BENCHMARK.json.  It imports
neither numpy nor heatconf.
"""
from __future__ import annotations

import re
import time

from workloads import VERIFY_CRITERIA

LAYERS = ("geometry", "spectrum", "embedding", "jets", "perturb", "analysis",
          "cli", "acceptance")
PRIVATE_TRACED = {"cli": ("_report",)}      # private functions with their own metric


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []        # [id, name, start_ns, end_ns, parent, attrs]
        self._stack: list[int] = []
        self._wrapped: dict = {}           # original function -> traced wrapper

    def span(self, name: str, start_ns: int, end_ns: int):
        """Record a span measured outside any wrapper (the process start-up)."""
        self.spans.append([len(self.spans), name, start_ns, end_ns, -1, None])

    def wrap(self, name: str, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns
        pre, post = _probes(name)

        def traced(*args, **kwargs):
            ctx = pre(args) if pre else None
            rec = [len(spans), name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post:
                rec[5] = post(args, out, ctx)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        self._wrapped[fn] = traced
        return traced

    def records(self) -> list[dict]:
        return [{"id": i, "name": name, "start_ns": t0, "end_ns": t1, "parent": parent,
                 "run": self.run_id, "attrs": attrs}
                for i, name, t0, t1, parent, attrs in self.spans]

    def install(self, modules: dict) -> None:
        """Wrap the layer modules in place; `modules` maps layer name -> module."""
        import dataclasses
        import inspect

        import numpy

        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not name.startswith("_") or name in PRIVATE_TRACED.get(layer, ())):
                    setattr(mod, name, self.wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_") and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, dataclasses.is_dataclass(obj))
        # names bound by `from .x import f` and registries such as ALL_CHECKS
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    setattr(mod, name, self._wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in self._wrapped:
                            obj[key] = self._wrapped[val]
        for name in ("fftn", "ifftn"):
            setattr(numpy.fft, name, self.wrap(f"numpy.fft.{name}",
                                               getattr(numpy.fft, name)))

    def _wrap_class(self, layer: str, cls, is_dataclass: bool) -> None:
        import inspect

        for name, attr in list(vars(cls).items()):
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod) and not name.startswith("_"):
                setattr(cls, name, classmethod(self.wrap(label, attr.__func__)))
            elif inspect.isfunction(attr) and (
                    not name.startswith("_") or (name == "__init__" and not is_dataclass)):
                setattr(cls, name, self.wrap(label, attr))


# -- attributes computed from array shapes ---------------------------------

def _jet_block_post(args, out, ctx):
    vals, grads, hess = out
    return {"mode_points": vals.size, "points": vals.shape[1],
            "floats": [vals.size, grads.size, hess.size],
            "bytes": vals.nbytes + grads.nbytes + hess.nbytes}


def _jets_on_pre(args):
    emb, points = args[0], args[1]
    import numpy
    return numpy.asarray(points, dtype=float).tobytes() in emb._jet_cache


def _jets_on_post(args, out, hit):
    cache_bytes = sum(a.nbytes for entry in args[0]._jet_cache.values() for a in entry)
    return {"hit": bool(hit), "cache_bytes": cache_bytes}


def _probes(name: str):
    """(pre, post) hooks for the spans whose metrics need more than a time."""
    if re.fullmatch(r"spectrum\.\w+\.jet_block", name):
        return None, _jet_block_post
    if re.fullmatch(r"spectrum\.(Torus|Circle|Sphere|Product)Spectrum\.__init__", name):
        return None, lambda a, o, c: {"modes": a[0].count}
    if name == "embedding.EmbeddingMap.jets_on":
        return _jets_on_pre, _jets_on_post
    if name == "embedding.build_embedding":
        return None, lambda a, o, c: {"q": o.q}
    if name == "perturb.SpectralGrid.__init__":
        return None, lambda a, o, c: {"fine_points": a[0].fine ** len(a[0].shape)}
    if name == "perturb.fixed_point_solve":
        return None, lambda a, o, c: {"iterations": len(o[0])}
    if name == "perturb.assemble_C":
        # the injectivity scan holds an N x N float64 distance matrix
        return None, lambda a, o, c: {"injectivity_bytes": o.C.values.shape[0] ** 2 * 8}
    if name == "jets.PointwiseRightInverse.__init__":
        return None, lambda a, o, c: {"P_bytes": a[0].P.nbytes}
    if name.startswith("numpy.fft."):
        return None, lambda a, o, c: {"bytes": a[0].nbytes + o.nbytes}
    return None, None


# -- aggregation -----------------------------------------------------------

# functions of the per-point right-inverse path (one P matrix per call)
POINTWISE = {f"jets.{f}" for f in ("assemble_P", "assemble_Pc", "apply_E", "apply_Ec",
                                   "kernel_generator", "gram_solve", "block_inverse")}
# which jet arrays (values, gradients, hessians) a jet_block caller reads
READERS = {"embedding.EmbeddingMap.pullback_on": (0, 1, 0),
           "embedding.tail_bound_check": (0, 1, 0),
           "embedding.EmbeddingMap.values_on": (1, 0, 0),
           "embedding.EmbeddingMap.jets_on": (1, 1, 1)}
JET_BLOCK = re.compile(r"spectrum\.\w+\.jet_block")
ENUMERATE = re.compile(r"spectrum\.(Torus|Circle|Sphere|Product|Analytic)Spectrum\.__init__")
GRID_TRANSFORM = re.compile(r"perturb\.SpectralGrid\.\w+")

METRICS = (
    ["perturb.quadratic_s", "perturb.quadratic_calls", "perturb.quadratic_per_iter_s",
     "perturb.fft_s", "perturb.fft_calls", "perturb.fft_bytes", "perturb.contract_s",
     "perturb.residual_s", "perturb.verify_s", "perturb.assemble_s",
     "perturb.injectivity_bytes", "perturb.iterations", "perturb.solves",
     "perturb.solver_setup_s",
     "jets.factor_s", "jets.P_bytes", "jets.apply_s", "jets.apply_calls",
     "jets.pointwise_s", "jets.pointwise_calls", "jets.block_inverse_calls",
     "spectrum.jet_block_s", "spectrum.jet_block_calls", "spectrum.jet_mode_points",
     "spectrum.jet_bytes", "spectrum.jet_useful_ratio", "spectrum.enumerate_s",
     "spectrum.enumerate_calls", "spectrum.modes_enumerated",
     "embedding.pullback_s", "embedding.pullback_calls", "embedding.values_on_s",
     "embedding.jets_on_s", "embedding.jet_cache_hits", "embedding.jet_cache_misses",
     "embedding.jet_cache_bytes", "embedding.build_s", "embedding.correction_s",
     "analysis.holder_s", "analysis.holder_calls", "analysis.fit_s",
     "geometry.self_s", "cli.load_config_s", "cli.report_s"]
    + [f"acceptance.{c}_s" for c in VERIFY_CRITERIA]
    + ["size.q", "size.N", "size.fine_points", "size.modes_held"]
)
MAX_METRICS = {"perturb.injectivity_bytes", "jets.P_bytes", "embedding.jet_cache_bytes",
               "size.q", "size.N", "size.fine_points", "size.modes_held"}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class _Process:
    """Index over the spans of one process: children, ancestry, self times."""

    def __init__(self, spans: list):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                self.child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]

    def dur(self, s) -> float:
        return (s["end_ns"] - s["start_ns"]) * 1e-9

    def self_time(self, s) -> float:
        return (s["end_ns"] - s["start_ns"] - self.child_ns[s["id"]]) * 1e-9

    def ancestors(self, s):
        p = s["parent"]
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p]["parent"]

    def under(self, s, name) -> bool:
        return any(a["name"] == name for a in self.ancestors(s))

    def outermost(self, s, pattern) -> bool:
        return not any(pattern(a["name"]) for a in self.ancestors(s))


def self_seconds(span_lists: list) -> dict:
    """Self time per span name, summed over processes."""
    out: dict = {}
    for spans in span_lists:
        proc = _Process(spans)
        for s in spans:
            out[s["name"]] = out.get(s["name"], 0.0) + proc.self_time(s)
    return out


def aggregate(span_lists: list) -> dict:
    """Per-layer metrics from the spans of every process in one repetition."""
    m = {k: 0 for k in METRICS}
    read = returned = 0
    for spans in span_lists:
        proc = _Process(spans)
        for s in spans:
            name, attrs = s["name"], s["attrs"] or {}
            d = proc.dur(s)
            if name == "perturb.ConformalSolver.quadratic":
                m["perturb.quadratic_s"] += d
                m["perturb.quadratic_calls"] += 1
                m["perturb.contract_s"] += proc.self_time(s)
            elif GRID_TRANSFORM.fullmatch(name) and not name.endswith("__init__"):
                if proc.under(s, "perturb.ConformalSolver.quadratic") and \
                        proc.outermost(s, GRID_TRANSFORM.fullmatch):
                    m["perturb.fft_s"] += d
            elif name.startswith("numpy.fft."):
                if proc.under(s, "perturb.ConformalSolver.quadratic"):
                    m["perturb.fft_calls"] += 1
                    m["perturb.fft_bytes"] += attrs.get("bytes", 0)
            elif name == "perturb.ConformalSolver.conformal_residual":
                if proc.under(s, "perturb.fixed_point_solve"):
                    m["perturb.residual_s"] += d
            elif name == "perturb.verify_conformal":
                m["perturb.verify_s"] += d
            elif name == "perturb.assemble_C":
                m["perturb.assemble_s"] += d
                m["perturb.injectivity_bytes"] = max(m["perturb.injectivity_bytes"],
                                                     attrs.get("injectivity_bytes", 0))
            elif name == "perturb.fixed_point_solve":
                m["perturb.solves"] += 1
                m["perturb.iterations"] += attrs.get("iterations", 0)
            elif name == "perturb.ConformalSolver.__init__":
                m["perturb.solver_setup_s"] += d
            elif name == "jets.PointwiseRightInverse.__init__":
                m["jets.factor_s"] += d
                m["jets.P_bytes"] = max(m["jets.P_bytes"], attrs.get("P_bytes", 0))
            elif name == "jets.PointwiseRightInverse.apply":
                m["jets.apply_s"] += d
                m["jets.apply_calls"] += 1
            elif JET_BLOCK.fullmatch(name):
                if not proc.outermost(s, JET_BLOCK.fullmatch):
                    continue
                m["spectrum.jet_block_s"] += d
                m["spectrum.jet_block_calls"] += 1
                m["spectrum.jet_mode_points"] += attrs.get("mode_points", 0)
                m["spectrum.jet_bytes"] += attrs.get("bytes", 0)
                m["size.N"] = max(m["size.N"], attrs.get("points", 0))
                mask = next((READERS[a["name"]] for a in proc.ancestors(s)
                             if a["name"] in READERS), (1, 1, 1))
                floats = attrs.get("floats", (0, 0, 0))
                read += sum(f for f, keep in zip(floats, mask) if keep)
                returned += sum(floats)
            elif ENUMERATE.fullmatch(name):
                if proc.outermost(s, ENUMERATE.fullmatch):
                    m["spectrum.enumerate_s"] += d
                    m["spectrum.enumerate_calls"] += 1
                    m["spectrum.modes_enumerated"] += attrs.get("modes", 0)
                    m["size.modes_held"] = max(m["size.modes_held"], attrs.get("modes", 0))
            elif name == "embedding.EmbeddingMap.pullback_on":
                m["embedding.pullback_s"] += proc.self_time(s)
                m["embedding.pullback_calls"] += 1
            elif name == "embedding.EmbeddingMap.values_on":
                m["embedding.values_on_s"] += d
            elif name == "embedding.EmbeddingMap.jets_on":
                m["embedding.jets_on_s"] += d
                m["embedding.jet_cache_hits" if attrs.get("hit", 0) else
                  "embedding.jet_cache_misses"] += 1
                m["embedding.jet_cache_bytes"] = max(m["embedding.jet_cache_bytes"],
                                                     attrs.get("cache_bytes", 0))
            elif name == "embedding.build_embedding":
                m["embedding.build_s"] += d
                m["size.q"] = max(m["size.q"], attrs.get("q", 0))
            elif name in ("embedding.corrected_model", "embedding.h1_frame_constant"):
                if proc.outermost(s, lambda n: n in ("embedding.corrected_model",
                                                     "embedding.h1_frame_constant")):
                    m["embedding.correction_s"] += d
            elif name == "analysis.holder_seminorm_field":
                if proc.outermost(s, lambda n: n == name):
                    m["analysis.holder_s"] += d
                    m["analysis.holder_calls"] += 1
            elif name == "analysis.fit_order":
                m["analysis.fit_s"] += d
            elif name == "cli.load_config":
                m["cli.load_config_s"] += d
            elif name == "cli._report":
                m["cli.report_s"] += d
            elif name.startswith("acceptance.check_"):
                key = f"acceptance.{name[len('acceptance.check_'):]}_s"
                if key in m:
                    m[key] += d
            if name in POINTWISE:
                if proc.outermost(s, POINTWISE.__contains__):
                    m["jets.pointwise_s"] += d
                if name == "jets.assemble_P":
                    m["jets.pointwise_calls"] += 1
                elif name == "jets.block_inverse":
                    m["jets.block_inverse_calls"] += 1
            if name.startswith("geometry."):
                m["geometry.self_s"] += proc.self_time(s)
            if name == "perturb.SpectralGrid.__init__":
                m["size.fine_points"] = max(m["size.fine_points"], attrs.get("fine_points", 0))
    if m["perturb.quadratic_calls"]:
        m["perturb.quadratic_per_iter_s"] = m["perturb.quadratic_s"] / m["perturb.quadratic_calls"]
    m["spectrum.jet_useful_ratio"] = read / returned if returned else 0.0
    return m
