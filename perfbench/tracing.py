"""Spans and counts around qmn's layers, recorded from outside the package.

``install`` replaces every public function of each layer module with a
timing wrapper in every qmn namespace that binds it, which is where callers
look it up (``from .tensor import partial_trace`` binds the name in
``qmn.markov``).  It also wraps a few methods that carry layer work, and
hands each qmn module a ``np`` whose ``linalg`` times the eigensolvers,
SVD and least squares.  The returned callable undoes all of it, so traced
and untraced passes can alternate in one process.

Spans (name, start, end, parent, op id, attributes) are kept in memory and
reduced to per-layer metrics after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

import numpy

LAYERS = ("cli", "markov", "graphs", "tensor", "cumulants", "decompose", "pauli",
          "families")

# methods whose work belongs to their layer; the value is the span name
METHODS = {
    ("markov", "ModelInstance", "hamiltonian"): "markov.hamiltonian",
    ("markov", "DensityMatrix", "__post_init__"): "markov.density_matrix",
    ("pauli", "PauliTerm", "__post_init__"): "pauli.term_build",
    ("pauli", "PauliSum", "__post_init__"): "pauli.sum_build",
}

LINALG = ("eigh", "eigvalsh", "svd", "lstsq")
EIG = ("linalg.eigh", "linalg.eigvalsh")


# every per-layer metric with its unit, in the order BENCHMARK.json lists them
LAYER_UNITS = [
    ("graphs.self_s", "s"), ("graphs.partitions", "count"),
    ("tensor.partial_trace.calls", "count"), ("tensor.partial_trace_s", "s"),
    ("tensor.partial_trace.bytes", "B"),
    ("markov.entropy.calls", "count"), ("markov.entropy_s", "s"),
    ("markov.entropy.max_dim", "dim"), ("markov.cmi.calls", "count"),
    ("markov.entropy_per_cmi", "ratio"),
    ("linalg.eig.calls", "count"), ("linalg.eig_s", "s"), ("linalg.eig.max_dim", "dim"),
    ("linalg.eig.full_dim_calls", "count"), ("linalg.eig.sum_d3", "count"),
    ("markov.gibbs.calls", "count"), ("markov.gibbs_s", "s"),
    ("markov.hamiltonian_s", "s"), ("markov.density_matrix.builds", "count"),
    ("tensor.embed.calls", "count"), ("tensor.embed_s", "s"), ("tensor.embed.bytes", "B"),
    ("tensor.check_hermitian_s", "s"), ("tensor.logm_pd_s", "s"), ("tensor.self_s", "s"),
    ("cumulants.expand.calls", "count"), ("cumulants.expand_s", "s"),
    ("cumulants.expand.max_dim", "dim"), ("cumulants.kept_ratio", "ratio"),
    ("cumulants.self_s", "s"),
    ("decompose.theorem4_decompose_s", "s"), ("decompose.star_decompose.calls", "count"),
    ("decompose.star_decompose_s", "s"), ("decompose.pairwise_commutation_s", "s"),
    ("decompose.self_s", "s"),
    ("decompose.classify_s", "s"), ("decompose.classify.partitions", "count"),
    ("pauli.commutator.calls", "count"), ("pauli.commutator_s", "s"),
    ("pauli.sum_builds", "count"), ("pauli.term_builds", "count"), ("pauli.self_s", "s"),
    ("cli.load_model_s", "s"), ("cli.save_model_s", "s"), ("cli.report_bytes", "B"),
    ("cli.self_s", "s"),
    ("families.generate_s", "s"), ("setup.warmup_s", "s"), ("trace.overhead_s", "s"),
]


def _nbytes(x: Any) -> int:
    return int(getattr(x, "nbytes", 0))


# attributes recorded per span: (args, kwargs, result) -> dict
ATTRS: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "tensor.partial_trace": lambda a, k, r: {
        "bytes": _nbytes(a[0]) + _nbytes(r.matrix)},
    "tensor.embed": lambda a, k, r: {"bytes": _nbytes(a[0].matrix) + _nbytes(r)},
    "markov.entropy": lambda a, k, r: {"dim": a[0].shape[0]},
    "linalg.eigh": lambda a, k, r: {"dim": a[0].shape[-1]},
    "linalg.eigvalsh": lambda a, k, r: {"dim": a[0].shape[-1]},
    "cumulants.expand": lambda a, k, r: {
        "dim": a[0].shape[0], "scanned": 2 ** len(a[1].sites),
        "kept": len(r.entries)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        span = self._push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._pop(span)
        attrs = ATTRS.get(name)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def iterate(self, name: str, it):
        """Re-yield a generator's items, one span per resumption."""
        while True:
            span = self._push(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._pop(span)
            span.attrs = {"items": 1}
            yield item

    def _push(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return tracer.iterate(name, fn(*args, **kwargs))
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


class _Proxy:
    """Stands in for a module: listed attributes replaced, the rest delegated."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Route qmn's layer calls through ``tracer``; returns the undo callable."""
    modules = {layer: importlib.import_module(f"qmn.{layer}") for layer in LAYERS}
    wrappers: dict[int, Callable] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(inspect.unwrap(obj))
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = _wrap(tracer, f"{layer}.{name}", obj)

    linalg = _Proxy(numpy.linalg, **{
        f: _wrap(tracer, f"linalg.{f}", getattr(numpy.linalg, f)) for f in LINALG})
    np_proxy = _Proxy(numpy, linalg=linalg)

    undo: list[tuple[Any, str, Any]] = []
    qmn_modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmn" or n.startswith("qmn."))]
    for mod in qmn_modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                undo.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])
            elif obj is numpy:
                undo.append((mod, name, obj))
                setattr(mod, name, np_proxy)
    for (layer, cls_name, meth), span_name in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, _wrap(tracer, span_name, original))

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)
    return restore


def _self_seconds(spans: list[Span]) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], full_dims: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass.

    ``full_dims`` maps an op id to the dimension of its model's full space,
    so eigensolves of the whole state can be told from marginal ones.
    """
    calls: Counter = Counter()
    seconds: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    within_classify = 0
    eig = {"calls": 0, "seconds": 0.0, "max_dim": 0, "full": 0, "d3": 0}
    expand = {"max_dim": 0, "scanned": 0, "kept": 0}
    entropy_dim = 0
    part_bytes = embed_bytes = partitions = 0
    in_classify: dict[int, bool] = {}
    for idx, (span, own) in enumerate(zip(spans, _self_seconds(spans))):
        name = span.name
        calls[name] += 1
        seconds[name] += span.seconds
        self_s[name.split(".", 1)[0]] += own
        parent_in = in_classify.get(span.parent, False)
        in_classify[idx] = parent_in or name == "decompose.classify"
        attrs = span.attrs or {}
        if name in EIG:
            d = attrs.get("dim", 0)
            eig["calls"] += 1
            eig["seconds"] += span.seconds
            eig["max_dim"] = max(eig["max_dim"], d)
            eig["full"] += d == full_dims.get(span.op, -1)
            eig["d3"] += d ** 3
        elif name in ("graphs.spanning_shield_partitions",
                      "graphs.all_shield_partitions") and attrs:
            partitions += 1
            within_classify += parent_in
        elif name == "tensor.partial_trace":
            part_bytes += attrs.get("bytes", 0)
        elif name == "tensor.embed":
            embed_bytes += attrs.get("bytes", 0)
        elif name == "markov.entropy":
            entropy_dim = max(entropy_dim, attrs.get("dim", 0))
        elif name == "cumulants.expand" and attrs:
            expand["max_dim"] = max(expand["max_dim"], attrs["dim"])
            expand["scanned"] += attrs["scanned"]
            expand["kept"] += attrs["kept"]
    lookups = 4 * calls["markov.cmi"]
    return {
        "graphs.self_s": self_s["graphs"],
        "graphs.partitions": partitions,
        "tensor.partial_trace.calls": calls["tensor.partial_trace"],
        "tensor.partial_trace_s": seconds["tensor.partial_trace"],
        "tensor.partial_trace.bytes": part_bytes,
        "markov.entropy.calls": calls["markov.entropy"],
        "markov.entropy_s": seconds["markov.entropy"],
        "markov.entropy.max_dim": entropy_dim,
        "markov.cmi.calls": calls["markov.cmi"],
        "markov.entropy_per_cmi": calls["markov.entropy"] / lookups if lookups else 0.0,
        "linalg.eig.calls": eig["calls"],
        "linalg.eig_s": eig["seconds"],
        "linalg.eig.max_dim": eig["max_dim"],
        "linalg.eig.full_dim_calls": eig["full"],
        "linalg.eig.sum_d3": eig["d3"],
        "markov.gibbs.calls": calls["markov.gibbs"],
        "markov.gibbs_s": seconds["markov.gibbs"],
        "markov.hamiltonian_s": seconds["markov.hamiltonian"],
        "markov.density_matrix.builds": calls["markov.density_matrix"],
        "tensor.embed.calls": calls["tensor.embed"],
        "tensor.embed_s": seconds["tensor.embed"],
        "tensor.embed.bytes": embed_bytes,
        "tensor.check_hermitian_s": seconds["tensor.check_hermitian"],
        "tensor.logm_pd_s": seconds["tensor.logm_pd"],
        "tensor.self_s": self_s["tensor"],
        "cumulants.expand.calls": calls["cumulants.expand"],
        "cumulants.expand_s": seconds["cumulants.expand"],
        "cumulants.expand.max_dim": expand["max_dim"],
        "cumulants.kept_ratio": (expand["kept"] / expand["scanned"]
                                 if expand["scanned"] else 0.0),
        "cumulants.self_s": self_s["cumulants"],
        "decompose.theorem4_decompose_s": seconds["decompose.theorem4_decompose"],
        "decompose.star_decompose.calls": calls["decompose.star_decompose"],
        "decompose.star_decompose_s": seconds["decompose.star_decompose"],
        "decompose.pairwise_commutation_s": seconds["decompose.pairwise_commutation"],
        "decompose.self_s": self_s["decompose"],
        "decompose.classify_s": seconds["decompose.classify"],
        "decompose.classify.partitions": within_classify,
        "pauli.commutator.calls": calls["pauli.commutator"],
        "pauli.commutator_s": seconds["pauli.commutator"],
        "pauli.sum_builds": calls["pauli.sum_build"],
        "pauli.term_builds": calls["pauli.term_build"],
        "pauli.self_s": self_s["pauli"],
        "cli.load_model_s": seconds["cli.load_model"],
        "cli.save_model_s": seconds["cli.save_model"],
        "cli.self_s": self_s["cli"],
    }
