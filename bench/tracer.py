"""Span tracer that wraps the public functions of the package's modules.

The tracer lives entirely in the benchmark: it replaces each public
function (and each public method of a class defined in the module) with
a wrapper that records a span, and puts the originals back on exit.
Spans are aggregated as they close, so memory stays bounded however many
calls a workload makes.

Self time of a span is its duration minus the union of its child spans.
Work done in `rng.map_blocks` worker threads is recorded as a span named
after the function that submitted the blocks (for example
`stochastic.birkhoff_samples`), with the `rng.map_blocks` span as its
parent, so the orbit loops inside sampler closures are attributed to the
sampler that owns them.

`default_hooks` is the one table of per-function knowledge: which calls
split into named sub-spans and which work counts each call records. A
private function it names is wrapped too, and credits its counts to the
span that called it.
"""

import functools
import inspect
import math
import os
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

LAYERS = (
    "lattice",
    "spectral",
    "analysis",
    "lacunary",
    "tiling",
    "stochastic",
    "interval",
    "rng",
    "serialize",
    "cli",
)


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Span:
    __slots__ = ("name", "start", "children", "child_calls", "counts", "block")

    def __init__(self, name, start, block=False):
        self.name = name
        self.start = start
        self.block = block  # a worker block, counted in self time only
        self.children = []
        self.child_calls = defaultdict(int)
        self.counts = {}


class Tracer:
    """Aggregates calls, self time and work counts per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.max_threads = 0  # largest thread count any map_blocks call used
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, block=False):
        span = _Span(name, time.perf_counter(), block)
        self._stack().append(span)
        return span

    def close(self, span, parent=None):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if parent is None and stack:
            parent = stack[-1]
        covered = _union_length(span.children, span.start, end)
        with self._lock:
            if not span.block:
                self.calls[span.name] += 1
            self.self_s[span.name] += (end - span.start) - covered
            if not span.block:
                self.total_s[span.name] += end - span.start
            for key, value in span.counts.items():
                self.counts[span.name + "." + key] += value
            if parent is not None:
                parent.children.append((span.start, end))
                parent.child_calls[span.name] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, func, hook):
        tracer = self
        if name == "rng.map_blocks":

            @functools.wraps(func)
            def blocks(*args, **kwargs):
                return tracer._map_blocks(func, args, kwargs)

            return blocks

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not hook.span:  # counts only, credited to the enclosing span
                result = func(*args, **kwargs)
                owner = tracer.current()
                if owner is not None:
                    for key, value in hook.count(args, kwargs, result, owner).items():
                        owner.counts[key] = owner.counts.get(key, 0) + value
                return result
            span = tracer.open(name + (hook.split(args, kwargs) if hook.split else ""))
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                if hook.count is not None and result is not None:
                    span.counts.update(hook.count(args, kwargs, result, span))
                tracer.close(span)

        return wrapper

    def _map_blocks(self, func, args, kwargs):
        """Run map_blocks with worker spans parented on the map_blocks span."""
        tracer = self
        total, worker, threads = args[0], args[1], args[2] if len(args) > 2 else None
        owner = self.current()
        owner_name = owner.name if owner is not None else "rng.map_blocks"
        span = self.open("rng.map_blocks")
        from toraldecay import rng as rng_module

        span.counts["blocks"] = math.ceil(total / rng_module.BLOCK) if total > 0 else 0
        used = rng_module.resolve_threads(threads)
        with self._lock:
            self.max_threads = max(self.max_threads, used)

        def traced_worker(*blk):
            stack = tracer._stack()
            depth = len(stack)
            if depth == 0:
                stack.append(span)  # worker thread: submitting span is the parent
            inner = tracer.open(owner_name, block=True)
            try:
                return worker(*blk)
            finally:
                tracer.close(inner, parent=span)
                if depth == 0:
                    stack.pop()

        try:
            return func(total, traced_worker, threads, **kwargs)
        finally:
            self.close(span)

    def install(self, package_modules, hooks):
        """Wrap every public function and public method in the given modules,
        and the private functions that `hooks` names."""
        plain = Hook()
        for mod in package_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                name = "%s.%s" % (short, attr)
                if attr.startswith("_") and name not in hooks:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._patch(mod, attr, self._wrap(name, obj, hooks.get(name, plain)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = "%s.%s.%s" % (short, attr, meth)
                        hook = hooks.get(name, plain)
                        if isinstance(raw, staticmethod):
                            wrapped = staticmethod(self._wrap(name, raw.__func__, hook))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(name, raw, hook)
                        else:
                            continue
                        self._patch(obj, meth, wrapped)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _npoints(x, dim):
    arr = np.asarray(x)
    return arr.shape[0] if arr.ndim == 2 else max(1, arr.size // dim)


class Hook(NamedTuple):
    """What the tracer records for one function besides calls and time.

    `split(args, kwargs)` returns a suffix that names a sub-span, such as
    `.r2` for `spectral.modulus_value`. `count(args, kwargs, result, span)`
    returns work counts for the call. With `span=False` the call opens no
    span and its counts go to the enclosing span.
    """

    split: Optional[Callable] = None
    count: Optional[Callable] = None
    span: bool = True


def default_hooks():
    """Sub-span names and work counts, keyed by traced function."""

    def evaluate(args, kwargs, result, span):
        poly, x = args[0], args[1]
        return {"point_terms": _npoints(x, poly.dim) * len(poly.coeffs)}

    def orbit_steps(args, kwargs, result, span):
        # birkhoff_samples(f, matrix, horizon, samples, ...) and
        # lyapunov_clt(horizon, samples, ...)
        offset = 0 if isinstance(args[0], int) else 2
        return {"orbit_steps": int(args[offset]) * int(args[offset + 1])}

    def check_tiling(args, kwargs, result, span):
        tile, samples = args[0], int(args[1])
        side = 2 * result.window + 1
        hits = sum(k * c for k, c in result.histogram.items())
        return {"queries": samples * side ** tile.matrix.dim, "hits": hits}

    def tile_points(args, kwargs, result, span):
        return {"points": len(result.points)}

    def grid_values(args, kwargs, result, span):
        # (flat or d-dimensional |f| values, axes): the points actually scanned
        return {"grid_evals": int(np.asarray(result[0]).size)}

    def modulus_r(args, kwargs):
        r = args[1] if len(args) > 1 else kwargs.get("r")
        return ".r2" if r == 2 else ".rinf"

    def transfer_fourier(args, kwargs, result, span):
        return {"coeffs_in": len(args[0].coeffs), "coeffs_kept": len(result.coeffs)}

    def family(args, kwargs):
        return "." + args[0].family

    def tail_norms(args, kwargs, result, span):
        from toraldecay import lacunary

        spec, n = args[0], int(args[1])
        if spec.truncation is not None:
            summed = max(0, spec.truncation - n)
        elif spec.family == "logpower":
            m = lacunary.SUM_SPLIT if n < lacunary.SUM_SPLIT else 2 * (n + 1)
            summed = 2 * max(0, m - n - 1)
        else:
            summed = 0
        return {"terms_summed": summed}

    def lacunary_build(args, kwargs, result, span):
        return {"terms": len(result.coeffs)}

    def correlation(args, kwargs, result, span):
        mc = kwargs.get("mc_samples", args[4] if len(args) > 4 else None)
        return {"mc_samples": int(mc) if mc else 0}

    def sigma_squared(args, kwargs, result, span):
        # one correlation per series term n = 0, 1, ...
        return {"series_terms": span.child_calls["analysis.correlation"]}

    def rendered(args, kwargs, result, span):
        return {"bytes": len(result.encode("utf-8"))}

    def written(args, kwargs, result, span):
        return {"bytes": os.path.getsize(result)}

    return {
        "spectral.TrigPolynomial.evaluate": Hook(count=evaluate),
        "stochastic.birkhoff_samples": Hook(count=orbit_steps),
        "interval.lyapunov_clt": Hook(count=orbit_steps),
        "tiling.check_tiling": Hook(count=check_tiling),
        "tiling.tile_points": Hook(count=tile_points),
        "spectral._grid_values": Hook(count=grid_values, span=False),
        "spectral.modulus_value": Hook(split=modulus_r),
        "spectral.transfer_fourier": Hook(count=transfer_fourier),
        "lacunary.tail_norms": Hook(split=family, count=tail_norms),
        "lacunary.lacunary_build": Hook(count=lacunary_build),
        "analysis.correlation": Hook(count=correlation),
        "stochastic.sigma_squared": Hook(count=sigma_squared),
        "serialize.render_csv": Hook(count=rendered),
        "serialize.render_json": Hook(count=rendered),
        "serialize.write_csv": Hook(count=written),
        "serialize.write_json": Hook(count=written),
    }
