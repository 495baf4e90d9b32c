"""Outside-in tracing of promptscan's public functions.

:class:`Tracer` wraps the functions below in every ``promptscan`` module
that binds them, because callers look names up in their own module
(``fft2d`` is imported separately into ``prompts`` and ``losses``, and
both bindings are wrapped). Nothing under ``src/`` changes. Each call
becomes a span with a name, start, end, parent span, thread and op id;
spans stay in memory and are written out when the run ends. A span's
self time is its duration minus the durations of its child spans.

Backward time per layer comes from wrapping the ``_vjp`` closure of each
tensor a wrapped call returns, as a ``<name>.bwd`` span; whatever
backward spends outside those closures is ``tensor.backward`` self time.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from promptscan.tensor import Tensor


def _count_nodes(root) -> int:
    """Tape nodes reachable from ``root`` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _score_bytes(args, kwargs, out):
    bsz, n = args[0].shape[:2]
    return [("prompts.global_prompt.score_bytes", bsz * n * n * 8)]


def _scan_tokens(args, kwargs, out):
    return [("scan.gated_recurrence.tokens", args[0].shape[0] * args[0].shape[1])]


def _occupied_share(args, kwargs, out):
    keys = np.argmax(out.data, axis=-1)
    return [("prompts.route_tokens.occupied_share", len(np.unique(keys)) / out.shape[-1])]


def _checkpoint_bytes(args, kwargs, out):
    return [("checkpoint.bytes", os.path.getsize(args[0]))]


def _tape_nodes(tensor):
    return [("tensor.backward.nodes", _count_nodes(tensor))]


def _param_elems(opt):
    return [("optim.param_elems", sum(p.size for p in opt.params.values()))]


# (module, function, span name, wrap backward?, counters from the call)
FUNCTIONS = [
    ("tensor", "conv2d", "tensor.conv2d", True, None),
    ("fft", "fft2d", "fft.fft2d", True, None),
    ("scan", "gated_recurrence", "scan.gated_recurrence", True, _scan_tokens),
    ("scan", "semantic_order", "scan.semantic_order", False, None),
    ("prompts", "global_prompt", "prompts.global_prompt", False, _score_bytes),
    ("prompts", "route_tokens", "prompts.route_tokens", False, _occupied_share),
    ("network", "model_forward", "network.model_forward", False, None),
    ("network", "build_model", "network.build_model", False, None),
    ("losses", "thermal_mask", "losses.thermal_mask", False, None),
    ("losses", "total_loss", "losses.total_loss", False, None),
    ("resize", "resample", "resize.resample", False, None),
    ("resize", "resample_matrix", "resize.resample_matrix", False, None),
    ("training", "sample_batch", "training.sample_batch", False, None),
    ("metrics", "ssim", "metrics.ssim", False, None),
    ("metrics", "psnr", "metrics.psnr", False, None),
    ("metrics", "error_histogram", "metrics.error_histogram", False, None),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", False, _checkpoint_bytes),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", False, _checkpoint_bytes),
    ("pgm", "read_pgm", "pgm.read_pgm", False, None),
]

# (module, class, method, span name, counters taken from the instance
# before the call, since backward frees the tape it walks)
METHODS = [
    ("tensor", "Tensor", "backward", "tensor.backward", _tape_nodes),
    ("optim", "Adam", "step", "optim.Adam.step", _param_elems),
]

# Per-layer metrics: name -> (unit, phase, how it is aggregated, source).
# "op" metrics are per timed op, "setup" metrics per set-up, "any" is a
# size that does not depend on the phase. Aggregation: "self" sums span
# self times, "calls" counts spans, "sum" sums a counter, "mean" averages a
# counter over calls, "max" keeps a counter's largest value.
LAYER_METRICS = {
    "tensor.backward.ms": ("ms", "op", "self", "tensor.backward"),
    "tensor.backward.nodes": ("count", "op", "sum", "tensor.backward.nodes"),
    "tensor.conv2d.ms": ("ms", "op", "self", "tensor.conv2d"),
    "tensor.conv2d.bwd_ms": ("ms", "op", "self", "tensor.conv2d.bwd"),
    "fft.fft2d.calls": ("count", "op", "calls", "fft.fft2d"),
    "fft.fft2d.ms": ("ms", "op", "self", "fft.fft2d"),
    "fft.fft2d.bwd_ms": ("ms", "op", "self", "fft.fft2d.bwd"),
    "scan.gated_recurrence.ms": ("ms", "op", "self", "scan.gated_recurrence"),
    "scan.gated_recurrence.bwd_ms": ("ms", "op", "self", "scan.gated_recurrence.bwd"),
    "scan.gated_recurrence.tokens": ("count", "op", "sum", "scan.gated_recurrence.tokens"),
    "scan.semantic_order.ms": ("ms", "op", "self", "scan.semantic_order"),
    "prompts.global_prompt.ms": ("ms", "op", "self", "prompts.global_prompt"),
    "prompts.global_prompt.score_bytes": ("B", "op", "sum", "prompts.global_prompt.score_bytes"),
    "prompts.route_tokens.ms": ("ms", "op", "self", "prompts.route_tokens"),
    "prompts.route_tokens.occupied_share": (
        "share", "op", "mean", "prompts.route_tokens.occupied_share"),
    "network.model_forward.ms": ("ms", "op", "self", "network.model_forward"),
    "network.build_model.ms": ("ms", "setup", "self", "network.build_model"),
    "losses.thermal_mask.ms": ("ms", "op", "self", "losses.thermal_mask"),
    "losses.total_loss.ms": ("ms", "op", "self", "losses.total_loss"),
    "resize.resample.ms": ("ms", "op", "self", "resize.resample"),
    "resize.resample_matrix.calls": ("count", "op", "calls", "resize.resample_matrix"),
    "resize.resample_matrix.ms": ("ms", "op", "self", "resize.resample_matrix"),
    "optim.Adam.step.ms": ("ms", "op", "self", "optim.Adam.step"),
    "optim.param_elems": ("count", "any", "max", "optim.param_elems"),
    "training.sample_batch.ms": ("ms", "op", "self", "training.sample_batch"),
    "metrics.ssim.ms": ("ms", "op", "self", "metrics.ssim"),
    "metrics.psnr.ms": ("ms", "op", "self", "metrics.psnr"),
    "metrics.error_histogram.ms": ("ms", "op", "self", "metrics.error_histogram"),
    "checkpoint.load_checkpoint.ms": ("ms", "setup", "self", "checkpoint.load_checkpoint"),
    "checkpoint.save_checkpoint.ms": ("ms", "op", "self", "checkpoint.save_checkpoint"),
    "checkpoint.bytes": ("B", "any", "max", "checkpoint.bytes"),
    "pgm.read_pgm.ms": ("ms", "setup", "self", "pgm.read_pgm"),
}


def _tensors_in(out):
    if isinstance(out, Tensor):
        return [out]
    if isinstance(out, (tuple, list)):
        return [t for o in out for t in _tensors_in(o)]
    if hasattr(out, "__dict__"):
        return [t for t in vars(out).values() if isinstance(t, Tensor)]
    return []


class _Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "phase", "thread", "child")

    def __init__(self, sid, name, parent, phase, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.phase = phase
        self.thread = thread
        self.child = 0.0
        self.t1 = None
        self.t0 = time.perf_counter()

    @property
    def self_s(self) -> float:
        return self.t1 - self.t0 - self.child


class Tracer:
    """Collects spans while installed; :meth:`layer_metrics` aggregates them.

    The caller marks phases with :meth:`begin_setup` and :meth:`begin_op`;
    spans opened outside a phase are recorded but not aggregated.
    """

    def __init__(self):
        self.spans = []
        self.counters = []  # (name, value, phase)
        self.n_setups = 0
        self.n_ops = 0
        self.phase = None
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- phases -------------------------------------------------------------

    def begin_setup(self) -> None:
        self.n_setups += 1
        self.phase = ("setup", self.n_setups)

    def begin_op(self) -> None:
        self.n_ops += 1
        self.phase = ("op", self.n_ops)

    def end_phase(self) -> None:
        self.phase = None

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = _Span(next(self._ids), name, parent, self.phase, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.t1 - span.t0
        self.spans.append(span)

    def count(self, name, value) -> None:
        self.counters.append((name, value, self.phase))

    def _timed(self, name, fn):
        def run(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return run

    def _wrap_function(self, name, fn, bwd, counters):
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if bwd:
                for t in _tensors_in(out):
                    if t._vjp is not None:
                        t._vjp = self._timed(name + ".bwd", t._vjp)
            if counters is not None:
                for cname, value in counters(args, kwargs, out):
                    self.count(cname, value)
            return out

        return wrapper

    def _wrap_method(self, name, fn, counters):
        timed = self._timed(name, fn)

        def method(obj, *args, **kwargs):
            for cname, value in counters(obj):
                self.count(cname, value)
            return timed(obj, *args, **kwargs)

        return method

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced names; a name the program no
        longer defines is listed in ``missing`` and reads as 0."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "promptscan" or n.startswith("promptscan."))]
        for modname, attr, name, bwd, counters in FUNCTIONS:
            fn = getattr(importlib.import_module(f"promptscan.{modname}"), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap_function(name, fn, bwd, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for modname, clsname, meth, name, counters in METHODS:
            cls = getattr(importlib.import_module(f"promptscan.{modname}"), clsname, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap_method(name, fn, counters))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()
        self.end_phase()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric, per op or per set-up; 0 where absent."""
        selfs = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            if s.phase is not None:
                selfs[(s.phase[0], s.name)] += s.self_s
                calls[(s.phase[0], s.name)] += 1
        sums = defaultdict(float)
        counts = defaultdict(int)
        peaks = defaultdict(float)
        for name, value, phase in self.counters:
            if phase is None:
                continue
            sums[(phase[0], name)] += value
            counts[(phase[0], name)] += 1
            peaks[("any", name)] = max(peaks[("any", name)], value)
        per = {"op": max(self.n_ops, 1), "setup": max(self.n_setups, 1)}
        out = {}
        for metric, (_, phase, how, src) in LAYER_METRICS.items():
            key = (phase, src)
            if how == "self":
                value = 1000.0 * selfs[key] / per[phase]
            elif how == "calls":
                value = calls[key] / per[phase]
            elif how == "sum":
                value = sums[key] / per[phase]
            elif how == "mean":
                value = sums[key] / counts[key] if counts[key] else 0.0
            else:
                value = peaks[("any", src)]
            out[metric] = value
        return out

    def op_self_ms(self) -> float:
        """Median over ops of the summed self times of the op's spans, so it
        compares with the traced ``op_ms_p50``."""
        per_op = defaultdict(float)
        for s in self.spans:
            if s.phase and s.phase[0] == "op":
                per_op[s.phase[1]] += s.self_s
        return 1000.0 * statistics.median(per_op.values()) if per_op else 0.0

    def write_spans(self, path) -> None:
        """One TSV row per span, times in microseconds from the first span."""
        t_base = min((s.t0 for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tphase\top\tthread\tname\tstart_us\tend_us\tself_us\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                phase, op = s.phase if s.phase else ("-", 0)
                fh.write(
                    f"{s.id}\t{s.parent.id if s.parent else -1}\t{phase}\t{op}\t"
                    f"{threads.setdefault(s.thread, len(threads))}\t{s.name}\t"
                    f"{(s.t0 - t_base) * 1e6:.1f}\t{(s.t1 - t_base) * 1e6:.1f}\t"
                    f"{s.self_s * 1e6:.1f}\n"
                )
