"""Spans around calls into pbrkit's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules and
rebinds it under every name a pbrkit module holds for it, including the
names that ``from ... import`` copied at import time (``pbrkit.cli`` holds
its own ``solve_beta``, ``build_C``, ``sample_outcomes`` ...).  The package
source is left untouched.  Spans (name, start, end, parent, operation) are
appended to flat arrays in memory and written out once, at the end.

A wrapper costs time of its own, and most of it falls outside the span it
records: the call into the wrapper and the appends before the start clock,
the pop after the end clock.  That time lands in the caller's self time.
``Tracer.calibrate`` times a traced no-op to find the two parts, and
``self_times`` takes them out again: the outside part once per child span
from the parent, the inside part once from every wrapped span.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("linalg", "states", "measurement", "reduction", "experiment", "cli")
ROOT = "bench.op"
CALIBRATION_CALLS = 2000


def _noop(x):
    return x


def _loop_ns(fn, calls: int) -> int:
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        fn(None)
    return clock() - t0


def _empty_loop_ns(calls: int) -> int:
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        pass
    return clock() - t0


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every pbrkit module-level name bound to ``original`` at ``replacement``."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "pbrkit" or name.startswith("pbrkit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records one span per wrapped call, plus OverlapAngle and trial counts."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.objects = 0
        self.trials = 0
        self.ops = 0
        self._stack = [-1]
        self._undo: list = []
        self._pairs = None
        self._outside_ns: list[float] = []
        self._inside_ns: list[float] = []

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        span_name, parent, op, start, end = self.span_name, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            op.append(self.ops - 1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _wrappers(self) -> list[tuple[object, object]]:
        """(original, traced) for every public function of the layer modules."""
        pairs = []
        for layer in LAYERS:
            module = sys.modules[f"pbrkit.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                if layer == "experiment" and attr == "sample_outcomes":
                    wrapped = self._count_trials(wrapped)
                pairs.append((fn, wrapped))
        return pairs

    def install(self) -> None:
        """Rebind the traced functions; the wrappers are built once, on first use."""
        import pbrkit.states

        if self._pairs is None:
            self._pairs = self._wrappers()
        for fn, wrapped in self._pairs:
            self._undo += _rebind(fn, wrapped)

        cls = pbrkit.states.OverlapAngle
        post_init = cls.__post_init__

        def counted(obj):
            self.objects += 1
            post_init(obj)

        cls.__post_init__ = counted
        self._undo.append((cls, "__post_init__", post_init))

    def _count_trials(self, fn):
        @functools.wraps(fn)
        def counted(p, preparation, trials, seed):
            self.trials += trials
            return fn(p, preparation, trials, seed)

        return counted

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    def run_op(self, call):
        """Run ``call`` as the next operation, under a root span."""
        self.ops += 1
        i = len(self.start)
        self.span_name.append(0)
        self.parent.append(-1)
        self.op.append(self.ops - 1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return call()
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def calibrate(self, calls: int = CALIBRATION_CALLS) -> None:
        """Time ``calls`` traced and plain calls of a no-op and record what one
        span adds: outside its [start, end] and inside it, beyond the call."""
        probe = Tracer()
        traced = probe._wrap("noop", _noop)
        empty = _empty_loop_ns(calls) / calls
        plain = _loop_ns(_noop, calls) / calls - empty
        total = _loop_ns(traced, calls) / calls - empty
        inside = (sum(probe.end) - sum(probe.start)) / calls
        self._outside_ns.append(total - inside)
        self._inside_ns.append(inside - plain)

    def span_cost(self) -> tuple[float, float]:
        """Median (outside, inside) cost of one span in ns over the calibrations."""
        if not self._outside_ns:
            return 0.0, 0.0
        return float(np.median(self._outside_ns)), float(np.median(self._inside_ns))

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time (s) and call count per span name, and the tracer's own time (s).

        A span's self time is its duration minus the durations of its child
        spans, minus the tracer's cost that :meth:`calibrate` found: the
        outside cost of each child span and the inside cost of the span
        itself (the root span has no wrapper, so no inside cost).  The self
        times plus the tracer's time equal the summed root durations.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        outside, inside = self.span_cost()
        children = np.bincount(parent[has_parent], minlength=len(dur))
        charged = outside * children + inside * (name != 0)
        own = np.bincount(name, weights=dur - child - charged, minlength=len(self.names)) * 1e-9
        calls = np.bincount(name, minlength=len(self.names))
        return (
            {n: float(own[k]) for k, n in enumerate(self.names)},
            {n: int(calls[k]) for k, n in enumerate(self.names)},
            float(charged.sum()) * 1e-9,
        )

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class SamplePeak:
    """Peak traced allocation inside each sample_outcomes call, in bytes."""

    def __init__(self):
        self.peak = 0
        self._undo = []

    def install(self) -> None:
        import pbrkit.experiment

        fn = pbrkit.experiment.sample_outcomes

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        self._undo = _rebind(fn, measured)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []
