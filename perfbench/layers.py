"""Per-layer self time, measured from outside the program.

:func:`install` wraps the public entry points of each layer of ``repro``
at every name a caller binds: module functions are replaced in every
loaded ``repro`` module whose globals hold the original object (so a
module that did ``from repro.core.optimizer import optimize_interval``
is covered too), and methods are replaced on their class.  Each wrapper
pushes a frame on one stack; when it returns, its duration minus the
time of the wrapped calls nested inside it is the layer's self time.

A call nested inside a call of the same layer adds to that layer's self
time but not to its ``calls`` count, so ``replay.calls`` counts replays,
not the kernel functions one replay goes through.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable
from typing import Any

#: layer -> [(module, name)] of functions, wrapped wherever they are bound
FUNCTIONS: dict[str, list[tuple[str, str]]] = {
    "fitting": [("repro.distributions.fitting", "fit_model")],
    "solve": [
        ("repro.core.optimizer", "optimize_interval"),
        ("repro.core.optimizer", "optimize_intervals_batch"),
    ],
    "replay": [
        ("repro.simulation.batch_replay", "replay_batch"),
        ("repro.simulation.batch_replay", "replay_flat_pool"),
        ("repro.simulation.trace_sim", "simulate_trace"),
    ],
    "quadrature": [("repro.numerics.quadrature", "gauss_legendre")],
    "stats": [
        ("repro.stats.ci", "mean_ci"),
        ("repro.stats.significance", "significance_markers"),
    ],
}

#: layer -> [(module, class, [methods])] wrapped on the class
METHODS: dict[str, list[tuple[str, str, list[str]]]] = {
    "schedule": [
        (
            "repro.core.schedule",
            "CheckpointSchedule",
            ["interval", "intervals", "interval_array", "work_interval", "age_of_interval"],
        )
    ],
    "storage": [("repro.storage.store", "CheckpointStore", ["plan_checkpoint", "commit"])],
    "engine": [("repro.engine.core", "Environment", ["run"])],
    # the link's work happens in its public calls and in the wake-up
    # callbacks the engine fires, so those are wrapped too
    "link": [
        ("repro.network.link", "SharedLink", ["start_transfer", "abort", "_admit", "_on_wake"])
    ],
}

LAYERS = tuple(FUNCTIONS) + tuple(METHODS)


class LayerTracer:
    """Self time and call counts per layer, plus layer-specific counts."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, int] = {
            "replay.segments": 0,
            "schedule.intervals": 0,
            "storage.commits": 0,
            "link.transfers": 0,
        }
        # frames: [layer, child seconds]
        self._stack: list[list[Any]] = []
        self._undo: list[Callable[[], None]] = []

    def reset(self) -> None:
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
        for key in self.counts:
            self.counts[key] = 0

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable[..., Any], count: Callable[..., None] | None) -> Callable[..., Any]:
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outermost = not any(frame[0] == layer for frame in stack)
            if outermost:
                self.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if outermost and count is not None:
                    count(args, kwargs, result)
                return result
            finally:
                elapsed = perf() - t0
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _counter(self, layer: str, name: str) -> Callable[..., None] | None:
        counts = self.counts
        if (layer, name) == ("replay", "replay_batch"):
            def segments(args: Any, kwargs: Any, result: Any) -> None:
                counts["replay.segments"] += sum(len(item.durations) for item in args[0])
            return segments
        if (layer, name) == ("replay", "simulate_trace"):
            def trace_segments(args: Any, kwargs: Any, result: Any) -> None:
                counts["replay.segments"] += len(args[1])
            return trace_segments
        if (layer, name) in (("link", "start_transfer"), ("storage", "commit")):
            key = "link.transfers" if layer == "link" else "storage.commits"

            def one(args: Any, kwargs: Any, result: Any) -> None:
                counts[key] += 1
            return one
        return None

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        import importlib

        for layer, targets in FUNCTIONS.items():
            for module_name, name in targets:
                original = getattr(importlib.import_module(module_name), name)
                wrapper = self._wrap(layer, original, self._counter(layer, name))
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if (
                        namespace is None
                        or not getattr(module, "__name__", "").startswith("repro")
                    ):
                        continue
                    for attr, value in list(namespace.items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append(
                                functools.partial(setattr, module, attr, original)
                            )
        for layer, classes in METHODS.items():
            for module_name, class_name, methods in classes:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    if layer == "schedule":
                        wrapped = self._wrap_schedule(original)
                    else:
                        wrapped = self._wrap(layer, original, self._counter(layer, method))
                    setattr(cls, method, wrapped)
                    self._undo.append(functools.partial(setattr, cls, method, original))

    def _wrap_schedule(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Schedule methods also count the intervals they materialise.

        ``_intervals`` is the schedule's list of solved intervals; its
        growth across a call is the number of intervals the call added.
        """
        counts = self.counts
        stack = self._stack
        inner = self._wrap("schedule", original, None)

        @functools.wraps(original)
        def wrapper(schedule: Any, *args: Any, **kwargs: Any) -> Any:
            if any(frame[0] == "schedule" for frame in stack):
                return inner(schedule, *args, **kwargs)
            before = len(schedule._intervals)
            try:
                return inner(schedule, *args, **kwargs)
            finally:
                counts["schedule.intervals"] += len(schedule._intervals) - before

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
