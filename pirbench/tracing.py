"""
Spans around the package's public functions, recorded from outside it.

A Tracer replaces module attributes (and MdsCode methods) with wrappers
that time each call.  Callers inside the package look those attributes
up at call time, so nested calls are timed too.  Each thread keeps a
stack of open spans: a span's self time is its duration minus the time
of the child spans that ran on the same thread.  Spans are aggregated
in memory per name and handed over by `take()`; nothing is written
while the benchmark measures.

`install` swaps the wrappers in and `uninstall` restores the previous
attributes, so the untraced rounds of a traced run pay nothing.
"""

from __future__ import annotations

import functools
import inspect
import threading
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self, layers, classes=(), extra=(), hooks=None):
        """`layers` maps a module to its layer name; `classes` holds
        (class, layer) pairs whose public methods are traced too, and
        `extra` holds single (owner, attribute, span name) targets.
        `hooks` maps a span name to (on_enter, on_exit) callables:
        on_enter(tracer, args) runs before the call and
        on_exit(tracer, result, end_ns) after it, on the calling thread."""
        self._targets = []
        for module, layer in layers.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    self._targets.append((module, attr, f"{layer}.{attr}"))
        for cls, layer in classes:
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._targets.append((cls, attr, f"{layer}.{attr}"))
        self._targets.extend(extra)
        self._hooks = hooks or {}
        self._local = threading.local()
        self._saved = []
        self.request_id = 0
        self._fresh()

    def _fresh(self):
        names = [name for _, _, name in self._targets]
        self.durations = {name: array("q") for name in names}
        self.self_times = {name: array("q") for name in names}
        self.samples: dict[str, list] = {}

    def take(self) -> dict:
        """Everything recorded since the last take, as plain picklable data."""
        out = {
            "durations": {k: v for k, v in self.durations.items() if v},
            "self_times": {k: v for k, v in self.self_times.items() if v},
            "samples": self.samples,
        }
        self._fresh()
        return out

    def sample(self, key: str, value) -> None:
        """Record a derived value, such as a wait measured by a hook."""
        self.samples.setdefault(key, []).append(value)

    @property
    def thread_state(self):
        """Per-thread scratch space for hooks."""
        return self._local

    def install(self, prefixes=None) -> None:
        """Trace every target, or only those whose span name starts
        with one of `prefixes`."""
        if self._saved:
            return
        for owner, attr, name in self._targets:
            if prefixes is not None and not name.startswith(tuple(prefixes)):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, original, name):
        tracer = self
        local = self._local
        on_enter, on_exit = self._hooks.get(name, (None, None))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if on_enter is not None:
                on_enter(tracer, args)
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.durations[name].append(duration)
                tracer.self_times[name].append(duration - frame[0])
                if stack:
                    stack[-1][0] += duration
            if on_exit is not None:
                on_exit(tracer, result, end)
            return result

        return wrapper


def merge(*taken) -> dict:
    """Combine `take()` results of several processes or phases."""
    out = {"durations": {}, "self_times": {}, "samples": {}}
    for part in taken:
        for key in ("durations", "self_times"):
            for name, values in part[key].items():
                out[key].setdefault(name, array("q")).extend(values)
        for name, values in part["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
    return out


def package_tracer(hooks=None) -> Tracer:
    """A tracer over the layers of `codedpir` that run on a hot path.

    gf, linalg, analysis and cli are left out: gf.inv_mod runs only
    inside rs.recovery_matrix, linalg and analysis serve the verifiers,
    and cli wraps the other modules.  `make_code` is also traced where
    scheme, sim and net imported it by name, so its time counts as a
    child of their functions.  Thread starts are counted as spans.
    """
    from codedpir import net, rs, scheme, sim

    return Tracer(
        {rs: "rs", scheme: "scheme", sim: "sim", net: "net"},
        classes=[(rs.MdsCode, "rs")],
        extra=[(mod, "make_code", "rs.make_code") for mod in (scheme, sim, net)]
        + [(threading.Thread, "start", "thread.start")],
        hooks=hooks,
    )
