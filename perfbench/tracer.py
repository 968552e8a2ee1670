"""Span tracer that wraps the public functions of the scinfer modules from
outside the package.

A traced function is one named in a module's ``__all__`` and defined in
that module. ``Tracer.install`` rebinds every attribute of every loaded
``scinfer.*`` module that refers to such a function, so a name that one
module imported from another (``run_greedy_scl`` in ``cli``, ``sweep``
and ``learner``) is traced wherever it is called from.

Spans stay in memory until ``Tracer.collect`` hands them over. Observers
run after a span ends, and their time is taken out of every open span, so
they do not count as scinfer time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types

# Modules whose public functions are traced. ``config`` is left out: it
# parses one INI file per run.
LAYERS = ("topology", "synth", "learner", "baselines", "evaluation", "sweep", "svgplot", "cli")


class Tracer:
    """Record one span per call of each traced function.

    ``only`` restricts tracing to the given ``layer.function`` names;
    ``observers`` maps such names to ``fn(tracer, args, kwargs, result)``
    callbacks that record events with ``tracer.event``.
    """

    def __init__(self, only=None, observers=None):
        self.only = None if only is None else set(only)
        self.observers = dict(observers or {})
        self.spans: list[list] = []  # [name, parent index or None, start, end, excluded]
        self.events: list[list] = []  # [kind, value]
        self.observer_errors: dict[str, str] = {}
        self.traced: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"scinfer.{layer}")
            except ImportError:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                name = f"{layer}.{attr}"
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if self.only is not None and name not in self.only:
                    continue
                wrappers[fn] = self._wrap(name, fn, self.observers.get(name))
                self.traced.append(name)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "scinfer" or modname.startswith("scinfer.")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def event(self, kind: str, value) -> None:
        self.events.append([kind, value])

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0]
            tracer.spans.append(rec)
            stack.append(idx)
            ok = False
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if ok and observe is not None:
                    tracer._observe(name, observe, args, kwargs, result)

        return traced

    def _observe(self, name, observe, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        try:
            observe(self, args, kwargs, result)
        except Exception as exc:  # an observer must never break the run it watches
            self.observer_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        spent = time.perf_counter() - t0
        for idx in self._stack:
            self.spans[idx][4] += spent

    # -- read-out ---------------------------------------------------------

    def collect(self) -> list[dict]:
        """Return the spans, events and observer errors recorded so far as
        a list of one chunk, and start afresh, so the tracer can be reused
        for the next pass."""
        chunk = {"spans": self.spans, "events": self.events, "errors": self.observer_errors}
        self.spans, self.events, self.observer_errors = [], [], {}
        return [chunk]


def span_durations(chunks, name: str) -> list[float]:
    """Wall time of every span called ``name``, observer time excluded."""
    return [
        rec[3] - rec[2] - rec[4]
        for chunk in chunks
        for rec in chunk["spans"]
        if rec[0] == name
    ]


def self_times(chunks) -> dict[str, list]:
    """``{name: [calls, self seconds]}`` summed over callers and chunks.

    A span's self time is its duration minus the durations of its child
    spans.
    """
    totals: dict[str, list] = {}
    for chunk in chunks:
        spans = chunk["spans"]
        durations = [rec[3] - rec[2] - rec[4] for rec in spans]
        own = list(durations)
        for rec, dur in zip(spans, durations):
            if rec[1] is not None:
                own[rec[1]] -= dur
        for rec, dur in zip(spans, own):
            entry = totals.setdefault(rec[0], [0, 0.0])
            entry[0] += 1
            entry[1] += dur
    return totals


def ndarray_bytes(obj) -> int:
    """Summed ``nbytes`` of the ndarray attributes of a dataclass instance."""
    values = (
        [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        if dataclasses.is_dataclass(obj)
        else list(vars(obj).values())
    )
    return int(sum(v.nbytes for v in values if hasattr(v, "nbytes") and hasattr(v, "dtype")))
