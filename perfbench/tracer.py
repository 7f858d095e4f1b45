"""Outside-in span tracer for erdoslab's public functions.

The tracer replaces each traced function with a wrapper wherever a loaded
``erdoslab`` module holds a reference to it, so ``erdoslab.cli.load_or_build``
and ``erdoslab.primes.load_or_build`` are both timed, and patches methods on
their class. Nothing under ``src/`` is edited. A wrapper records the span and
passes the call through untouched: same arguments, same return value, same
exception.

Self time is a span's duration minus the time its traced child spans cover.
A function that is absent (renamed, merged or moved) is listed in
``missing`` and every other span is still recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: module, attribute path and metric prefix.

    ``count`` maps the call's bound arguments to a work count, summed over
    calls into ``<metric>.<count_name>``. ``observe`` maps the return value
    to a number whose maximum over calls is kept. ``peak_mem`` records the
    peak of memory allocated inside the call (tracemalloc, which numpy
    reports to), when the tracer is made with ``peak_mem=True``; tracemalloc
    slows every allocation, so the timed pass leaves it off.
    """

    module: str
    attr: str  # "func" or "Class.method"
    metric: str  # e.g. "primes.build_table"
    count_name: str | None = None
    count: Callable[[dict], float] | None = None
    observe: Callable[[object], float] | None = None
    peak_mem: bool = False


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0
    unreadable: bool = False  # a count or observed value could not be read
    observed: float = 0.0
    peak_mb: float = 0.0


@dataclass
class Tracer:
    targets: list[Target]
    peak_mem: bool = False
    stats: dict[str, Stat] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        for t in self.targets:
            self.stats.setdefault(t.metric, Stat())
            owner, name, orig = _resolve(t)
            if orig is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(t, orig)
            if owner is not None:  # method: patch the class attribute
                self._patch(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "") or ""
                if mname != "erdoslab" and not mname.startswith("erdoslab."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            obj, key, orig = self._patches.pop()
            setattr(obj, key, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch(self, obj, key: str, new) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[float]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, t: Target, orig):
        stat = self.stats[t.metric]
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            n = _count(t, sig, args, kwargs)
            mem = self.peak_mem and t.peak_mem and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            stack = self._stack()
            stack.append(0.0)  # child time accumulated under this span
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                if t.observe is not None:
                    _observe(t, stat, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                peak = 0.0
                if mem:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                with self._lock:  # spans may close on worker threads
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - child
                    if n is None:
                        stat.unreadable = True
                    else:
                        stat.count += n
                    stat.peak_mb = max(stat.peak_mb, peak)

        return wrapper


def _resolve(t: Target):
    """(class or None, attribute name, original function or None)."""
    try:
        obj = importlib.import_module(t.module)
    except ImportError:
        return None, t.attr, None
    parts = t.attr.split(".")
    owner = None
    for p in parts:
        owner, obj = obj, getattr(obj, p, None)
        if obj is None:
            return None, parts[-1], None
    if not callable(obj):
        return None, parts[-1], None
    return (owner if len(parts) > 1 else None), parts[-1], obj


def _count(t: Target, sig, args, kwargs) -> float | None:
    """Work count of one call; None when the argument cannot be read."""
    if t.count is None:
        return 0.0
    if sig is None:
        return None
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return float(t.count(bound.arguments))
    except (TypeError, KeyError, ValueError):
        return None


def _observe(t: Target, stat: Stat, result) -> None:
    try:
        stat.observed = max(stat.observed, float(t.observe(result)))
    except (TypeError, AttributeError, ValueError):
        stat.unreadable = True
