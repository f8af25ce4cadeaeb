"""In-memory span tracer that wraps a program's functions from outside.

The traced run installs :class:`Tracer` wrappers around named functions and
methods of the program (see :mod:`layers` for the table).  The program's own
code is not modified: a wrapper replaces the attribute on its class, or on
every loaded module that imported the function by name.

Each wrapped call is a *span*.  Spans nest per thread; a span's **self time**
is its duration minus the part covered by its traced child spans.  Every
span reports its self time into the nearest enclosing *unit* span (one HTTP
request, one decode step, one optimizer step); a span with no enclosing unit
is its own sample.  A metric's value is the median over the samples that
touched it.

Three extra kinds of target record numbers rather than time:

* ``count`` targets add an integer per call (``count_fn`` may derive it from
  the call's arguments or result);
* ``value`` targets record one sample per call (``value_fn``), reported as a
  median or mean;
* ``leaf`` spans suppress every traced call nested under them, so a forward
  pass is timed whole instead of being split into its sub-layers.

A target whose module or attribute no longer exists is recorded as missing;
the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and what it reports."""

    #: ``"package.module:Class.method"`` or ``"package.module:function"``.
    path: str
    #: Metric the span's self time (or count/value) is reported under.
    metric: str
    #: ``span`` | ``leaf`` | ``count`` | ``value``.
    kind: str = "span"
    #: A unit span groups the self time of everything nested under it into
    #: one sample (one request, one step).
    unit: bool = False
    #: Only record when the innermost traced parent is one of these metrics;
    #: otherwise the call's time stays in the parent's self time.
    only_under: tuple[str, ...] = ()
    #: ``(args, kwargs) -> metric`` override, e.g. self- vs cross-attention.
    name_fn: Callable | None = None
    #: ``(args, kwargs, result) -> int`` for count targets (default 1).
    count_fn: Callable | None = None
    #: ``(args, kwargs, result, seconds) -> float | None`` for value targets.
    value_fn: Callable | None = None
    #: Called on entry: ``(args, kwargs, tracer)``; for side samples.
    enter_fn: Callable | None = None


@dataclass
class _Frame:
    metric: str
    start: float
    unit: bool
    leaf: bool
    child: float = 0.0
    acc: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Records spans, counts and values; aggregates them into metrics."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        # Re-entrant: the SIGUSR1 (reset) and SIGTERM (dump) handlers run on
        # the main thread, which may be holding the lock when they fire.
        self._lock = threading.RLock()
        #: metric -> per-sample self seconds (one per unit that touched it).
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.values: dict[str, list[float]] = {}
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, metric: str, *, unit: bool = False, leaf: bool = False,
              only_under: tuple[str, ...] = ()) -> _Frame | None:
        """Open a span; returns None when the call is not to be recorded."""
        stack = self._stack()
        if stack and stack[-1].leaf:
            return None
        if only_under and (not stack or stack[-1].metric not in only_under):
            return None
        frame = _Frame(metric, self.clock(), unit, leaf)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame | None) -> float:
        """Close ``frame``; returns its duration in seconds."""
        if frame is None:
            return 0.0
        duration = self.clock() - frame.start
        stack = self._stack()
        stack.pop()
        own = duration - frame.child
        if stack:
            stack[-1].child += duration
        owner = frame if frame.unit else next(
            (f for f in reversed(stack) if f.unit), None)
        if owner is None:
            self._add_samples({frame.metric: own})
        else:
            owner.acc[frame.metric] = owner.acc.get(frame.metric, 0.0) + own
        if frame.unit:
            self._add_samples(frame.acc)
        return duration

    def _add_samples(self, acc: dict[str, float]) -> None:
        with self._lock:
            for metric, seconds in acc.items():
                self.samples.setdefault(metric, []).append(seconds)

    def count(self, metric: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + amount

    def value(self, metric: str, sample: float) -> None:
        with self._lock:
            self.values.setdefault(metric, []).append(float(sample))

    def reset(self, keep_prefix: str = "setup.") -> None:
        """Forget everything recorded so far except ``keep_prefix`` metrics
        (called when the timed part of a run starts)."""
        with self._lock:
            for table in (self.samples, self.counts, self.values):
                for metric in [m for m in table if not m.startswith(keep_prefix)]:
                    del table[metric]

    # ---------------------------------------------------------- installing

    def wrap(self, target: Target, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            metric = target.metric
            if target.name_fn is not None:
                metric = _hook(target.name_fn, args, kwargs) or metric
            if target.enter_fn is not None:
                _hook(target.enter_fn, args, kwargs, tracer)
            if target.kind == "count":
                result = func(*args, **kwargs)
                amount = (_hook(target.count_fn, args, kwargs, result)
                          if target.count_fn else 1)
                if amount:
                    tracer.count(metric, int(amount))
                return result
            if target.kind == "value":
                start = tracer.clock()
                result = func(*args, **kwargs)
                sample = _hook(target.value_fn, args, kwargs, result,
                               tracer.clock() - start)
                if sample is not None:
                    tracer.value(metric, sample)
                return result
            frame = tracer.enter(metric, unit=target.unit,
                                 leaf=target.kind == "leaf",
                                 only_under=target.only_under)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__perfbench_original__ = func
        return traced

    def install(self, targets: list[Target]) -> None:
        """Wrap every target that exists; record the others as missing."""
        for target in targets:
            if self._install_one(target):
                self.installed.append(target.path)
            else:
                self.missing.append(target.path)

    def _install_one(self, target: Target) -> bool:
        module_name, _, qualname = target.path.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        *owners, attr = qualname.split(".")
        owner: Any = module
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        if not hasattr(owner, attr):
            return False
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(target, raw.__func__))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(target, raw.__func__))
            elif callable(raw):
                wrapped = self.wrap(target, raw)
            else:
                return False
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        func = getattr(owner, attr)
        if not callable(func):
            return False
        wrapped = self.wrap(target, func)
        # Rebind the name in every loaded module that imported it directly.
        for loaded in list(sys.modules.values()):
            if loaded is None:
                continue
            try:
                namespace = vars(loaded)
            except TypeError:
                continue
            for name, value in list(namespace.items()):
                if value is func:
                    self._restore.append((loaded, name, func))
                    setattr(loaded, name, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counts": dict(self.counts),
                "values": {k: list(v) for k, v in self.values.items()},
                "installed": list(self.installed),
                "missing": list(self.missing),
            }

    def dump(self, path: str) -> None:
        """Write the snapshot to ``path`` atomically: a process killed while
        dumping leaves no half-written trace file behind."""
        partial = path + ".partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(partial, path)


def _hook(fn: Callable, *args):
    """Run a target's hook; a hook that no longer fits the program's
    signatures records nothing instead of breaking the traced call."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 — tracing must never fail the program
        return None


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine the trace files of several processes into one snapshot."""
    merged: dict = {"samples": {}, "counts": {}, "values": {},
                    "installed": [], "missing": []}
    for snap in snapshots:
        for key in ("samples", "values"):
            for metric, items in snap.get(key, {}).items():
                merged[key].setdefault(metric, []).extend(items)
        for metric, amount in snap.get("counts", {}).items():
            merged["counts"][metric] = merged["counts"].get(metric, 0) + amount
        for key in ("installed", "missing"):
            merged[key] = sorted(set(merged[key]) | set(snap.get(key, [])))
    # A target installed in any process is not missing.
    merged["missing"] = [m for m in merged["missing"]
                         if m not in merged["installed"]]
    return merged


def median_ms(samples: list[float]) -> float:
    """Median of per-sample seconds, in milliseconds (0.0 when empty)."""
    return statistics.median(samples) * 1000.0 if samples else 0.0
