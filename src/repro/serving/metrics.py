"""One metrics model for every serving component, and one rule to merge it.

A :class:`Metrics` registry holds three instrument kinds behind one lock:

* :class:`Counter`, rendered under its name (``requests_total``);
* :class:`LabelledCounter`, a dict of counts under its name
  (``verify_by_verdict``) plus, optionally, their sum (``verify_total``).  A
  tuple label renders as nested dicts (``batches_by_config[cfg]["batches"]``).
  Labels are often client-influenced (a swept length penalty, a churning
  model revision), so past :attr:`Metrics.MAX_LABELS` first-level labels
  new ones count under ``"other"`` and ``/metrics`` stays bounded;
* :class:`Window`, the last :data:`WINDOW` samples, rendered as
  ``<name>_p50``/``_p95``/``_max``/``_mean`` and the sample count
  ``<name less a trailing _ms>_window`` (``latency_ms`` → ``latency_window``).

Components bind their instruments once at construction; each record is O(1)
under the lock, and :meth:`Metrics.snapshot` renders every instrument alike.
:func:`merge` pools worker snapshots the same way for every key.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable

#: Samples a :class:`Window` keeps: memory stays constant however long a
#: server runs, and the quantiles cover recent traffic.
WINDOW = 1024


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _count_key(window: str) -> str:
    return window.removesuffix("_ms") + "_window"


def _sorted(counts: dict) -> dict:
    # Numeric labels (batch sizes) sort numerically, ahead of "other".
    items = sorted(counts.items(),
                   key=lambda item: (isinstance(item[0], str), item[0]))
    return {label: _sorted(value) if isinstance(value, dict) else value
            for label, value in items}


class Counter:
    def __init__(self, lock: threading.Lock, name: str) -> None:
        self._lock = lock
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def _copy(self) -> int:
        return self.value

    def _render(self, value: int, out: dict[str, Any]) -> None:
        out[self.name] = value


class LabelledCounter:
    def __init__(self, lock: threading.Lock, name: str,
                 total: str | None = None) -> None:
        self._lock = lock
        self.name = name
        self.total = total
        self._counts: dict[Any, Any] = {}

    def inc(self, label: Any, amount: int = 1) -> None:
        path = list(label) if isinstance(label, tuple) else [label]
        with self._lock:
            if (path[0] not in self._counts
                    and len(self._counts) >= Metrics.MAX_LABELS):
                path[0] = "other"
            node = self._counts
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = node.get(path[-1], 0) + amount

    def counts(self) -> dict[Any, Any]:
        with self._lock:
            return self._copy()

    def _copy(self) -> dict[Any, Any]:
        return _sorted(self._counts)

    def _render(self, counts: dict[Any, Any], out: dict[str, Any]) -> None:
        if self.total is not None:
            out[self.total] = sum(counts.values())
        out[self.name] = counts


class Window:
    def __init__(self, lock: threading.Lock, name: str) -> None:
        self._lock = lock
        self.name = name
        self._samples: deque[float] = deque(maxlen=WINDOW)

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)

    def _copy(self) -> list[float]:
        return list(self._samples)

    def _render(self, samples: list[float], out: dict[str, Any]) -> None:
        out[f"{self.name}_p50"] = percentile(samples, 0.50)
        out[f"{self.name}_p95"] = percentile(samples, 0.95)
        out[f"{self.name}_max"] = max(samples, default=0.0)
        out[f"{self.name}_mean"] = (sum(samples) / len(samples)
                                    if samples else 0.0)
        out[_count_key(self.name)] = len(samples)


class Metrics:
    """A registry of named instruments.  ``counter``/``labelled``/``window``
    return the instrument of that name, creating it on first use, so
    components sharing a registry bind their own instruments into it."""

    MAX_LABELS = 32

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        return self._bind(Counter, name)

    def labelled(self, name: str, *, total: str | None = None) -> LabelledCounter:
        return self._bind(LabelledCounter, name, total)

    def window(self, name: str) -> Window:
        return self._bind(Window, name)

    def _bind(self, kind: type, name: str, *args: Any) -> Any:
        with self._lock:
            if name not in self._instruments:
                self._instruments[name] = kind(self._lock, name, *args)
            return self._instruments[name]

    def snapshot(self) -> dict[str, Any]:
        """Every instrument, rendered into one JSON-serialisable dict (the
        quantiles are computed outside the lock)."""
        with self._lock:
            states = [(instrument, instrument._copy())
                      for instrument in self._instruments.values()]
        out: dict[str, Any] = {}
        for instrument, state in states:
            instrument._render(state, out)
        return out


class RouterMetrics(Metrics):
    """The router's registry.  Retries go through :meth:`record_retry` so
    that a profiler can count them by one stable name."""

    def record_retry(self, worker: str) -> None:
        self.labelled("failures_by_worker", total="retries_total").inc(worker)


def merge(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Pool registry snapshots: integers (counters, sample counts) and dicts
    of them (labelled counters) sum; ``<window>_mean`` is weighted by its
    sample count; quantiles, maxima and other values describe one process
    and are left out."""
    merged: dict[str, Any] = {}
    weighted: dict[str, tuple[float, int]] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key.endswith(("_p50", "_p95", "_max")):
                continue
            if key.endswith("_mean"):
                count = snapshot.get(_count_key(key.removesuffix("_mean")), 0)
                total, samples = weighted.get(key, (0.0, 0))
                weighted[key] = (total + value * count, samples + count)
            else:
                _add(merged, key, value)
    for key, (total, samples) in weighted.items():
        merged[key] = total / samples if samples else 0.0
    return merged


def _add(into: dict[str, Any], key: str, value: Any) -> None:
    if isinstance(value, dict):
        node = into.setdefault(key, {})
        for label, count in value.items():
            _add(node, label, count)
    elif isinstance(value, int) and not isinstance(value, bool):
        into[key] = into.get(key, 0) + value
