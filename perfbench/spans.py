"""Spans and counters recorded from outside the program.

Each layer is measured by replacing a public function with a wrapper at the
place where its caller looks the name up (many modules import names with
``from .x import y``, so ``rules.entails`` and ``problems.entails`` are
wrapped separately). A wrapper opens a span on entry and closes it on exit;
spans nest per thread, so a layer's self time is its duration minus the
time of its child spans. Spans stay in memory, in per-thread arrays, and are
written out once the run ends.
"""

from __future__ import annotations

import array
import json
import math
import threading
import time
from collections import defaultdict


class _Buffer:
    """The spans one thread opened: name id, parent index, start, end."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.names = array.array("H")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.counters: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def add_distinct(self, counter: str, key) -> None:
        """counters[counter] becomes the number of distinct keys seen."""
        with self._lock:
            seen = self._distinct[counter]
            seen.add(key)
            self.counters[counter] = len(seen)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """fn wrapped in a span; on_result(result, args, kwargs) may count."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.names)
            buf.names.append(name_id)
            buf.parents.append(buf.stack[-1] if buf.stack else -1)
            buf.ends.append(0.0)
            buf.stack.append(idx)
            buf.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                buf.ends[idx] = time.perf_counter()
                buf.stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            buf.ends[idx] = time.perf_counter()
            buf.stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result, on_error))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading -----------------------------------------------------------

    def summary(self, keep_durations=()) -> dict[str, dict]:
        """Per span name: count, total (inclusive) seconds, self seconds and
        how many spans had a parent of each name; for the names in
        keep_durations also every span's duration."""
        out: dict[str, dict] = {}
        for buf in self._buffers:
            child_time = [0.0] * len(buf.names)
            for i, parent in enumerate(buf.parents):
                if parent >= 0:
                    child_time[parent] += buf.ends[i] - buf.starts[i]
            for i, name_id in enumerate(buf.names):
                name = self._names[name_id]
                entry = out.setdefault(
                    name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "parents": {}}
                )
                duration = buf.ends[i] - buf.starts[i]
                entry["count"] += 1
                entry["total_s"] += duration
                entry["self_s"] += duration - child_time[i]
                if name in keep_durations:
                    entry["durations"].append(duration)
                parent = buf.parents[i]
                parent_name = self._names[buf.names[parent]] if parent >= 0 else None
                entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
        return out

    def write_spans(self, path) -> None:
        """One JSON line per thread: its span names, parents, starts, ends."""
        with open(path, "w", encoding="utf-8") as fh:
            for buf in self._buffers:
                fh.write(
                    json.dumps(
                        {
                            "thread": buf.thread_name,
                            "names": [self._names[i] for i in buf.names],
                            "parents": list(buf.parents),
                            "starts": list(buf.starts),
                            "ends": list(buf.ends),
                        }
                    )
                )
                fh.write("\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
