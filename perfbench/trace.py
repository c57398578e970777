"""In-memory span tracer installed from the benchmark's own files.

:meth:`Tracer.add` registers a library function or method and
:meth:`Tracer.install` replaces each with a wrapper that records one
span per call: a name, start and end
(``perf_counter_ns``), the enclosing span on the same thread, and the
current op id. Spans live in per-thread column arrays, so recording
takes no lock, and are written out only when the run ends.
:meth:`Tracer.uninstall` restores every original attribute, which lets
a run alternate traced and untraced chunks.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now = time.perf_counter_ns

#: ``on_result(counts, result, args)`` — per-thread counter hook.
ResultHook = Callable[[Dict[str, int], Any, tuple], None]


class SpanBuffer:
    """One thread's spans as parallel column arrays."""

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.ops = array("q")
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, int] = defaultdict(int)

    def open(self, name_id: int) -> int:
        """Reserve a span nested in the current one; returns its index."""
        index = len(self.names)
        self.names.append(name_id)
        self.starts.append(0)
        self.ends.append(0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.stack.append(index)
        return index

    def record(self, name_id: int, start: int, end: int) -> None:
        """Add a finished span with no parent (async and cross-thread)."""
        self.names.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        self.ops.append(self.op)


class Tracer:
    """Installs span wrappers and owns every thread's buffer."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self.buffers: List[SpanBuffer] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wanted: List[Tuple[Any, str, str, Optional[ResultHook], bool]] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Stable small integer for a span name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> SpanBuffer:
        """The calling thread's buffer (created on first use)."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = SpanBuffer()
            self._local.buf = buf
            self.buffers.append(buf)
        return buf

    def set_op(self, op: int) -> None:
        """Tag the calling thread's next spans with op id ``op``."""
        self.buffer().op = op

    def _sync_wrapper(self, fn, name_id: int, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer.buffer()
            index = buf.open(name_id)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                buf.stack.pop()
                buf.starts[index] = start
                buf.ends[index] = end
            if on_result is not None:
                on_result(buf.counts, result, args)
            return result

        return wrapper

    def _async_wrapper(self, fn, name_id: int, on_result):
        tracer = self

        async def wrapper(*args, **kwargs):
            start = _now()
            result = await fn(*args, **kwargs)
            buf = tracer.buffer()
            buf.record(name_id, start, _now())
            if on_result is not None:
                on_result(buf.counts, result, args)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def add(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
        is_async: bool = False,
    ) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name``.

        For a class, the attribute is patched on the class in its MRO
        that defines it.
        """
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
        self._wanted.append((owner, attr, name, on_result, is_async))

    def install(self) -> None:
        """Patch every registered attribute (idempotent)."""
        if self._patches:
            return
        for owner, attr, name, on_result, is_async in self._wanted:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            make = self._async_wrapper if is_async else self._sync_wrapper
            wrapped = make(fn, self.name_id(name), on_result)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Counter hooks summed over every thread."""
        total: Dict[str, int] = defaultdict(int)
        for buf in self.buffers:
            for key, value in buf.counts.items():
                total[key] += value
        return total

    def aggregate(self) -> "Aggregate":
        """Per-name counts, inclusive and self time, and parent/child time."""
        agg = Aggregate()
        for buf in self.buffers:
            selfs = self_times(buf.starts, buf.ends, buf.parents)
            for index, name_id in enumerate(buf.names):
                name = self.names[name_id]
                duration = buf.ends[index] - buf.starts[index]
                agg.add(name, duration, selfs[index])
                parent = buf.parents[index]
                if parent >= 0:
                    agg.nested[(self.names[buf.names[parent]], name)] += duration
        return agg

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then raw columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            header = {
                "names": self.names,
                "buffers": [len(buf.names) for buf in self.buffers],
                "columns": ["name:i32", "start:i64", "end:i64", "parent:i32", "op:i64"],
            }
            out.write(json.dumps(header).encode() + b"\n")
            for buf in self.buffers:
                for column in (buf.names, buf.starts, buf.ends, buf.parents, buf.ops):
                    column.tofile(out)


class Aggregate:
    """Summed span statistics by name."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)

    def add(self, name: str, duration: int, self_ns: int) -> None:
        """Fold one span in."""
        self.count[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += self_ns

    def mean_us(self, name: str) -> float:
        """Mean inclusive duration (0 when the span never ran)."""
        n = self.count.get(name, 0)
        return self.total_ns[name] / n / 1000.0 if n else 0.0

    def mean_self_us(self, name: str) -> float:
        """Mean self time (0 when the span never ran)."""
        n = self.count.get(name, 0)
        return self.self_ns[name] / n / 1000.0 if n else 0.0


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span itself)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    result = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, intervals in children.items():
        low, high = starts[parent], ends[parent]
        covered = 0
        current_start = current_end = None
        for start, end in sorted(intervals):
            start, end = max(start, low), min(end, high)
            if end <= start:
                continue
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        result[parent] -= covered
    return result


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
