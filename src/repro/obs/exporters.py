"""Trace exporters: ring buffer, JSONL file, console summary.

An exporter is anything with ``export(event)`` and an optional ``close()``,
where ``event`` is the dict one JSONL line decodes to: ``name``, ``ts``,
then the fields in emit order.  (Live, the field values are the emitter's
own objects — a tuple key is a tuple until the JSONL exporter writes it.)
The tracer builds that dict once per event and hands the same object to
every exporter, so an exporter must not mutate it.  Exporters are
synchronous and see events in emit order — the tracer stamps timestamps
before fan-out, so every exporter records the same virtual-time view of
the run.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter as _TallyCounter
from collections import deque
from typing import IO, Any


class RingBufferExporter:
    """Keep the most recent ``capacity`` events in memory.

    The default capacity is large enough for a whole experiment run but
    bounded, so an always-on tracer cannot exhaust memory.  ``events()``
    returns a snapshot list of the event dicts themselves, oldest first.
    """

    def __init__(self, capacity: int = 65_536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0

    def export(self, event: dict[str, Any]) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> list[dict[str, Any]]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlExporter:
    """Write one JSON object per event to a file (the trace-CLI input format).

    Non-JSON field values (tuple keys, enums, transactions) are serialized
    via ``repr`` rather than erroring — a trace must never kill the run it
    observes.  Use as a context manager, or call :meth:`close` explicitly,
    to flush and release the file handle.
    """

    def __init__(self, path_or_stream: str | IO[str]):
        if isinstance(path_or_stream, (str, bytes)):
            self.path: str | None = str(path_or_stream)
            self._stream: IO[str] = open(path_or_stream, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self.path = None
            self._stream = path_or_stream
            self._owns_stream = False
        self.exported = 0
        self._closed = False

    def export(self, event: dict[str, Any]) -> None:
        if self._closed:
            return
        json.dump(event, self._stream, default=repr, separators=(",", ":"))
        self._stream.write("\n")
        self.exported += 1

    def flush(self) -> None:
        self._stream.flush()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush-then-close, exactly once: every exported event is on disk
        (or in the caller's stream) the moment this returns, so a trace
        file is deterministically complete — never truncated mid-line."""
        if self._closed:
            return
        self._closed = True
        if not self._stream.closed:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ConsoleSummaryExporter:
    """Tally events by name and print a human-readable summary on close.

    Deliberately stores no events — only per-name counts and the time span —
    so it is safe for arbitrarily long runs.  ``summary()`` renders the
    table at any point without closing.
    """

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream if stream is not None else sys.stdout
        self._tally: _TallyCounter[str] = _TallyCounter()
        self._first_ts: float | None = None
        self._last_ts: float | None = None
        self._closed = False

    def export(self, event: dict[str, Any]) -> None:
        self._tally[event["name"]] += 1
        if self._first_ts is None:
            self._first_ts = event["ts"]
        self._last_ts = event["ts"]

    def counts(self) -> dict[str, int]:
        return dict(self._tally)

    def summary(self) -> str:
        total = sum(self._tally.values())
        if not total:
            return "trace summary: no events"
        out = io.StringIO()
        span = (self._last_ts or 0.0) - (self._first_ts or 0.0)
        out.write(f"trace summary: {total} events over {span:g} time units\n")
        width = max(len(name) for name in self._tally)
        for name, count in sorted(self._tally.items(), key=lambda kv: (-kv[1], kv[0])):
            out.write(f"  {name:<{width}}  {count}\n")
        return out.getvalue().rstrip("\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        print(self.summary(), file=self._stream)
