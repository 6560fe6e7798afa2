"""Trace exporters: ring buffer and JSONL file.

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

import json
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

