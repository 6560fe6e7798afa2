"""A single-server FIFO queue on the virtual clock."""

from __future__ import annotations

from collections import deque

from repro.core.futures import OpFuture
from repro.sim.engine import Simulator


class FifoServer:
    """Serving capacity — a replica's reads, a shard's commit pipeline: one
    request at a time, in arrival order, each costing ``service_time``."""

    def __init__(self, sim: Simulator, service_time: float):
        self.sim = sim
        self.service_time = service_time
        self.queue: deque[OpFuture] = deque()
        self.busy = False

    def submit(self) -> OpFuture:
        """Queue for a turn; the returned future resolves when it is over."""
        slot = OpFuture(label="fifo-slot")
        self.queue.append(slot)
        if not self.busy:
            self._start_next()
        return slot

    def _start_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        slot = self.queue.popleft()

        def done() -> None:
            slot.resolve(None)
            self._start_next()

        self.sim.call_in(self.service_time, done)
