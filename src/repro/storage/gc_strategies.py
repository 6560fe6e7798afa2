"""Garbage-collection strategies over the version-control horizon.

Paper Section 6 presents garbage collection as an area the decoupling opens
for experimentation: any collector is correct as long as it respects the
horizon (``min(vtnc, oldest active read-only start number)``).  Three
strategies are provided, all consuming only version-control state:

* **periodic** — sweep the whole store every N time units (the default the
  bench runner drives);
* **eager** — sweep whenever visibility has advanced by at least a stride
  since the last sweep, reclaiming promptly at the cost of more sweeps;
* **budgeted** — amortized incremental sweeps touching at most K objects per
  pass, round-robin, bounding per-pass latency.

The ablation experiment (ABL-GC, ``repro.bench.ablations``) compares
retained-version footprints and per-pass work across strategies.
"""

from __future__ import annotations

from repro.core.version_control import VersionControl
from repro.storage.gc import GarbageCollector, ReadOnlyRegistry
from repro.storage.mvstore import MVStore


class EagerCollector(GarbageCollector):
    """Collects whenever visibility advanced by at least ``stride``.

    Subscribes to the version-control module's advance events; the paper's
    modularity shows here — no scheduler or CC code is touched.
    """

    def __init__(
        self,
        store: MVStore,
        version_control: VersionControl,
        registry: ReadOnlyRegistry | None = None,
        stride: int = 1,
    ):
        super().__init__(store, version_control, registry)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self._last_collected_at = version_control.vtnc
        version_control.subscribe(self._on_event)

    def _on_event(self, event: str, _number: int) -> None:
        if event != "advance":
            return
        if self._vc.vtnc - self._last_collected_at >= self.stride:
            self._last_collected_at = self._vc.vtnc
            self.collect()


class BudgetedCollector(GarbageCollector):
    """Incremental round-robin collection with a per-pass object budget."""

    def __init__(
        self,
        store: MVStore,
        version_control: VersionControl,
        registry: ReadOnlyRegistry | None = None,
        budget: int = 16,
    ):
        super().__init__(store, version_control, registry)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self._cursor = 0

    def collect(self) -> int:
        if self.bounded:
            discarded, self._cursor = self._store.prune_some(
                self.horizon(),
                self.budget,
                self._cursor,
                pins=self.registry.active_sns(),
                visible=self._vc.vtnc,
            )
        else:
            discarded, self._cursor = self._store.prune_some(
                self.horizon(), self.budget, self._cursor
            )
        self.total_discarded += discarded
        self.passes += 1
        return discarded


STRATEGIES = {
    "periodic": GarbageCollector,
    "eager": EagerCollector,
    "budgeted": BudgetedCollector,
}
