"""The breach-triggered flight recorder: bounded history, diagnostic bundles.

A :class:`FlightRecorder` is a :class:`~repro.obs.exporters.RingBufferExporter`
— the most recent events in a bounded ring, cheap enough to leave on for a
whole campaign — and, when the SLO engine declares a breach, freezes the
slice around the breach window into a *diagnostic bundle*: the raw events,
a counter snapshot, and, read off one :class:`repro.obs.analyze.TraceIndex`
over the events, an event tally, who-blocked-whom chains and the
critical-path phase profile of the transactions completed inside the
window (:mod:`repro.obs.profile`).  The point is that the cause is captured
*at the moment it happened* — the partition that froze a replica, the
convoy that spiked a p99 — instead of being reconstructed from a full
trace later.

Bundles serialize to JSONL (:meth:`FlightRecorder.write_bundle`): a header
line (breach + analysis), then one event per line, everything sorted-key
JSON with ``repr`` fallback — byte-identical across same-trace replays.
"""

from __future__ import annotations

import json
from typing import Any, TYPE_CHECKING

from repro.obs.events import as_dict
from repro.obs.exporters import RingBufferExporter
from repro.obs.profile import aggregate_phase_shares

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.slo.engine import Breach

BUNDLE_SCHEMA = "repro.slo.bundle/1"


class FlightRecorder(RingBufferExporter):
    """A ring of recent event records, snapshottable around a breach.

    An engine holding one exports every event it takes into it; on its own
    it is an exporter like any other ring.
    """

    def window(self, start: float, end: float) -> list[dict[str, Any]]:
        """The dicts of the events stamped within ``[start, end]``, ring
        order preserved."""
        return [as_dict(e) for e in self._buffer if start <= e[1] <= end]

    def bundle(
        self,
        breach: "Breach",
        *,
        pre_roll: float = 0.0,
        counters: dict | None = None,
    ) -> dict[str, Any]:
        """Freeze the breach window (plus ``pre_roll`` of history) into a
        diagnostic bundle dict."""
        # Imported here, not at the top: a run that never breaches should not
        # pay for loading the offline trace reader.
        from repro.obs.analyze import index_trace

        start = breach.window_start - pre_roll
        end = breach.window_end
        events = self.window(start, end)
        index = index_trace(events)
        shares = aggregate_phase_shares(
            root for root in index.transaction_trees().values() if root.end is not None
        )
        return {
            "schema": BUNDLE_SCHEMA,
            "breach": breach.as_dict(),
            "window": [round(start, 9), round(end, 9)],
            "events_in_window": len(events),
            "ring_dropped": self.dropped,
            "event_tally": dict(sorted(index.counts.items())),
            "blocking_chains": index.chains,
            "critical_path": {
                phase: round(share, 6) for phase, share in shares.items()
            },
            "counters": counters if counters is not None else {},
            "events": events,
        }

    @staticmethod
    def write_bundle(bundle: dict[str, Any], path: str) -> None:
        """Write a bundle as JSONL: header line first, then one event per
        line.  Sorted keys + ``repr`` fallback keep the bytes deterministic
        and the file safe to write mid-run."""
        header = {k: v for k, v in bundle.items() if k != "events"}
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                header, stream, default=repr, sort_keys=True, separators=(",", ":")
            )
            stream.write("\n")
            for event in bundle["events"]:
                json.dump(
                    event, stream, default=repr, sort_keys=True, separators=(",", ":")
                )
                stream.write("\n")
            stream.flush()
