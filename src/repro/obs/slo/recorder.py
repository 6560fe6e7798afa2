"""The breach-triggered flight recorder: bounded history, diagnostic bundles.

A :class:`FlightRecorder` is a :class:`~repro.obs.exporters.RingBufferExporter`
— the most recent events in a bounded ring, cheap enough to leave on for a
whole campaign — and, when the SLO engine
declares a breach, freezes the slice around the breach window into a
*diagnostic bundle*: the raw events, who-blocked-whom chains
(:func:`repro.obs.analyze.blocking_chains`), the critical-path phase
profile of the transactions completed inside the window
(:mod:`repro.obs.profile`), an event tally, and a counter snapshot.  The
point is that the cause is captured *at the moment it happened* — the
partition that froze a replica, the convoy that spiked a p99 — instead of
being reconstructed from a full trace later.

Bundles serialize to JSONL (:meth:`FlightRecorder.write_bundle`): a header
line (breach + analysis), then one event per line, everything sorted-key
JSON with ``repr`` fallback — byte-identical across same-trace replays.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, TYPE_CHECKING

from repro.obs.exporters import RingBufferExporter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.slo.engine import Breach

BUNDLE_SCHEMA = "repro.slo.bundle/1"


class FlightRecorder(RingBufferExporter):
    """A ring of recent event dicts, snapshottable around a breach.

    An engine holding one exports every event it takes into it; on its own
    it is an exporter like any other ring.
    """

    def window(self, start: float, end: float) -> list[dict[str, Any]]:
        """Events stamped within ``[start, end]``, ring order preserved."""
        return [e for e in self._buffer if start <= e["ts"] <= end]

    def bundle(
        self,
        breach: "Breach",
        *,
        pre_roll: float = 0.0,
        counters: dict | None = None,
    ) -> dict[str, Any]:
        """Freeze the breach window (plus ``pre_roll`` of history) into a
        diagnostic bundle dict."""
        from repro.obs.analyze import blocking_chains
        from repro.obs.profile import aggregate_phase_shares
        from repro.obs.spans import transaction_trees

        start = breach.window_start - pre_roll
        end = breach.window_end
        events = self.window(start, end)
        tally = Counter(e.get("name", "?") for e in events)
        chains = blocking_chains(events)
        trees = transaction_trees(events)
        finished = [root for root in trees.values() if root.end is not None]
        shares = aggregate_phase_shares(finished)
        return {
            "schema": BUNDLE_SCHEMA,
            "breach": breach.as_dict(),
            "window": [round(start, 9), round(end, 9)],
            "events_in_window": len(events),
            "ring_dropped": self.dropped,
            "event_tally": dict(sorted(tally.items())),
            "blocking_chains": chains,
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
