"""Attach / detach a tracer across a topology's component graph.

Components carry a ``tracer`` attribute defaulting to
:data:`~repro.obs.tracer.NULL_TRACER` and emit behind an ``enabled``
guard.  Each topology knows what it is built from: its ``_trace(tracer)``
hands the tracer to every part, and it traces a part it builds later (or
silences one it drops) at that moment.  This module holds only the attach
handle and the version-control bridges.  VC events ride the module's
existing observer hook — no tracing code lives in ``VersionControl``
itself — which is why :meth:`VersionControl.unsubscribe` exists: the bridge
must detach on run teardown or a long-lived VC module would keep dead
exporters alive and emitting.

Usage::

    tracer = Tracer(exporters=[JsonlExporter("run.jsonl")])
    handle = attach_tracer(scheduler, tracer)
    ...  # run the workload
    handle.detach()   # unsubscribes VC observers, restores NULL_TRACER
    tracer.close()
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.tracer import NULL_TRACER, Tracer


def subscribe_version_control(vc: Any, tracer: Tracer) -> Callable[[str, int], None] | None:
    """Bridge a VersionControl module's observer hook onto ``tracer``.

    Emits ``vc.register`` / ``vc.advance`` / ``vc.discard`` events carrying
    the counter movement plus the module's current ``tnc``/``vtnc``/``lag``,
    so visibility-lag trajectories can be reconstructed from the trace alone.
    Returns the subscribed observer (pass it to ``vc.unsubscribe``), or
    ``None`` when the tracer is disabled — a null tracer must leave the
    module's observer list untouched so the disabled path stays free.
    """
    if not tracer.enabled:
        return None

    def observer(event: str, number: int) -> None:
        tracer.emit(f"vc.{event}", number, vc.tnc, vc.vtnc, vc.lag)

    vc.subscribe(observer)
    return observer


def subscribe_distributed_site_vc(site: Any, tracer: Tracer) -> Callable[[int], None] | None:
    """Bridge one distributed site's VC onto ``tracer`` as ``dvc.advance``.

    A distributed/sharded database has one independent GTN counter per
    site, so there is no single monotone ``tnc``/``vtnc`` stream — the
    witness's sealing floors need the *per-site* watermarks (the floor is
    the minimum over sites, not the maximum a shared ``vc.*`` stream would
    report).  Each advance emits ``dvc.advance`` with the site id, its new
    watermark, and the highest number the site has issued so far; one
    event fires at subscription too, so every site is known to consumers
    from the start of the run and from each restart.  Returns the
    subscribed observer (for ``vc.unsubscribe``), or ``None`` when the
    tracer is disabled.
    """
    if not tracer.enabled:
        return None
    vc = site.vc

    def observer(vtnc: int) -> None:
        tracer.emit("dvc.advance", vc.site_id, vtnc, vc.next_local_number - 1)

    vc.subscribe(observer)
    observer(vc.vtnc)
    return observer


class Instrumentation:
    """Handle for one attach: :meth:`detach` takes the tracer back."""

    def __init__(self, target: Any):
        self.target = target

    def detach(self) -> None:
        """Restore NULL_TRACER on every part and unsubscribe the VC bridges
        (idempotent: the target's ``_trace`` is)."""
        self.target._trace(NULL_TRACER)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


def attach_tracer(target: Any, tracer: Tracer) -> Instrumentation:
    """Give ``tracer`` to ``target``, a scheduler or any topology built of
    them (a distributed or sharded database, a replica cluster).

    The target passes it on to every part it is built from, and keeps
    doing so for parts it builds later (a restarted site's lock manager and
    VC, a promoted primary and its shipper, an added replica), so one
    attach traces the whole run.  Returns an :class:`Instrumentation`
    handle whose :meth:`~Instrumentation.detach` takes the tracer back from
    every part — always detach on run teardown.
    """
    target._trace(tracer)
    return Instrumentation(target)
