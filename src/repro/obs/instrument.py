"""Attach / detach a tracer across a scheduler's component graph.

Instrumentation is deliberately *external*: components carry a ``tracer``
attribute defaulting to :data:`~repro.obs.tracer.NULL_TRACER` and emit
behind an ``enabled`` guard, and this module is the one place that knows
which components a scheduler is built from (lock manager, version control,
garbage collector, write-ahead log, nested engines).  Version-control
events ride the module's existing observer hook — no tracing code lives in
``VersionControl`` itself — which is why :meth:`VersionControl.unsubscribe`
exists: the observer must detach on run teardown or a long-lived VC module
would keep dead exporters alive and emitting.

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
        tracer.emit(
            f"vc.{event}",
            number=number,
            tnc=vc.tnc,
            vtnc=vc.vtnc,
            lag=vc.lag,
        )

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
    from the start of the run.  Returns the subscribed observer (for
    ``vc.unsubscribe``), or ``None`` when the tracer is disabled.
    """
    if not tracer.enabled:
        return None
    vc = site.vc

    def observer(vtnc: int) -> None:
        tracer.emit(
            "dvc.advance",
            site=vc.site_id,
            vtnc=vtnc,
            tnc=vc.next_local_number - 1,
        )

    vc.subscribe(observer)
    observer(vc.vtnc)
    return observer


class Instrumentation:
    """Handle for one attach: remembers what to undo."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._tracer_slots: list[Any] = []  # objects whose .tracer we set
        self._vc_observers: list[tuple[Any, Callable[[str, int], None]]] = []
        self._detached = False

    def _set_tracer(self, obj: Any) -> None:
        if obj is not None and hasattr(obj, "tracer"):
            obj.tracer = self.tracer
            self._tracer_slots.append(obj)

    def _subscribe_vc(self, vc: Any) -> None:
        if vc is None or any(existing is vc for existing, _ in self._vc_observers):
            return
        observer = subscribe_version_control(vc, self.tracer)
        if observer is not None:
            self._vc_observers.append((vc, observer))

    def detach(self) -> None:
        """Restore NULL_TRACER everywhere and unsubscribe VC observers."""
        if self._detached:
            return
        self._detached = True
        for obj in self._tracer_slots:
            obj.tracer = NULL_TRACER
        self._tracer_slots.clear()
        for vc, observer in self._vc_observers:
            vc.unsubscribe(observer)
        self._vc_observers.clear()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


def attach_tracer(scheduler: Any, tracer: Tracer) -> Instrumentation:
    """Wire ``tracer`` through every instrumented component of ``scheduler``.

    Touches, when present: the scheduler itself and its ``counters`` (txn
    lifecycle, cc/vc interaction, block, syncwrite events), ``locks`` (lock
    grant/block/release, deadlock events), ``gc`` (sweep events), ``log``
    (WAL append/force/crash events), and ``vc`` (via the observer hook).
    Nested engines (the adaptive scheduler) are instrumented recursively.
    Returns an :class:`Instrumentation` handle whose :meth:`~Instrumentation.detach`
    undoes everything — always detach on run teardown.
    """
    handle = Instrumentation(tracer)
    _attach_one(scheduler, handle)
    engines = getattr(scheduler, "_engines", None)
    if isinstance(engines, dict):
        for engine in engines.values():
            _attach_one(engine, handle)
    # Distributed databases: the courier (message + fault.* events), each
    # site's lock manager and WAL, and each site's version control via the
    # ``dvc.advance`` bridge (per-site watermarks — a multi-primary run has
    # no single monotone counter stream, so consumers like the witness take
    # floors over sites).
    handle._set_tracer(getattr(scheduler, "courier", None))
    sites = getattr(scheduler, "sites", None)
    if isinstance(sites, dict):
        for site in sites.values():
            handle._set_tracer(getattr(site, "locks", None))
            handle._set_tracer(getattr(site, "wal", None))
            site_vc = getattr(site, "vc", None)
            if site_vc is not None and not any(
                existing is site_vc for existing, _ in handle._vc_observers
            ):
                observer = subscribe_distributed_site_vc(site, tracer)
                if observer is not None:
                    handle._vc_observers.append((site_vc, observer))
            # Sharded databases: each shard may carry its own replica chain
            # (repro.shard.ShardNode) — instrument its shipper and replicas
            # the same way a ReplicaCluster's are.
            handle._set_tracer(getattr(site, "shipper", None))
            site_replicas = getattr(site, "replicas", None)
            if isinstance(site_replicas, dict):
                for replica in site_replicas.values():
                    handle._set_tracer(replica)
                    handle._set_tracer(getattr(replica, "counters", None))
    # The admission controller (repro.qos), when installed, emits
    # qos.admit/qos.shed events.
    handle._set_tracer(getattr(scheduler, "admission", None))
    # Replica clusters (repro.replica): passing a ReplicaCluster — or a
    # ReplicatedDatabase carrying one — instruments the primary scheduler,
    # the log shipper (replica.ship / replica.ack), and every replica node
    # (replica.watermark / replica.ro_snapshot) plus its counters.  A
    # fail-over builds a fresh primary and shipper, so re-attach after
    # promotion if those need tracing too.
    cluster = getattr(scheduler, "cluster", None)
    if cluster is None and hasattr(scheduler, "shipper"):
        cluster = scheduler
    if cluster is not None:
        if cluster is not scheduler:
            handle._set_tracer(cluster)
            handle._set_tracer(getattr(cluster, "counters", None))
        primary = getattr(cluster, "primary", None)
        if primary is not None and primary is not scheduler:
            _attach_one(primary, handle)
        handle._set_tracer(getattr(cluster, "shipper", None))
        # Quorum mode: the gate (quorum.advance / quorum.lease /
        # quorum.fenced) and the failure-detection supervisor
        # (detect.suspect / detect.vote / detect.failover).
        handle._set_tracer(getattr(cluster, "gate", None))
        handle._set_tracer(getattr(cluster, "supervisor", None))
        replicas = getattr(cluster, "replicas", None)
        if isinstance(replicas, dict):
            for replica in replicas.values():
                handle._set_tracer(replica)
                handle._set_tracer(getattr(replica, "counters", None))
    return handle


def _attach_one(scheduler: Any, handle: Instrumentation) -> None:
    handle._set_tracer(scheduler)
    handle._set_tracer(getattr(scheduler, "counters", None))
    # The history recorder emits history.* events — the operation stream the
    # online serializability witness (repro.obs.witness) certifies.
    handle._set_tracer(getattr(scheduler, "recorder", None))
    locks = getattr(scheduler, "locks", None)
    handle._set_tracer(locks)
    if locks is not None:
        handle._set_tracer(getattr(locks, "waits_for", None))
    handle._set_tracer(getattr(scheduler, "gc", None))
    handle._set_tracer(getattr(scheduler, "log", None))
    handle._subscribe_vc(getattr(scheduler, "vc", None))
