"""The event registry: every name the system emits, as data, and the
record form the tracer, its sinks and ``replay`` share.

One entry per event name: the layer whose code emits it (the package under
``repro/``), the fields every emit of it carries, the fields some emits
add, and who emits it.  Any event may also carry :data:`AMBIENT` — the
``span``/``trace`` ids the tracer stamps while a span is active — and the
two span events take free-form extra fields (``free_form``).

The table is read at run time.  An event travels as a *record*,
``(name, ts, fields, optional, active)``: the required values in registry
order, the dict of optional ones or ``None``, and the span context it was
emitted under or ``None``.  Consumers read ``fields`` at the
:func:`positions` they look up once.  Where an event is kept,
:func:`as_dict` builds its dict — ``name``, ``ts``, the required fields,
the optional ones, then ``span``/``trace`` — and fails, naming the event,
on a record of the wrong arity; :func:`record` maps a decoded trace line
back.  ``tests/obs/test_events.py`` holds the emit sites, traced runs,
engine subscriptions and the docs' schema table (:func:`schema_table`,
``docs/observability.md``) to this table.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class EventSpec(NamedTuple):
    """One event name's contract."""

    layer: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    by: str = ""
    free_form: bool = False


#: Fields the tracer itself stamps on any event emitted inside a span.
AMBIENT = ("span", "trace")


def _spec(layer: str, required: str, optional: str = "", by: str = "", *, free_form: bool = False):
    return EventSpec(layer, tuple(required.split()), tuple(optional.split()), by, free_form)


EVENTS: dict[str, EventSpec] = {
    # Transaction lifecycle and module interaction (core/interface.py).
    "txn.begin": _spec("core", "txn cls", by="every scheduler (via counters)"),
    "txn.commit": _spec("core", "txn cls tn", by="every scheduler"),
    "txn.abort": _spec("core", "txn cls reason ro_caused", by="every scheduler"),
    "txn.block": _spec("core", "txn cls cause", by="every scheduler"),
    "txn.syncwrite": _spec(
        "core", "txn cls kind", by="baselines that mutate shared CC state"
    ),
    "cc.call": _spec(
        "core", "txn cls kind", by="every CC interaction (lock request, validation…)"
    ),
    "vc.call": _spec(
        "core", "txn cls kind",
        by="every VC entry-procedure call (`start`/`register`/`complete`/`discard`)",
    ),
    "qos.ro_snapshot": _spec(
        "core", "txn sn staleness", by="read-only begin with its staleness bound"
    ),
    # Version control, through the observer bridges (obs/instrument.py).
    "vc.register": _spec("obs", "number tnc vtnc lag", by="VersionControl observer bridge"),
    "vc.advance": _spec("obs", "number tnc vtnc lag", by="VersionControl observer bridge"),
    "vc.discard": _spec("obs", "number tnc vtnc lag", by="VersionControl observer bridge"),
    "dvc.advance": _spec(
        "obs", "site vtnc tnc",
        by="a distributed site's VC bridge: per-site watermark and issued-number high",
    ),
    # The lock table and the waits-for graph.
    "lock.grant": _spec(
        "cc", "txn key mode waited",
        by="the lock table — `LockManager` and `GranularLockManager` emit the same "
        "events with the same fields; `key` is a path tuple on the granular one",
    ),
    "lock.block": _spec(
        "cc", "txn key mode upgrade holders",
        by="the lock table (`mode` is the mode the requester will hold once granted)",
    ),
    "lock.release": _spec(
        "cc", "txn keys", by="the lock table, once per `release_all` that held anything"
    ),
    "lock.deadlock": _spec("cc", "victim cycle policy", by="the lock table"),
    "lock.crash": _spec("cc", "failed_waiters", by="the lock table, on a site crash"),
    "qos.deadline.lock": _spec(
        "cc", "txn key deadline now", by="the lock table: a queued request expired"
    ),
    "deadlock.detect": _spec("cc", "cycle edges", by="shared waits-for graph"),
    # Storage.
    "gc.sweep": _spec(
        "storage",
        "horizon visible pins discarded interior scanned active_readers "
        "live_versions max_chain",
        by="garbage collector, one pass",
    ),
    "wal.append": _spec("storage", "kind txn tn", by="write-ahead log"),
    "wal.force": _spec("storage", "made_durable durable", "torn", by="write-ahead log"),
    "wal.crash": _spec("storage", "lost durable", by="write-ahead log"),
    # The operation stream the witness certifies.
    "history.begin": _spec("histories", "txn cls", by="history recorder (feeds the witness)"),
    "history.read": _spec("histories", "txn key version", by="history recorder"),
    "history.write": _spec("histories", "txn key", by="history recorder"),
    "history.commit": _spec(
        "histories", "txn ident tn cls",
        by="history recorder: `ident` is computed once, for the event and the log entry",
    ),
    "history.abort": _spec("histories", "txn ident tn cls", by="history recorder"),
    # The simulator.
    "sim.spawn": _spec("sim", "process", by="simulator"),
    "sim.process.end": _spec("sim", "process", by="simulator"),
    "sim.process.error": _spec("sim", "process error", by="simulator"),
    # Spans (obs/spans.py): free-form fields ride the span events.
    "span.start": _spec(
        "obs", "span parent trace op", by="span layer", free_form=True
    ),
    "span.end": _spec("obs", "span trace elapsed ok", by="span layer", free_form=True),
    "courier.redelivery": _spec("obs", "span trace n", by="duplicate message arrivals"),
    # Fault injection (see docs/faults.md).
    "fault.drop": _spec("faults", "channel", "attempt retry_in", by="faulty courier"),
    "fault.retry.exhausted": _spec("faults", "channel attempts", by="faulty courier"),
    "fault.duplicate": _spec("faults", "channel", by="faulty courier"),
    "fault.delay": _spec("faults", "channel extra", by="faulty courier"),
    "fault.partition.start": _spec("faults", "channel", by="faulty courier"),
    "fault.partition.hold": _spec("faults", "channel", "until", by="faulty courier"),
    "fault.partition.heal": _spec("faults", "channel released", by="faulty courier"),
    "fault.drill.done": _spec(
        "faults", "protocol seed ok commits aborts crashes", by="fault drill, per run"
    ),
    "fault.crash": _spec(
        "distributed", "site lost_records incarnation", by="a distributed site crashing"
    ),
    "fault.recover": _spec(
        "distributed", "site", "vtnc commit_counter incarnation",
        by="a distributed site restarting: `vtnc` (dvc) or `commit_counter` (dmv2pl), "
        "then `incarnation`",
    ),
    "avail.outage": _spec(
        "faults", "duration healed_at", by="the campaign's write-availability prober"
    ),
    "shard.outage": _spec(
        "faults", "shard duration healed_at", by="the shard campaign's per-shard prober"
    ),
    # Admission, memory pressure.
    "qos.admit": _spec("qos", "in_flight", by="admission: token granted"),
    "qos.shed": _spec("qos", "in_flight", by="admission: arrival shed with `Overloaded`"),
    "qos.memory_pressure": _spec(
        "qos", "state live_versions", "high_watermark low_watermark",
        by="memory-pressure controller state change",
    ),
    "snapshot.revoked": _spec(
        "qos", "txn sn cause renewals",
        by="lease revoked (`memory_pressure` or `lease_expired`)",
    ),
    "slo.ro_shed": _spec(
        "qos", "seed", by="overload campaign, iff a read-only arrival is shed (tripwire)"
    ),
    # Replication.
    "replica.ship": _spec("replica", "replica epoch offset records", by="log shipper"),
    "replica.ack": _spec(
        "replica", "replica epoch applied_offset vtnc lag_records", by="log shipper"
    ),
    "replica.watermark": _spec(
        "replica", "replica vtnc advanced staleness", by="replica node"
    ),
    "replica.ro_snapshot": _spec("replica", "replica txn sn staleness", by="replica node"),
    "replica.segment_buffered": _spec(
        "replica", "replica start applied", by="replica node: out-of-order segment"
    ),
    "replica.segment_stale": _spec(
        "replica", "replica epoch current", by="replica node: segment of a deposed epoch"
    ),
    "replica.lag": _spec(
        "replica", "replica lag", by="replication campaign watcher (primary-measured)"
    ),
    "replica.promote": _spec(
        "replica", "replica epoch vtnc lost_volatile_records survivors",
        by="replica cluster fail-over",
    ),
    "qos.replica_redirect": _spec("replica", "replica lag bound", by="replicated session"),
    "qos.replica_reject": _spec("replica", "replica lag bound", by="replicated session"),
    "qos.replica_stale_read": _spec("replica", "replica lag bound", by="replicated session"),
    "detect.suspect": _spec("replica", "replica epoch suspicion", by="failure detector"),
    "detect.vote": _spec("replica", "replica epoch votes needed", by="failure detector"),
    "detect.failover": _spec(
        "replica", "deposed_epoch epoch promoted votes", by="failure detector"
    ),
    "quorum.lease": _spec("replica", "epoch valid now", by="quorum gate"),
    "quorum.advance": _spec("replica", "epoch offset batch", by="quorum gate"),
    "quorum.fenced": _spec("replica", "epoch txn now", by="quorum gate: fenced commit"),
    "quorum.indeterminate": _spec(
        "replica", "epoch txn offset frontier", by="quorum gate: quorum-timeout commit"
    ),
    # Sharding.
    "shard.snapshot": _spec(
        "shard", "txn sn staleness lowered shards", by="vector begin (sweep cost)"
    ),
    "shard.commit": _spec(
        "shard", "txn shard tn cross queue",
        by="cross-shard commit durable at a participant (`queue` = VC backlog)",
    ),
    "shard.vector_inconsistent": _spec(
        "shard", "txn torn", by="a begin found a torn vector (hard zero)"
    ),
    "shard.ro_blocked": _spec(
        "shard", "txn shard sn vtnc", by="a vector read parked above a watermark (hard zero)"
    ),
    "shard.failover": _spec(
        "shard", "shard epoch lost_records vtnc", by="warm-standby promotion"
    ),
}


#: Event name -> its required fields: the layout of a record's ``fields``.
#: A name not registered here has none (all its fields are optional).
_LAYOUT: dict[str, tuple[str, ...]] = {name: spec.required for name, spec in EVENTS.items()}


def positions(name: str, *fields: str) -> tuple[int, ...]:
    """Where each of ``fields`` sits in the ``fields`` of a ``name`` record."""
    return tuple(_LAYOUT[name].index(field) for field in fields)


def as_dict(record: tuple) -> dict[str, Any]:
    """The dict an event is kept as: ``name``, ``ts``, the required fields
    in registry order, the optional ones, then the ambient ``span``/``trace``
    unless the event carries its own ``span``."""
    name, ts, fields, optional, active = record
    keys = _LAYOUT.get(name, ())
    if len(fields) != len(keys):
        raise TypeError(
            f"event {name!r} has {len(fields)} positional field(s); "
            f"the registry requires {len(keys)}: {', '.join(keys) or 'none'}"
        )
    event = {"name": name, "ts": ts}
    event.update(zip(keys, fields))
    if optional is not None:
        event.update(optional)
    if active is not None and "span" not in event:
        event["span"] = active.span_id
        event["trace"] = active.trace_id
    return event


def record(event: dict[str, Any]) -> tuple:
    """The record of an event dict (a decoded trace line): the registered
    fields in registry order (``None`` where one is missing), every other
    key but ``name``/``ts`` an optional field, in order."""
    name = event["name"]
    keys = _LAYOUT.get(name, ())
    rest = {k: v for k, v in event.items() if k not in keys}
    del rest["name"], rest["ts"]
    return (name, event["ts"], tuple(event.get(k) for k in keys), rest or None, None)


def schema_table() -> str:
    """The docs' "Event-name schema" table, one row per registered name."""
    rows = ["| event | layer | fields | emitted by |", "|---|---|---|---|"]
    for name, spec in EVENTS.items():
        fields = ", ".join(spec.required)
        if spec.optional:
            fields += " (+" + ", ".join(spec.optional) + ")"
        if spec.free_form:
            fields += " (+free-form)"
        rows.append(f"| `{name}` | {spec.layer} | {fields} | {spec.by} |")
    return "\n".join(rows) + "\n"
