"""Layer tracing from outside: shims around each layer's public calls.

Only a traced pass installs these.  Every wrap target is named in one
declarative table (``TARGETS``) and resolved by dotted name at run time:
a target that no longer exists marks its span group *unresolved* (its
metrics read ``spec.UNRESOLVED``) instead of crashing, so a refactor that
moves a layer costs that layer's numbers, not the benchmark.

A shim records a span per call: group, start, end, parent span, and the
transaction it belongs to.  Aggregates (calls, self time, child calls) are
kept for every call; full spans are retained for a 1-in-``SAMPLE_EVERY``
sample of transactions and written as JSONL when the pass ends.  A span's
*self time* is its duration minus the durations of its direct child spans;
the shim's own cost, calibrated on a no-op in the same process, is taken
off before shares are computed.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable

from .spec import UNRESOLVED

SAMPLE_EVERY = 50
_now = time.perf_counter_ns

# group -> (self-share metric, calls-per-commit metric or None)
GROUPS: dict[str, tuple[str | None, str | None]] = {
    "sim.run": ("sim.self_share", None),
    "core.vc": ("core.vc_self_share", "core.vc_calls_per_commit"),
    "protocols.op": ("protocols.self_share", None),
    "cc.lock": ("cc.self_share", "cc.calls_per_commit"),
    "storage.read": ("storage.read_self_share", "storage.read_calls_per_commit"),
    "storage.install": ("storage.install_self_share", "storage.install_calls_per_commit"),
    "storage.gc": ("storage.gc_self_share", None),
    "storage.wal": ("storage.wal_self_share", None),
    "histories.recorder": ("histories.recorder_self_share", None),
    "histories.checker": (None, None),
    "distributed.courier": ("distributed.courier_self_share", None),
    "distributed.handler": ("distributed.handler_self_share", None),
    "distributed.dvc": ("distributed.dvc_self_share", "distributed.dvc_calls_per_commit"),
    "replica.ship": ("replica.ship_self_share", None),
    "replica.apply": ("replica.apply_self_share", None),
    "replica.ro": ("replica.ro_self_share", None),
    "shard.ring": ("shard.ring_self_share", "shard.ring_calls_per_commit"),
    "shard.vector": ("shard.vector_self_share", None),
    "shard.db": ("shard.db_self_share", None),
    "obs.emit": ("obs.emit_self_share", "obs.events_per_commit"),
    "obs.ring": ("obs.ring_self_share", None),
    "obs.slo": ("obs.slo_self_share", None),
    "obs.witness": ("obs.witness_self_share", None),
}


def _queue_peak(recorder: "Recorder", owner: Any, _result: Any) -> None:
    length = owner.queue_length() if hasattr(owner, "queue_length") else len(owner)
    if length > recorder.vc_queue_peak:
        recorder.vc_queue_peak = length


def _acquire_outcome(recorder: "Recorder", _owner: Any, result: Any) -> None:
    recorder.acquires += 1
    if result.pending:
        recorder.acquires_pending += 1


# (group, dotted target, where the transaction id is: positional index into
# the call's arguments, "result", or None = inherit from the parent span,
# optional hook run after the call)
TARGETS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("sim.run", "repro.sim.engine.Simulator.run", None, None),
    ("core.vc", "repro.core.version_control.VersionControl.vc_start", None, None),
    ("core.vc", "repro.core.version_control.VersionControl.vc_register", 1, _queue_peak),
    ("core.vc", "repro.core.version_control.VersionControl.vc_complete", 1, None),
    ("core.vc", "repro.core.version_control.VersionControl.vc_discard", 1, None),
    ("cc.lock", "repro.cc.lock_manager.LockManager.acquire", 1, _acquire_outcome),
    ("cc.lock", "repro.cc.lock_manager.LockManager.release_all", 1, None),
    ("cc.lock", "repro.cc.lock_manager.LockManager.cancel_request", 1, None),
    ("cc.lock", "repro.cc.lock_manager.LockManager.expire_due", None, None),
    ("storage.read", "repro.storage.mvstore.MVStore.read_snapshot", None, None),
    ("storage.read", "repro.storage.mvstore.MVStore.read_latest_committed", None, None),
    ("storage.read", "repro.storage.mvstore.MVStore.version_leq", None, None),
    ("storage.install", "repro.storage.mvstore.MVStore.install", None, None),
    ("storage.install", "repro.storage.mvstore.MVStore.place_pending", None, None),
    ("storage.install", "repro.storage.mvstore.MVStore.commit_pending", None, None),
    ("storage.gc", "repro.storage.gc.GarbageCollector.collect", None, None),
    ("storage.wal", "repro.storage.wal.WriteAheadLog.append", None, None),
    ("storage.wal", "repro.storage.wal.WriteAheadLog.force", None, None),
    ("histories.recorder", "repro.histories.recorder.HistoryRecorder.record_begin", 1, None),
    ("histories.recorder", "repro.histories.recorder.HistoryRecorder.record_read", 1, None),
    ("histories.recorder", "repro.histories.recorder.HistoryRecorder.record_write", 1, None),
    ("histories.recorder", "repro.histories.recorder.HistoryRecorder.record_commit", 1, None),
    ("histories.recorder", "repro.histories.recorder.HistoryRecorder.record_abort", 1, None),
    ("distributed.courier", "repro.distributed.courier.Courier.dispatch", None, None),
    ("distributed.courier", "repro.distributed.courier.Courier.call_later", None, None),
    ("distributed.dvc", "repro.distributed.dvc.DistributedVersionControl.vc_start", None, None),
    ("distributed.dvc", "repro.distributed.dvc.DistributedVersionControl.hold", 1, _queue_peak),
    ("distributed.dvc", "repro.distributed.dvc.DistributedVersionControl.adopt", 1, None),
    ("distributed.dvc", "repro.distributed.dvc.DistributedVersionControl.complete", 1, None),
    ("distributed.dvc", "repro.distributed.dvc.DistributedVersionControl.discard", 1, None),
    ("replica.ship", "repro.replica.ship.LogShipper.ship", None, None),
    ("replica.ship", "repro.replica.ship.LogShipper.on_ack", None, None),
    ("replica.ship", "repro.replica.quorum.QuorumGate.register", None, None),
    ("replica.apply", "repro.replica.node.Replica.receive_segment", None, None),
    ("replica.ro", "repro.replica.node.Replica.begin", "result", None),
    ("replica.ro", "repro.replica.node.Replica.read", 1, None),
    ("replica.ro", "repro.replica.node.Replica.commit", 1, None),
    ("shard.ring", "repro.shard.ring.HashRing.shard_of", None, None),
    # The sweep is a module function: the name the database module bound at
    # import is the one its calls go through.
    ("shard.vector", "repro.shard.database.sweep_consistent_vector", None, None),
    ("shard.db", "repro.shard.database.ShardedDatabase.begin", "result", None),
    ("shard.db", "repro.shard.database.ShardedDatabase.commit", 1, None),
    ("obs.emit", "repro.obs.tracer.Tracer.emit", None, None),
    ("obs.ring", "repro.obs.exporters.RingBufferExporter.export", None, None),
    ("obs.slo", "repro.obs.slo.engine.SLOEngine.export", None, None),
    ("obs.witness", "repro.obs.witness.engine.WitnessEngine.export", None, None),
)

#: The scheduler interface, wrapped on the driven instance.
PROTOCOL_OPS = (("begin", "result"), ("read", 0), ("write", 0), ("commit", 0), ("abort", 0))
#: Courier entry points whose callable argument is a message handler.
_HANDLER_ARG = {"dispatch": 1, "call_later": 2}


def resolve(dotted: str) -> tuple[Any, str]:
    """``(owner, attribute name)`` for a dotted target, importing the
    longest module prefix.  Raises LookupError when any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            getattr(owner, parts[-1])
        except AttributeError as error:
            raise LookupError(f"{dotted}: {error}") from None
        return owner, parts[-1]
    raise LookupError(f"{dotted}: no importable module prefix")


def _txn_id(value: Any) -> int:
    return value if type(value) is int else getattr(value, "txn_id", 0)


class Installed:
    """Every attribute this pass replaced, so it can be put back."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        own = vars(owner)
        self._patches.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def pristine(self) -> bool:
        """After ``remove``: every patched name holds what it held before."""
        seen = set()
        for owner, name, had_own, original in self._patches:
            if (id(owner), name) in seen:
                continue
            seen.add((id(owner), name))
            now = vars(owner).get(name)
            if (name in vars(owner)) != had_own or now is not original:
                return False
        return True


class Recorder:
    """In-memory span store plus per-group aggregates."""

    def __init__(self) -> None:
        self.active = False
        self.unresolved_groups: set[str] = set()
        self.vc_queue_peak = 0
        self.acquires = 0
        self.acquires_pending = 0
        self._stack: list[list] = []  # frames: [child_ns, child_calls, span id, txn]
        self._next_id = 1
        self._agg: dict[str, list[int]] = {}  # group -> [calls, self_ns, child_calls]
        self._spans: list[tuple] = []  # (id, parent, group, name, start, end, txn)
        self.root_ns = 0  # total duration of parentless spans
        self.shim_inside_ns = 0.0
        self.shim_outside_ns = 0.0

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, group: str, name: str, fn: Callable, txn_at: Any = None,
             hook: Callable | None = None, handler_arg: int | None = None,
             fixed_txn: int = 0) -> Callable:
        agg = self._agg.setdefault(group, [0, 0, 0])
        stack, spans = self._stack, self._spans
        recorder = self

        def shim(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if fixed_txn:
                txn = fixed_txn
            elif type(txn_at) is int and len(args) > txn_at:
                txn = _txn_id(args[txn_at])
            else:
                txn = parent[3] if parent is not None else 0
            if handler_arg is not None and len(args) > handler_arg:
                # A message handler keeps the transaction it was sent on behalf of.
                args = list(args)
                args[handler_arg] = recorder.wrap(
                    "distributed.handler", "handler", args[handler_arg], fixed_txn=txn
                )
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            frame = [0, 0, span_id, txn]
            stack.append(frame)
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration - frame[0]
                agg[2] += frame[1]
                if parent is not None:
                    parent[0] += duration
                    parent[1] += 1
                else:
                    recorder.root_ns += duration
                if txn_at == "result" and result is not None:
                    txn = _txn_id(result)
                if parent is None or (txn and txn % SAMPLE_EVERY == 0):
                    spans.append(
                        (span_id, parent[2] if parent else 0, group, name, start, end, txn)
                    )
            if hook is not None:
                hook(recorder, args[0], result)
            return result

        shim.__wrapped__ = fn
        return shim

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def calibrate(self, calls: int = 20_000) -> None:
        """Cost of one shim call on a no-op: the part inside its own span
        and the part its parent sees around it."""
        probe = Recorder()
        noop = probe.wrap("probe", "noop", lambda: None)
        outer = probe.wrap("probe.outer", "outer", lambda: [noop() for _ in range(calls)])
        bare_start = _now()
        [(lambda: None)() for _ in range(calls)]
        bare = _now() - bare_start
        probe.start()
        outer()
        probe.stop()
        inside = probe._agg["probe"][1] / calls
        outer_self = probe._agg["probe.outer"][1]  # loop + shim parts outside noop spans
        self.shim_inside_ns = inside
        self.shim_outside_ns = max((outer_self - bare) / calls, 0.0)

    # -- results -----------------------------------------------------------------

    def summary(self, commits: int) -> dict[str, Any]:
        self.calibrate()
        calibrated = {
            group: max(
                self_ns - calls * self.shim_inside_ns - child_calls * self.shim_outside_ns, 0.0
            )
            for group, (calls, self_ns, child_calls) in self._agg.items()
        }
        total = sum(calibrated.values()) or 1.0
        metrics: dict[str, float] = {}
        for group, (share_metric, calls_metric) in GROUPS.items():
            missing = group in self.unresolved_groups
            calls = self._agg.get(group, (0, 0, 0))[0]
            if share_metric:
                metrics[share_metric] = UNRESOLVED if missing else calibrated.get(group, 0.0) / total
            if calls_metric:
                metrics[calls_metric] = UNRESOLVED if missing else calls / max(commits, 1)
        core_missing = "core.vc" in self.unresolved_groups
        cc_missing = "cc.lock" in self.unresolved_groups
        metrics["core.vc_queue_peak"] = UNRESOLVED if core_missing else self.vc_queue_peak
        metrics["cc.wait_ratio"] = (
            UNRESOLVED if cc_missing
            else self.acquires_pending / self.acquires if self.acquires else 0.0
        )
        return {
            "metrics": metrics,
            # Equal by construction (self = duration - children); checked per run.
            "raw_self_sum_ns": sum(a[1] for a in self._agg.values()),
            "root_ns": self.root_ns,
        }

    def dump(self, path: str) -> None:
        """Sampled spans as JSONL, times in ns from the first span's start."""
        origin = min((s[4] for s in self._spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, group, name, start, end, txn in sorted(self._spans):
                layer = group.split(".", 1)[0]
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer, "group": group,
                    "name": name, "start_ns": start - origin, "end_ns": end - origin,
                    "txn": txn,
                }) + "\n")


def install(installed: Installed, recorder: Recorder, targets=TARGETS) -> list[str]:
    """Patch every resolvable target; returns ``"group: target (why)"`` for
    each one that is not."""
    unresolved: list[str] = []
    for group, dotted, txn_at, hook in targets:
        try:
            owner, name = resolve(dotted)
        except LookupError as error:
            recorder.unresolved_groups.add(group)
            unresolved.append(f"{group}: {error}")
            continue
        handler_arg = _HANDLER_ARG.get(name) if group == "distributed.courier" else None
        installed.patch(
            owner, name,
            recorder.wrap(group, name, getattr(owner, name), txn_at, hook, handler_arg),
        )
    return unresolved


def wrap_instance(installed: Installed, recorder: Recorder, db: Any) -> None:
    """Wrap the driven object's scheduler interface on the instance."""
    for name, txn_at in PROTOCOL_OPS:
        bound = getattr(db, name)
        installed.patch(db, name, recorder.wrap("protocols.op", name, bound, txn_at))


def install_busy_loop(installed: Installed, dotted: str, busy_us: float) -> None:
    """Self-test only: make ``dotted`` cost ``busy_us`` more per call."""
    owner, name = resolve(dotted)
    fn = getattr(owner, name)
    busy_ns = int(busy_us * 1000)

    def slowed(*args, **kwargs):
        until = _now() + busy_ns
        while _now() < until:
            pass
        return fn(*args, **kwargs)

    installed.patch(owner, name, slowed)
