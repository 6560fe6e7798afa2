"""Shipping-layer tests: the force hook, offsets, catch-up, epoch guards."""

from repro.distributed.courier import Courier
from repro.replica.node import Replica
from repro.replica.ship import LogShipper
from repro.storage.wal import LogRecord, RecordKind, WriteAheadLog


def _commit(log, txn_id, tn, key="x", value=None):
    log.append(LogRecord(RecordKind.WRITE, txn_id, key=key, value=value or tn))
    log.append(LogRecord(RecordKind.COMMIT, txn_id, tn=tn))
    log.force()


class TestShippedLog:
    """The force hook a shipper subscribes to on every WriteAheadLog."""

    def test_force_notifies_after_boundary_moves(self):
        log = WriteAheadLog()
        seen = []
        log.subscribe_force(lambda: seen.append(log.durable_length()))
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        assert seen == []  # append alone is volatile
        log.force()
        assert seen == [1]  # the subscriber saw the new durable frontier

    def test_unsubscribe(self):
        log = WriteAheadLog()
        calls = []
        fn = lambda: calls.append(1)  # noqa: E731
        token = log.subscribe_force(fn)
        log.force()
        log.unsubscribe_force(token)
        log.force()
        assert calls == [1]

    def test_unsubscribe_unknown_token_is_noop(self):
        log = WriteAheadLog()
        calls = []
        log.subscribe_force(lambda: calls.append(1))
        log.unsubscribe_force(999)
        log.force()
        assert calls == [1]

    def test_identical_bound_methods_unsubscribe_independently(self):
        # The regression that motivated token handles: two subscriptions of
        # the same bound method compare equal (`a.m == a.m` is True for
        # fresh bound-method objects), so an equality-based unsubscribe
        # would deregister *both*.  Tokens keep them independent.
        class Listener:
            def __init__(self):
                self.calls = 0

            def on_force(self):
                self.calls += 1

        log = WriteAheadLog()
        listener = Listener()
        assert listener.on_force == listener.on_force  # the equality trap
        first = log.subscribe_force(listener.on_force)
        second = log.subscribe_force(listener.on_force)
        assert first != second
        log.force()
        assert listener.calls == 2
        log.unsubscribe_force(first)
        log.force()
        assert listener.calls == 3  # the second subscription survived

    def test_partial_force_notifies_too(self):
        log = WriteAheadLog()
        calls = []
        log.subscribe_force(lambda: calls.append(log.durable_length()))
        log.append(LogRecord(RecordKind.WRITE, 1, key="x", value=1))
        log.append(LogRecord(RecordKind.COMMIT, 1, tn=1))
        log.partial_force(1, tear_last=False)
        assert calls == [1]


class TestLogShipper:
    def _wired(self):
        log = WriteAheadLog()
        shipper = LogShipper(log, Courier())
        log.subscribe_force(shipper.ship)
        replica = Replica(1)
        shipper.add_replica(replica)
        return log, shipper, replica

    def test_ships_on_every_force(self):
        log, shipper, replica = self._wired()
        _commit(log, txn_id=10, tn=1)
        _commit(log, txn_id=11, tn=2)
        assert replica.applied_offset == 4
        assert replica.vtnc == 2
        assert shipper.acked_offset[1] == 4
        assert shipper.lag_records(1) == 0

    def test_late_subscriber_catches_up_from_zero(self):
        log = WriteAheadLog()
        shipper = LogShipper(log, Courier())
        log.subscribe_force(shipper.ship)
        _commit(log, txn_id=10, tn=1)
        replica = Replica(7)
        shipper.add_replica(replica)  # add_replica catch-up covers history
        assert replica.vtnc == 1

    def test_stale_ack_from_old_epoch_ignored(self):
        log, shipper, replica = self._wired()
        _commit(log, txn_id=10, tn=1)
        acked = shipper.acked_offset[1]
        shipper.on_ack(1, epoch=shipper.epoch - 1, applied_offset=99, vtnc=99)
        assert shipper.acked_offset[1] == acked
        assert shipper.acked_vtnc[1] != 99

    def test_ack_for_removed_replica_ignored(self):
        log, shipper, replica = self._wired()
        _commit(log, txn_id=10, tn=1)
        shipper.remove_replica(1)
        shipper.on_ack(1, epoch=shipper.epoch, applied_offset=5, vtnc=5)
        assert 1 not in shipper.acked_offset

    def test_catch_up_reships_unacked(self):
        # A courier that silently swallows one delivery: the replica misses
        # a segment, and only catch_up (from the acked offset) re-covers it.
        class DroppingCourier(Courier):
            def __init__(self):
                super().__init__()
                self.drop_next = 0

            def dispatch(self, fn, channel="default"):
                if channel.startswith("ship.") and self.drop_next:
                    self.drop_next -= 1
                    return
                super().dispatch(fn, channel=channel)

        log = WriteAheadLog()
        courier = DroppingCourier()
        shipper = LogShipper(log, courier)
        log.subscribe_force(shipper.ship)
        replica = Replica(1)
        shipper.add_replica(replica)
        courier.drop_next = 1
        _commit(log, txn_id=10, tn=1)   # lost on the wire
        assert replica.vtnc == 0
        assert shipper.lag_records(1) == 2
        shipper.catch_up(1)
        assert replica.vtnc == 1
        assert shipper.lag_records(1) == 0

    def test_detach_stops_shipping(self):
        log, shipper, replica = self._wired()
        shipper.detach()
        _commit(log, txn_id=10, tn=1)
        assert replica.applied_offset == 0
        assert shipper.acked_offset == {} and shipper.sent_offset == {}
