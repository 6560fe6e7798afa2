"""Tests for per-object version chains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, VersionNotFound
from repro.storage.versioned_object import VersionedObject


def chain(*tns, key="x"):
    obj = VersionedObject(key, initial_value="v0")
    for tn in tns:
        obj.install(tn, f"v{tn}")
    return obj


class TestInitialState:
    def test_starts_with_initial_version(self):
        obj = VersionedObject("x", initial_value=10)
        assert len(obj) == 1
        v = obj.latest()
        assert v.tn == 0
        assert v.value == 10
        assert not v.pending

    def test_default_initial_value_none(self):
        assert VersionedObject("x").latest().value is None


class TestInstall:
    def test_append_in_order(self):
        obj = chain(1, 2, 5)
        assert [v.tn for v in obj.versions()] == [0, 1, 2, 5]

    def test_out_of_order_insert(self):
        obj = chain(5)
        obj.install(3, "v3")
        assert [v.tn for v in obj.versions()] == [0, 3, 5]

    def test_duplicate_version_rejected(self):
        obj = chain(1)
        with pytest.raises(ProtocolError, match="already has version 1"):
            obj.install(1, "again")

    def test_pending_install(self):
        obj = VersionedObject("x")
        v = obj.install(2, "v2", pending=True, creator_txn_id=99)
        assert v.pending
        assert v.creator_txn_id == 99


class TestReads:
    def test_latest_committed_skips_pending(self):
        obj = chain(1)
        obj.install(2, "v2", pending=True)
        assert obj.latest().tn == 2
        assert obj.latest_committed().tn == 1

    def test_version_leq_exact(self):
        obj = chain(1, 3, 7)
        assert obj.version_leq(3).tn == 3

    def test_version_leq_between(self):
        obj = chain(1, 3, 7)
        assert obj.version_leq(5).tn == 3

    def test_version_leq_includes_pending(self):
        obj = chain(1)
        obj.install(2, "v2", pending=True)
        assert obj.version_leq(10).tn == 2

    def test_committed_version_leq_skips_pending(self):
        obj = chain(1)
        obj.install(2, "v2", pending=True)
        assert obj.committed_version_leq(10).tn == 1

    def test_version_leq_below_everything_raises(self):
        obj = VersionedObject("x")
        obj.prune_older_than(0)
        obj.install(5, "v5")
        obj.prune_older_than(5)
        with pytest.raises(VersionNotFound):
            obj.version_leq(3)

    def test_infinity_bound_reads_latest(self):
        obj = chain(1, 2)
        assert obj.version_leq(float("inf")).tn == 2


class TestPendingLifecycle:
    def test_commit_pending(self):
        obj = VersionedObject("x")
        obj.install(2, "v2", pending=True)
        v = obj.commit_pending(2)
        assert not v.pending

    def test_commit_missing_pending_rejected(self):
        obj = chain(2)
        with pytest.raises(ProtocolError, match="no pending version"):
            obj.commit_pending(2)

    def test_remove_aborted_version(self):
        obj = VersionedObject("x")
        obj.install(2, "v2", pending=True)
        obj.remove(2)
        assert obj.find(2) is None
        assert len(obj) == 1

    def test_remove_missing_rejected(self):
        obj = VersionedObject("x")
        with pytest.raises(ProtocolError, match="no version 9"):
            obj.remove(9)


class TestReadTimestamps:
    def test_note_read_updates_version_rts(self):
        obj = chain(1)
        v = obj.version_leq(1)
        obj.note_read(v, 5)
        assert v.r_ts == 5
        obj.note_read(v, 3)  # smaller: no change
        assert v.r_ts == 5

    def test_note_read_on_latest_raises_object_rts(self):
        obj = chain(1, 2)
        obj.note_read(obj.latest(), 9)
        assert obj.max_r_ts == 9

    def test_note_read_on_old_version_leaves_object_rts(self):
        obj = chain(1, 2)
        obj.note_read(obj.version_leq(1), 9)
        assert obj.max_r_ts == 0


class TestPrune:
    def test_prune_keeps_horizon_version(self):
        obj = chain(1, 2, 3)
        discarded = obj.prune_older_than(2)
        assert discarded == 2  # versions 0 and 1
        assert [v.tn for v in obj.versions()] == [2, 3]

    def test_prune_between_versions(self):
        obj = chain(2, 6)
        assert obj.prune_older_than(4) == 1  # keeps 2 (serves sn in [2,5]), 6
        assert [v.tn for v in obj.versions()] == [2, 6]

    def test_prune_noop_when_nothing_older(self):
        obj = chain(3)
        assert obj.prune_older_than(0) == 0
        assert len(obj) == 2

    def test_prune_never_empties_chain(self):
        obj = chain(1)
        obj.prune_older_than(100)
        assert len(obj) == 1


@settings(max_examples=150, deadline=None)
@given(
    tns=st.lists(st.integers(1, 100), unique=True, min_size=1, max_size=20),
    bound=st.integers(0, 100),
)
def test_property_version_leq_is_max_below_bound(tns, bound):
    obj = VersionedObject("x")
    for tn in tns:
        obj.install(tn, tn)
    expect = max((t for t in tns + [0] if t <= bound), default=None)
    assert obj.version_leq(bound).tn == expect


@settings(max_examples=150, deadline=None)
@given(
    tns=st.lists(st.integers(1, 50), unique=True, min_size=1, max_size=15),
    horizon=st.integers(0, 50),
    probe=st.integers(0, 50),
)
def test_property_prune_preserves_reads_at_or_above_horizon(tns, horizon, probe):
    """After pruning at `horizon`, any snapshot read with sn >= horizon
    returns the same version as before pruning."""
    obj = VersionedObject("x")
    for tn in tns:
        obj.install(tn, tn)
    sn = max(horizon, probe)
    before = obj.version_leq(sn).tn
    obj.prune_older_than(horizon)
    assert obj.version_leq(sn).tn == before


class TestPruneNeverTouchesPending:
    def test_pending_version_blocks_collection_past_it(self):
        obj = VersionedObject("x", initial_value=0)
        obj.install(1, "a")
        obj.install(2, "b", pending=True)   # undecided writer
        obj.install(3, "c")
        # Even with a (bogus) horizon above everything, the pending version
        # and everything after it must survive; only versions strictly
        # before it are candidates.
        obj.prune_older_than(10)
        tns = [v.tn for v in obj.versions()]
        assert 2 in tns and 3 in tns
        assert obj.find(2).pending

    def test_committed_prefix_before_pending_still_collectable(self):
        obj = VersionedObject("x", initial_value=0)
        obj.install(1, "a")
        obj.install(2, "b")
        obj.install(3, "c", pending=True)
        discarded = obj.prune_older_than(2)
        assert discarded == 2  # versions 0 and 1 go; 2 serves the horizon
        assert [v.tn for v in obj.versions()] == [2, 3]


class TestPruneUnreachable:
    def tns(self, obj):
        return [v.tn for v in obj.versions()]

    def test_no_pins_keeps_only_the_visible_version(self):
        obj = chain(1, 2, 3, 4)
        discarded, interior = obj.prune_unreachable(4, [])
        assert discarded == 4
        assert interior == 0  # horizon == visible: nothing is interior
        assert self.tns(obj) == [4]

    def test_each_pin_retains_exactly_its_version(self):
        obj = chain(2, 4, 6, 8)
        # sn=3 reads v2, sn=5 reads v4; visible=8 pins v8; v0 and v6 go.
        discarded, interior = obj.prune_unreachable(8, [3, 5])
        assert self.tns(obj) == [2, 4, 8]
        assert discarded == 2
        # v6 sits above the horizon (3): interior reclamation.
        assert interior == 1

    def test_two_pins_sharing_a_version_retain_it_once(self):
        obj = chain(2, 9)
        # Both sn=3 and sn=7 resolve to v2.
        obj.prune_unreachable(9, [3, 7])
        assert self.tns(obj) == [2, 9]

    def test_pin_equal_to_version_tn_retains_it(self):
        obj = chain(3, 5)
        obj.prune_unreachable(5, [3])
        assert self.tns(obj) == [3, 5]

    def test_versions_above_visible_always_survive(self):
        obj = chain(1, 5, 9)
        obj.prune_unreachable(5, [])
        assert self.tns(obj) == [5, 9]

    def test_pending_versions_always_survive(self):
        obj = VersionedObject("x", initial_value=0)
        obj.install(1, "a")
        obj.install(2, "b", pending=True)
        obj.install(3, "c")
        obj.prune_unreachable(3, [])
        tns = self.tns(obj)
        assert 2 in tns and 3 in tns
        assert obj.find(2).pending

    def test_interior_counts_only_above_the_horizon(self):
        obj = chain(1, 2, 3, 4, 5)
        # Pin at sn=2: horizon 2.  Reclaimed: v0, v1 (prefix — a horizon
        # pruner also drops them) and v3, v4 (interior).
        discarded, interior = obj.prune_unreachable(5, [2])
        assert self.tns(obj) == [2, 5]
        assert discarded == 4
        assert interior == 2

    def test_single_version_chain_is_untouched(self):
        obj = VersionedObject("x", initial_value=0)
        assert obj.prune_unreachable(10, []) == (0, 0)
        assert self.tns(obj) == [0]

    @given(
        tns=st.lists(st.integers(min_value=1, max_value=30), unique=True, min_size=1),
        pins=st.lists(st.integers(min_value=0, max_value=30), unique=True),
        visible_gap=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_live_snapshot_still_reads_the_same_version(
        self, tns, pins, visible_gap
    ):
        obj = chain(*sorted(tns))
        visible = max(tns) + visible_gap
        pins = sorted(p for p in pins if p <= visible)
        expected = {sn: obj.version_leq(sn).tn for sn in pins + [visible]}
        obj.prune_unreachable(visible, pins)
        for sn, tn in expected.items():
            assert obj.version_leq(sn).tn == tn


# -- every lookup against a linear scan, under arbitrary chain traffic ----------

TNS = st.integers(0, 24)
CHAIN_OPS = st.one_of(
    st.tuples(st.just("install"), TNS, st.booleans()),
    st.tuples(st.just("commit_pending"), TNS),
    st.tuples(st.just("remove"), TNS),
    st.tuples(st.just("prune_older_than"), st.integers(-1, 26)),
    st.tuples(st.just("prune_unreachable"), TNS, st.lists(TNS, unique=True).map(sorted)),
)
PROBES = [*range(-1, 27), float("inf")]


def ref_leq(model: dict[int, bool], bound: float, committed: bool = False) -> int | None:
    """The reference: scan every ``tn -> pending`` pair; None means not found."""
    best = None
    for tn, pending in model.items():
        if tn <= bound and not (committed and pending) and (best is None or tn > best):
            best = tn
    return best


def ref_prune_older_than(model: dict[int, bool], horizon: float) -> dict[int, bool]:
    keep = ref_leq(model, horizon)
    if keep is None:
        return dict(model)
    cut = min([keep, *(tn for tn, pending in model.items() if pending)])
    return {tn: pending for tn, pending in model.items() if tn >= cut}


def tn_or_none(lookup, *args) -> int | None:
    try:
        return lookup(*args).tn
    except VersionNotFound:
        return None


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(CHAIN_OPS, max_size=40))
def test_property_lookups_equal_a_linear_scan_after_every_step(ops):
    """Out-of-order installs (Reed's MVTO), pending resolution, aborts and both
    collectors: whatever the chain went through, the four lookups answer what
    a scan over all of it answers, and raise exactly when the scan finds
    nothing."""
    obj = VersionedObject("x")
    model = {0: False}
    for op, *args in ops:
        if op == "install":
            tn, pending = args
            if tn in model:
                with pytest.raises(ProtocolError, match="already has version"):
                    obj.install(tn, tn, pending=pending)
            else:
                obj.install(tn, tn, pending=pending)
                model[tn] = pending
        elif op == "commit_pending":
            (tn,) = args
            if model.get(tn):
                obj.commit_pending(tn)
                model[tn] = False
            else:
                with pytest.raises(ProtocolError, match="no pending version"):
                    obj.commit_pending(tn)
        elif op == "remove":
            (tn,) = args
            if tn not in model:
                with pytest.raises(ProtocolError, match="no version"):
                    obj.remove(tn)
            elif len(model) > 1:  # a chain is never emptied
                obj.remove(tn)
                del model[tn]
        elif op == "prune_older_than":
            (horizon,) = args
            survivors = ref_prune_older_than(model, horizon)
            assert obj.prune_older_than(horizon) == len(model) - len(survivors)
            model = survivors
        else:
            visible, pins = args
            live = {sn: ref_leq(model, sn) for sn in [*pins, visible] if sn <= visible}
            discarded, _interior = obj.prune_unreachable(visible, sorted(live)[:-1])
            survivors = {v.tn for v in obj.versions()}
            assert survivors <= set(model) and discarded == len(model) - len(survivors)
            model = {tn: model[tn] for tn in survivors}
            assert {sn: ref_leq(model, sn) for sn in live} == live

        assert [v.tn for v in obj.versions()] == sorted(model)
        for bound in PROBES:
            assert tn_or_none(obj.version_leq, bound) == ref_leq(model, bound)
            assert tn_or_none(obj.committed_version_leq, bound) == ref_leq(
                model, bound, committed=True
            )
        for tn in range(26):
            found = obj.find(tn)
            assert (found is not None) == (tn in model)
            assert found is None or found.pending == model[tn]
        assert tn_or_none(obj.latest_committed) == ref_leq(
            model, float("inf"), committed=True
        )
