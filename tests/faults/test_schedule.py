"""Seed determinism and semantics of fault schedules."""

import pytest

from repro.faults import FaultCounts, FaultSchedule, FaultSpec, PartitionWindow


def decisions(schedule, channel, n=50, **kw):
    return [
        (d.drop, d.duplicate, round(d.extra_delay, 9))
        for d in (schedule.decide(channel, **kw) for _ in range(n))
    ]


class TestFaultSpec:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.5)
        with pytest.raises(ValueError):
            FaultSpec(duplicate=-0.1)

    def test_any_faults(self):
        assert not FaultSpec().any_faults
        assert FaultSpec(drop=0.1).any_faults
        assert FaultSpec(partitions=(PartitionWindow("a", 0, 1),)).any_faults

    def test_empty_partition_window_rejected(self):
        with pytest.raises(ValueError):
            PartitionWindow("a", 5.0, 5.0)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        spec = FaultSpec(drop=0.2, duplicate=0.2, delay_spike=0.2)
        a = decisions(FaultSchedule(spec, seed=7), "2pc")
        b = decisions(FaultSchedule(spec, seed=7), "2pc")
        assert a == b

    def test_different_seed_different_decisions(self):
        spec = FaultSpec(drop=0.3, duplicate=0.3, delay_spike=0.3)
        a = decisions(FaultSchedule(spec, seed=1), "2pc")
        b = decisions(FaultSchedule(spec, seed=2), "2pc")
        assert a != b

    def test_channels_are_independent_streams(self):
        """Draws on one channel never perturb another channel's sequence."""
        spec = FaultSpec(drop=0.3, duplicate=0.3)
        alone = decisions(FaultSchedule(spec, seed=3), "data")
        mixed_schedule = FaultSchedule(spec, seed=3)
        interleaved = []
        for _ in range(50):
            mixed_schedule.decide("2pc")  # extra traffic on another channel
            d = mixed_schedule.decide("data")
            interleaved.append((d.drop, d.duplicate, round(d.extra_delay, 9)))
        assert interleaved == alone


class TestDecide:
    def test_no_faults_spec_never_fires(self):
        schedule = FaultSchedule(FaultSpec(), seed=0)
        for _ in range(100):
            d = schedule.decide("x")
            assert not d.drop and not d.duplicate and d.extra_delay == 0.0
        assert schedule.counts == FaultCounts()

    def test_certain_drop(self):
        schedule = FaultSchedule(FaultSpec(drop=1.0), seed=0)
        assert all(schedule.decide("x").drop for _ in range(10))
        assert schedule.counts.drops == 10

    def test_retransmission_redraws_only_drop(self):
        spec = FaultSpec(drop=0.0, duplicate=1.0, delay_spike=1.0)
        schedule = FaultSchedule(spec, seed=0)
        d = schedule.decide("x", retransmission=True)
        assert not d.duplicate and d.extra_delay == 0.0

    def test_counts_as_dict_keys(self):
        counts = FaultSchedule(FaultSpec(), seed=0).counts.as_dict()
        assert set(counts) == {
            "drops",
            "duplicates",
            "delay_spikes",
            "partition_deferrals",
            "retries_exhausted",
            "crashes",
        }


class TestPartitions:
    def test_window_covers(self):
        window = PartitionWindow("2pc", 10.0, 20.0)
        assert window.covers("2pc", 10.0)
        assert not window.covers("2pc", 20.0)
        assert not window.covers("data", 15.0)

    def test_wildcard_channel(self):
        window = PartitionWindow("*", 0.0, 5.0)
        assert window.covers("anything", 1.0)

    def test_partitioned_until_returns_latest_end(self):
        spec = FaultSpec(
            partitions=(
                PartitionWindow("2pc", 0.0, 10.0),
                PartitionWindow("*", 5.0, 30.0),
            )
        )
        schedule = FaultSchedule(spec, seed=0)
        assert schedule.partitioned_until("2pc", 6.0) == 30.0
        assert schedule.partitioned_until("2pc", 2.0) == 10.0
        assert schedule.partitioned_until("data", 2.0) is None
        assert schedule.partitioned_until("2pc", 30.0) is None
