"""Tests for the closed-loop simulation runner and the experiment claims.

The experiment-level assertions here are the paper's qualitative claims as
test invariants: they must hold for every seed, not just the benchmark's.
"""

import pytest

from repro.bench.metrics import RunMetrics
from repro.bench.runner import SimConfig, run_simulation
from repro.protocols.registry import PROTOCOLS, VC_PROTOCOLS, make_scheduler
from repro.workload.mixes import balanced, contended_small, write_heavy_hotspot

FAST = SimConfig(duration=200.0, n_clients=6)


class TestRunnerBasics:
    def test_run_produces_commits_and_checks_history(self):
        m = run_simulation(make_scheduler("vc-2pl"), balanced(seed=1), FAST)
        assert m.commits > 0
        assert m.serializable is True
        assert m.duration > 0
        assert m.throughput > 0

    def test_deterministic_under_seed(self):
        a = run_simulation(make_scheduler("vc-to"), balanced(seed=3), FAST)
        b = run_simulation(make_scheduler("vc-to"), balanced(seed=3), FAST)
        assert (a.commits, a.aborts, a.counters) == (b.commits, b.aborts, b.counters)

    def test_different_seeds_differ(self):
        a = run_simulation(make_scheduler("vc-2pl"), balanced(seed=1), FAST)
        b = run_simulation(make_scheduler("vc-2pl"), balanced(seed=2), FAST)
        assert a.commits != b.commits or a.counters != b.counters

    def test_check_can_be_disabled(self):
        config = SimConfig(duration=100.0, n_clients=4, check_serializability=False)
        m = run_simulation(make_scheduler("vc-occ"), balanced(seed=1), config)
        assert m.serializable is None

    def test_gc_runs_when_configured(self):
        config = SimConfig(duration=200.0, n_clients=6, gc_period=20.0)
        m = run_simulation(make_scheduler("vc-2pl"), balanced(seed=1), config)
        assert m.gc_discarded > 0
        assert m.aborts_ro == 0, "GC must never victimize a read-only reader"
        assert m.serializable


class TestMetricsDerivation:
    def test_throughput_and_rates(self):
        m = RunMetrics(duration=100.0, commits_ro=30, commits_rw=20, aborts_rw=5)
        assert m.commits == 50
        assert m.throughput == 0.5
        assert m.abort_rate_rw == 0.2
        assert m.abort_rate_ro == 0.0

    def test_per_commit_normalization(self):
        m = RunMetrics(commits_ro=10, counters={"cc.ro": 40})
        assert m.per_ro_commit("cc.ro") == 4.0
        assert m.per_ro_commit("missing") == 0.0

    def test_zero_division_guards(self):
        m = RunMetrics()
        assert m.throughput == 0.0
        assert m.abort_rate_rw == 0.0
        assert m.per_ro_commit("x") == 0.0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
class TestEveryProtocolUnderLoad:
    def test_history_always_serializable(self, name):
        m = run_simulation(make_scheduler(name), write_heavy_hotspot(seed=5), FAST)
        assert m.serializable is True, name
        assert m.commits > 0

    def test_contended_workload_serializable(self, name):
        m = run_simulation(make_scheduler(name), contended_small(seed=8), FAST)
        assert m.serializable is True, name


@pytest.mark.parametrize("name", VC_PROTOCOLS)
class TestPaperClaimsAsInvariants:
    """Sections 1, 2, 4.4, 6 — claims that must hold on every run."""

    def test_read_only_has_zero_cc_interactions(self, name):
        m = run_simulation(make_scheduler(name), balanced(seed=11), FAST)
        assert m.counter("cc.ro") == 0
        assert m.counter("syncwrite.ro") == 0

    def test_read_only_exactly_one_vc_call(self, name):
        m = run_simulation(make_scheduler(name), balanced(seed=11), FAST)
        # One VCstart per read-only begin (commits + any retried attempts).
        begins = m.counter("begin.ro")
        assert m.counter("vc.ro") == m.counter("vc.ro.start") == begins

    def test_read_only_never_blocks(self, name):
        m = run_simulation(make_scheduler(name), write_heavy_hotspot(seed=11), FAST)
        assert m.counter("block.ro") == 0

    def test_read_only_never_aborts(self, name):
        m = run_simulation(make_scheduler(name), write_heavy_hotspot(seed=11), FAST)
        assert m.aborts_ro == 0
        assert m.counter("abort.ro") == 0

    def test_read_only_never_causes_rw_aborts(self, name):
        m = run_simulation(make_scheduler(name), write_heavy_hotspot(seed=11), FAST)
        assert m.counter("abort.rw.caused_by_readonly") == 0


class TestBaselineContrast:
    """The same quantities are non-zero for the baselines the paper faults."""

    def test_mvto_read_only_pays_and_aborts_writers(self):
        m = run_simulation(
            make_scheduler("mvto-reed"), write_heavy_hotspot(seed=11), FAST
        )
        assert m.counter("cc.ro") > 0
        assert m.counter("syncwrite.ro") > 0

    def test_sv2pl_read_only_blocks(self):
        m = run_simulation(
            make_scheduler("sv-2pl"), write_heavy_hotspot(seed=11), FAST
        )
        assert m.counter("block.ro") > 0

    def test_svto_read_only_aborts(self):
        m = run_simulation(
            make_scheduler("sv-to"), write_heavy_hotspot(seed=11), FAST
        )
        assert m.counter("abort.ro") > 0
