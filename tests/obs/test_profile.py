"""Critical-path profiling: the backward walk and its phase attribution."""

import pytest

from repro.obs.profile import (
    aggregate_phase_shares,
    critical_path,
    phase_of,
    phase_shares,
    render_critical_path,
    site_shares,
)
from repro.obs.spans import SpanNode

_IDS = iter(range(1, 10_000))


def node(name, start, end, parent=None, **fields):
    span = SpanNode(
        next(_IDS),
        parent.trace_id if parent is not None else 1,
        parent.span_id if parent is not None else None,
        name,
        start,
        dict(fields),
    )
    span.end = end
    span.ok = True
    if parent is not None:
        parent.children.append(span)
    return span


def assert_tiles(path):
    """Segments must tile the root's duration gap-free and in order."""
    assert path.segments[0].start == path.root.start
    assert path.segments[-1].end == path.root.end
    for left, right in zip(path.segments, path.segments[1:]):
        assert left.end == right.start
    assert sum(s.duration for s in path.segments) == pytest.approx(path.total)


class TestCriticalPath:
    def test_childless_span_is_its_own_path(self):
        root = node("txn", 0.0, 10.0)
        path = critical_path(root)
        assert path.span_names() == ["txn"]
        assert_tiles(path)

    def test_backward_chain_of_waits(self):
        root = node("txn", 0.0, 10.0)
        node("msg", 0.0, 1.0, root)
        node("msg", 2.0, 8.0, root)
        path = critical_path(root)
        # Backward from 10: root's own tail, the last-finishing msg, a gap
        # of root's own time, then the earlier msg that covered the head.
        assert path.span_names() == ["msg", "txn", "msg", "txn"]
        assert_tiles(path)
        assert [s.duration for s in path.segments] == [1.0, 1.0, 6.0, 2.0]

    def test_nested_descent(self):
        root = node("txn", 0.0, 10.0)
        commit = node("commit", 4.0, 10.0, root)
        node("msg", 4.0, 9.0, commit)
        path = critical_path(root)
        assert path.span_names() == ["txn", "msg", "commit"]
        assert_tiles(path)

    def test_child_running_past_parent_is_clamped(self):
        root = node("txn", 0.0, 10.0)
        node("msg", 6.0, 15.0, root)  # still in flight at commit
        path = critical_path(root)
        assert path.span_names() == ["txn", "msg"]
        assert path.segments[-1].end == 10.0
        assert_tiles(path)

    def test_unfinished_child_contributes_nothing(self):
        root = node("txn", 0.0, 10.0)
        dangling = node("msg", 2.0, None, root)
        dangling.ok = None
        path = critical_path(root)
        assert path.span_names() == ["txn"]
        assert_tiles(path)

    def test_instantaneous_child_kept_at_frontier(self):
        # A 2PC leg applied on message arrival takes zero virtual time but
        # names the causal step — it must appear as a zero-length segment.
        root = node("txn", 0.0, 10.0)
        msg = node("msg", 5.0, 10.0, root)
        node("2pc.commit", 10.0, 10.0, msg, site=1)
        names = critical_path(root).span_names()
        assert "2pc.commit" in names

    def test_instantaneous_child_off_frontier_skipped(self):
        root = node("txn", 0.0, 10.0)
        node("2pc.commit", 4.0, 4.0, root)  # frontier is 10, not 4
        node("msg", 0.0, 10.0, root)
        assert "2pc.commit" not in critical_path(root).span_names()

    def test_same_instant_steps_in_causal_order(self):
        # prepare and commit both applied at t=10: emission order (span id)
        # must order the path, prepare before commit.
        root = node("txn", 0.0, 10.0)
        node("2pc.prepare", 10.0, 10.0, root, site=1)
        node("2pc.commit", 10.0, 10.0, root, site=1)
        names = critical_path(root).span_names()
        assert names.index("2pc.prepare") < names.index("2pc.commit")

    def test_unfinished_root_yields_empty_path(self):
        root = node("txn", 0.0, None)
        assert critical_path(root).segments == []


class TestPhases:
    def test_phase_of_exact_then_prefix_then_other(self):
        assert phase_of("2pc.prepare") == "prepare"
        assert phase_of("msg") == "network"
        assert phase_of("wal.force") == "wal"  # dotted-prefix fallback
        assert phase_of("mystery.thing") == "other"

    def test_phase_shares_sum_to_one(self):
        root = node("txn", 0.0, 10.0)
        node("msg", 2.0, 8.0, root)
        shares = phase_shares(root)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["network"] == pytest.approx(0.6)
        assert shares["execute"] == pytest.approx(0.4)

    def test_site_shares_label_local_and_remote(self):
        root = node("txn", 0.0, 10.0)
        node("2pc.prepare", 4.0, 10.0, root, site=2)
        shares = site_shares(root)
        assert shares == {"local": pytest.approx(0.4), "s2": pytest.approx(0.6)}

    def test_aggregate_weighted_by_duration(self):
        fast = node("txn", 0.0, 10.0)  # 10 units, all execute
        slow = node("txn", 0.0, 30.0)
        node("msg", 0.0, 30.0, slow)  # 30 units, all network
        shares = aggregate_phase_shares([fast, slow])
        assert shares["execute"] == pytest.approx(0.25)
        assert shares["network"] == pytest.approx(0.75)

    def test_aggregate_of_nothing_is_empty(self):
        assert aggregate_phase_shares([]) == {}

    def test_render_critical_path_smoke(self):
        root = node("txn", 0.0, 10.0, txn=9)
        node("msg", 2.0, 8.0, root, channel="2pc")
        text = render_critical_path(root)
        assert "T9" in text and "msg[2pc]" in text and "phases:" in text
