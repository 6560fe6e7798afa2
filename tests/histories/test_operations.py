"""Tests for the Section 3 model: operations, histories, reads-from."""

import pytest

from repro.histories.operations import (
    History,
    Op,
    OpKind,
    abort,
    commit,
    read,
    write,
)


class TestOpConstruction:
    def test_shorthand_read(self):
        op = read(2, "x", 1)
        assert op == Op(OpKind.READ, 2, "x", 1)

    def test_write_defaults_version_to_txn(self):
        assert write(3, "y").version == 3

    def test_str_forms(self):
        assert str(read(2, "x", 1)) == "r2[x_1]"
        assert str(write(1, "x")) == "w1[x_1]"
        assert str(commit(4)) == "c4"
        assert str(abort(5)) == "a5"
        assert str(Op(OpKind.READ, 2, "x", None)) == "r2[x]"

    def test_conflicts_single_version(self):
        r = Op(OpKind.READ, 1, "x")
        w = Op(OpKind.WRITE, 2, "x")
        assert r.conflicts_with(w)
        assert w.conflicts_with(r)
        assert not r.conflicts_with(Op(OpKind.READ, 2, "x"))
        assert not w.conflicts_with(Op(OpKind.WRITE, 2, "y"))
        assert not w.conflicts_with(Op(OpKind.WRITE, 2, "x"))  # same txn


class TestParse:
    def test_round_trip_multiversion(self):
        text = "b1 w1[x_1] c1 b2 r2[x_1] c2"
        h = History.parse(text)
        assert str(h) == text

    def test_parse_single_version(self):
        h = History.parse("r1[x] w2[x] c1 c2")
        ops = list(h)
        assert ops[0].version is None

    def test_parse_key_with_underscore_version(self):
        h = History.parse("r10[acct_7_3]")
        op = h.ops[0]
        assert op.key == "acct_7"
        assert op.version == 3


class TestQueries:
    def test_transactions_and_committed(self):
        h = History.parse("w1[x_1] c1 w2[x_2] a2 w3[x_3]")
        assert h.transactions() == {1, 2, 3}
        assert h.committed() == {1}
        assert h.aborted() == {2}

    def test_committed_projection_drops_aborted_and_inflight(self):
        h = History.parse("w1[x_1] c1 w2[x_2] a2 w3[x_3]")
        proj = h.committed_projection()
        assert proj.transactions() == {1}

    def test_reads_from(self):
        h = History.parse("w1[x_1] c1 r2[x_1] r2[y_0] c2")
        assert h.reads_from() == {(2, 1, "x"), (2, 0, "y")}

    def test_reads_from_requires_versions(self):
        h = History.parse("r1[x] c1")
        with pytest.raises(ValueError):
            h.reads_from()

    def test_writers_of_in_order(self):
        h = History.parse("w2[x_2] w1[x_1] w3[y_3]")
        assert h.writers_of("x") == [2, 1]
        assert h.writers_of("y") == [3]

    def test_keys(self):
        h = History.parse("w1[x_1] r1[y_0] c1")
        assert h.keys() == {"x", "y"}


class TestValidate:
    def test_valid_history_passes(self):
        History.parse("b1 r1[x_0] w1[x_1] c1").validate()

    def test_duplicate_read_rejected(self):
        with pytest.raises(ValueError, match="duplicate read"):
            History.parse("r1[x_0] r1[x_0]").validate()

    def test_duplicate_write_rejected(self):
        with pytest.raises(ValueError, match="duplicate write"):
            History.parse("w1[x_1] w1[x_1]").validate()

    def test_read_after_write_rejected(self):
        with pytest.raises(ValueError, match="read after write"):
            History.parse("w1[x_1] r1[x_1]").validate()

    def test_operation_after_commit_rejected(self):
        with pytest.raises(ValueError, match="after transaction"):
            History.parse("c1 r1[x_0]").validate()

    def test_write_must_create_own_version(self):
        with pytest.raises(ValueError, match="must create version"):
            History.parse("w1[x_2]").validate()
