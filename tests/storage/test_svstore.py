"""Tests for the single-version baseline store."""

from repro.storage.svstore import SVStore


class TestSVStore:
    def test_unknown_key_reads_initial(self):
        store = SVStore()
        assert store.read("x") == (None, 0)

    def test_apply_and_read(self):
        store = SVStore()
        store.apply("x", "hello", writer_tn=3)
        assert store.read("x") == ("hello", 3)

    def test_overwrite_updates_attribution(self):
        store = SVStore()
        store.apply("x", 1, writer_tn=1)
        store.apply("x", 2, writer_tn=2)
        assert store.read("x") == (2, 2)
