"""Unit tests for the cooperative OpFuture primitive."""

import pytest

from repro.core.futures import OpFuture, failed, resolved
from repro.errors import FutureNotReady


class TestLifecycle:
    def test_starts_pending(self):
        f = OpFuture("op")
        assert f.pending
        assert not f.done
        assert f.pending

    def test_resolve_sets_value(self):
        f = OpFuture()
        f.resolve(42)
        assert f.done
        assert not f.failed
        assert f.result() == 42

    def test_fail_sets_error(self):
        f = OpFuture()
        err = RuntimeError("boom")
        f.fail(err)
        assert f.failed
        assert f.error is err

    def test_result_reraises_failure(self):
        f = OpFuture()
        f.fail(ValueError("nope"))
        with pytest.raises(ValueError, match="nope"):
            f.result()

    def test_result_on_pending_raises_future_not_ready(self):
        f = OpFuture("blocked read")
        with pytest.raises(FutureNotReady, match="blocked read"):
            f.result()

    def test_double_resolve_rejected(self):
        f = OpFuture()
        f.resolve(1)
        with pytest.raises(RuntimeError, match="settled twice"):
            f.resolve(2)

    def test_resolve_after_fail_rejected(self):
        f = OpFuture()
        f.fail(RuntimeError())
        with pytest.raises(RuntimeError, match="settled twice"):
            f.resolve(1)

    def test_resolve_with_none_default(self):
        f = OpFuture()
        f.resolve()
        assert f.result() is None


class TestCallbacks:
    def test_callback_fires_on_resolution(self):
        f = OpFuture()
        seen = []
        f.add_callback(lambda fut: seen.append(fut.result()))
        assert seen == []
        f.resolve("v")
        assert seen == ["v"]

    def test_callback_added_after_resolution_fires_immediately(self):
        f = resolved("early")
        seen = []
        f.add_callback(lambda fut: seen.append(fut.result()))
        assert seen == ["early"]

    def test_multiple_callbacks_fire_in_order(self):
        f = OpFuture()
        seen = []
        f.add_callback(lambda _: seen.append(1))
        f.add_callback(lambda _: seen.append(2))
        f.resolve(None)
        assert seen == [1, 2]

    def test_callback_fires_on_failure_too(self):
        f = OpFuture()
        seen = []
        f.add_callback(lambda fut: seen.append(fut.failed))
        f.fail(RuntimeError())
        assert seen == [True]


class TestConstructors:
    def test_resolved_constructor(self):
        f = resolved(7, label="seven")
        assert f.result() == 7
        assert f.label == "seven"

    def test_failed_constructor(self):
        f = failed(KeyError("k"), label="lookup")
        assert f.failed
        with pytest.raises(KeyError):
            f.result()
