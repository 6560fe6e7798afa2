"""Backoff policy and the one retry rule."""

import pytest

from repro.errors import AbortReason, Overloaded, ProtocolError, TransactionAborted
from repro.qos.retry import BackoffPolicy, Retry
from repro.sim.random_streams import RandomStreams


class TestBackoffPolicy:
    def test_exponential_without_jitter(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=8.0, jitter=0.0)
        rng = RandomStreams(0).stream("unused")
        assert policy.schedule(5, rng) == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_stays_in_band(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, cap=64.0, jitter=0.5)
        rng = RandomStreams(3).stream("retry")
        for attempt in range(6):
            raw = min(64.0, 2.0**attempt)
            delay = policy.delay(attempt, rng)
            assert 0.5 * raw <= delay <= 1.5 * raw

    def test_same_seed_same_schedule(self):
        policy = BackoffPolicy()
        first = policy.schedule(8, RandomStreams(42).stream("session.retry"))
        second = policy.schedule(8, RandomStreams(42).stream("session.retry"))
        assert first == second

    def test_different_seeds_differ(self):
        policy = BackoffPolicy()
        first = policy.schedule(8, RandomStreams(1).stream("session.retry"))
        second = policy.schedule(8, RandomStreams(2).stream("session.retry"))
        assert first != second


class TestRetry:
    POLICY = BackoffPolicy(base=1.0, factor=2.0, cap=8.0, jitter=0.5)

    def test_delays_are_the_policy_schedule(self):
        retry = Retry(self.POLICY, RandomStreams(42).stream("r"))
        delays = [retry.failed(Overloaded()) for _ in range(5)]
        assert delays == self.POLICY.schedule(5, RandomStreams(42).stream("r"))
        assert retry.count == 5

    def test_non_retryable_errors_are_re_raised_uncounted(self):
        retry = Retry(self.POLICY, RandomStreams(0).stream("r"))
        for error in (
            TransactionAborted(1, AbortReason.USER_REQUESTED),
            ProtocolError("misuse"),
            KeyError("body bug"),
        ):
            with pytest.raises(type(error)) as info:
                retry.failed(error)
            assert info.value is error
        assert retry.count == 0

    def test_limit_turns_a_retryable_error_terminal(self):
        retry = Retry(self.POLICY, RandomStreams(0).stream("r"), limit=2)
        error = TransactionAborted(1, AbortReason.DEADLOCK_VICTIM)
        retry.failed(error)
        retry.failed(error)
        with pytest.raises(TransactionAborted):
            retry.failed(error)
        assert retry.count == 2

    def test_reset_restarts_the_exponent_not_the_jitter_stream(self):
        rng = RandomStreams(7).stream("r")
        retry = Retry(self.POLICY, rng, limit=1)
        retry.failed(Overloaded())
        retry.reset()
        second = retry.failed(Overloaded())
        expected = RandomStreams(7).stream("r")
        expected.random()  # the first delay's draw
        assert second == self.POLICY.delay(0, expected)
