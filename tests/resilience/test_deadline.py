"""Deadline construction, comparison, and token arming."""

import time

import pytest

from repro.analysis.executor import CancelToken
from repro.resilience.deadline import DEADLINE_REASON, Deadline, DeadlineExceeded


class TestConstruction:
    def test_after_positive_seconds(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired

    @pytest.mark.parametrize("seconds", [0, -1, -0.001])
    def test_after_rejects_nonpositive(self, seconds):
        with pytest.raises(ValueError):
            Deadline.after(seconds)

    def test_after_ms_wire_format(self):
        deadline = Deadline.after_ms(5000)
        assert 4.0 < deadline.remaining() <= 5.0


class TestExpiry:
    def test_remaining_never_negative(self):
        deadline = Deadline(time.monotonic() - 5.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_raise_if_expired(self):
        past = Deadline(time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded, match=DEADLINE_REASON):
            past.raise_if_expired()
        Deadline.after(60).raise_if_expired()  # no raise

    def test_tighten_picks_earlier(self):
        soon = Deadline.after(1.0)
        late = Deadline.after(60.0)
        assert late.tighten(soon) is soon
        assert soon.tighten(late) is soon
        assert soon.tighten(None) is soon


class TestArming:
    def test_arm_cancels_token_with_deadline_reason(self):
        token = CancelToken()
        timer = Deadline.after(0.05).arm(token)
        try:
            deadline = time.monotonic() + 2.0
            while not token.cancelled and time.monotonic() < deadline:
                time.sleep(0.005)
            assert token.cancelled
            assert token.reason == DEADLINE_REASON
        finally:
            timer.cancel()

    def test_cancelled_timer_never_fires(self):
        token = CancelToken()
        timer = Deadline.after(0.05).arm(token)
        timer.cancel()
        time.sleep(0.1)
        assert not token.cancelled

    def test_far_deadline_keeps_its_timer_waiting(self):
        """A wait past the platform's timer limit is clamped, not raised
        in the timer thread (a deadline or timeout from a request body
        can be any float)."""
        token = CancelToken()
        timer = Deadline.after(1e300).arm(token)
        try:
            time.sleep(0.05)
            assert timer.is_alive()
            assert not token.cancelled
        finally:
            timer.cancel()
            timer.join(timeout=2.0)
        assert not timer.is_alive()
