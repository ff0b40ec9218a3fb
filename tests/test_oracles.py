"""Tests of the test helpers that are not oracles: the wall-time limit."""

import signal
import time

import pytest
from conftest import TEST_SECONDS
from oracles import TimeLimitExceeded, time_limit


def _spin(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_each_test_runs_under_the_suite_limit():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_SECONDS


def test_inner_block_leaves_the_outer_limit_armed():
    # the inner block's exit used to set the timer to 0, which disarmed the outer limit
    with pytest.raises(TimeLimitExceeded, match="after 0.2 s"):
        with time_limit(0.2):
            with time_limit(5):
                pass
            _spin(2)


def test_inner_limit_fires_and_gives_the_outer_its_time_back():
    with time_limit(5):
        with pytest.raises(TimeLimitExceeded, match="after 0.1 s"):
            with time_limit(0.1):
                _spin(2)
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 4 < remaining < 5


def test_outer_limit_that_ran_out_inside_fires_on_exit():
    with pytest.raises(TimeLimitExceeded, match="after 0.1 s"):
        with time_limit(0.1):
            with time_limit(5):
                _spin(0.3)
            _spin(2)


def test_alarm_that_comes_as_the_block_ends_leaves_the_outer_limit_armed():
    # SIGALRM held back in the block stands for an alarm that comes after the block's last
    # statement, while the exit restores the enclosing handler and timer
    with time_limit(5):
        outer_handler = signal.getsignal(signal.SIGALRM)
        try:
            with time_limit(0.05):
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                time.sleep(0.2)
            assert signal.SIGALRM not in signal.pthread_sigmask(signal.SIG_BLOCK, set())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        assert signal.getsignal(signal.SIGALRM) is outer_handler
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 4 < remaining < 5
