"""Fixtures and hooks shared by every item pytest collects here: the tests
under ``tests/`` and the module doctests under ``src/``."""

import pytest
from oracles import time_limit

#: Wall-time limit of each test and doctest, and of importing each module
#: collected.  The slowest test takes about 4 s; a regression that loops
#: fails there instead of hanging the suite.
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def _per_test_time_limit():
    with time_limit(TEST_SECONDS):
        yield


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    # a test module may compute values when it is imported (test_trusted.VALUES does)
    with time_limit(TEST_SECONDS):
        return (yield)
