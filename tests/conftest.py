"""Fixtures shared by the test modules."""

import sys

import pytest

from qmcrisk import lowdisc


@pytest.fixture
def fine_switching():
    """A thread switch interval of 1 us for the test's duration, so pool
    threads interleave at a fine grain; the old interval is restored."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture
def pool_widths(monkeypatch):
    """The worker count of every pool ``lowdisc.in_order`` starts: the
    package's only pool site."""
    widths = []

    class RecordingPool(lowdisc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(lowdisc, "ThreadPoolExecutor", RecordingPool)
    return widths
