"""Fixtures shared by the test modules."""

import sys

import pytest

from qmcrisk import experiments, lowdisc


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
    """The worker count of every pool ``lowdisc.run_tiles`` starts, the
    package's only pool site: one per call with more than one worker."""
    widths = []

    class RecordingPool(lowdisc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(lowdisc, "ThreadPoolExecutor", RecordingPool)
    return widths


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if it draws or evaluates a point or starts a thread:
    every draw, evaluation and truth pass runs through ``lowdisc.tiled``,
    and it and a study's replications through ``run_tiles``, the one
    scheduler, whose pools are ``lowdisc.ThreadPoolExecutor``s; an MC draw
    keys its stream first."""

    def drawn(*args, **kwargs):
        raise AssertionError("reached a draw")

    for module, name in (
        (lowdisc, "run_tiles"),
        (experiments, "run_tiles"),
        (experiments, "mc_stream_seed"),
        (lowdisc, "ThreadPoolExecutor"),
    ):
        monkeypatch.setattr(module, name, drawn)
