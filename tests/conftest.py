"""Fixtures shared by the test modules."""

import sys

import pytest

from qmcrisk import experiments, lowdisc, models


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
    every tiled loop and a study's replications run through ``run_tiles``,
    the one scheduler, whose pools are ``lowdisc.ThreadPoolExecutor``s; an
    MC point draw keys its stream first, and the truth pass draws through
    ``_truth_losses``."""

    def drawn(*args, **kwargs):
        raise AssertionError("reached a draw")

    for module, name in (
        (lowdisc, "run_tiles"),
        (models, "run_tiles"),
        (experiments, "run_tiles"),
        (experiments, "mc_stream_seed"),
        (experiments, "_truth_losses"),
        (lowdisc, "ThreadPoolExecutor"),
    ):
        monkeypatch.setattr(module, name, drawn)
