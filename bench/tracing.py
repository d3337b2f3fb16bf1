"""Spans around the calls into each qmcrisk layer, recorded from outside.

The package itself carries no instrumentation.  ``patched`` swaps the
public functions that the workloads reach (by the names their callers look
them up under) for wrappers that record a span per call, then restores the
originals.  Spans live in memory on a ``Tracer`` and are reduced to
per-layer metrics by ``layer_metrics`` after the run.

A span's self time is its duration minus the part of that interval its
child spans cover; children that run in parallel threads are merged first,
so overlapping children are not subtracted twice.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

MIB = float(1 << 20)

# layer names, as reported in the metric names
SOBOL = "lowdisc.sobol_points"
OWEN = "randomize.owen_scramble"
SHIFT = "randomize.digital_shift"
EVALUATE = "models.evaluate"
ESTIMATORS = "estimators"
POOL_TASK = "experiments.pool.task"
EXPERIMENTS_PREFIX = "experiments."


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    work: int = 0  # coordinates or rows the call processed
    peak_bytes: int = 0  # traced-heap rise during the call, if tracked
    workers: int = 0  # pool width, on pool spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; safe to use from a thread pool."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._peak_in_flight = 0
        self.missing: set = set()  # call sites the package no longer has

    def current(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self,
        name: str,
        work: int = 0,
        parent: Optional[int] = None,
        track_peak: bool = False,
    ) -> Iterator[Span]:
        """Record one call.  ``parent`` overrides the calling thread's
        innermost open span, for work handed to a pool thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        s = Span(next(self._ids), name, parent, 0.0, work=work)
        track_peak = track_peak and tracemalloc.is_tracing()
        base = self._peak_begin() if track_peak else 0
        stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if track_peak:
                s.peak_bytes = self._peak_end(base)
            with self._lock:
                self.spans.append(s)

    # The traced-heap peak is process-wide.  It is reset only when no other
    # tracked call is open, so a call that overlaps another one in a second
    # thread reports an upper bound that includes the other's allocations.
    def _peak_begin(self) -> int:
        with self._lock:
            if self._peak_in_flight == 0:
                tracemalloc.reset_peak()
            self._peak_in_flight += 1
            return tracemalloc.get_traced_memory()[0]

    def _peak_end(self, base: int) -> int:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._peak_in_flight -= 1
        return max(peak - base, 0)


def _wrap(tracer: Tracer, name: str, fn, work=None, track_peak: bool = False):
    def traced(*args, **kwargs):
        n = work(*args, **kwargs) if work is not None else 0
        with tracer.span(name, work=n, track_peak=track_peak):
            return fn(*args, **kwargs)

    return traced


def _traced_pool_class(tracer: Tracer, base):
    class TracedPool(base):
        """Executor whose tasks each record a span under the caller's span."""

        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()
            workers = self._max_workers

            def task(*args):
                with tracer.span(POOL_TASK, parent=parent) as s:
                    s.workers = workers
                    return fn(*args)

            return super().map(task, *iterables, **kwargs)

    return TracedPool


def _patch_points(tracer: Tracer, qmcrisk) -> List[Tuple[object, str, object]]:
    """(owner, attribute, replacement) for every call site the workloads use."""
    # the package re-exports functions under its submodules' names
    # (qmcrisk.randomize is the function), so look the modules up by path
    lowdisc, randomize, experiments, models = (
        importlib.import_module(f"{qmcrisk.__name__}.{m}")
        for m in ("lowdisc", "randomize", "experiments", "models")
    )

    def sobol_work(n, dim, *args, **kwargs):
        return int(n) * int(dim)

    def rows_work(self, u, *args, **kwargs):
        shape = getattr(u, "shape", ())
        return int(shape[0]) if len(shape) == 2 else 1

    def ps_work(ps, *args, **kwargs):
        return int(ps.n) * int(ps.dim)

    points: List[Tuple[object, str, object]] = []

    def add(owners, attr, name, work=None, track_peak=False):
        fn = getattr(owners[0], attr, None)
        if fn is None:
            tracer.missing.add(f"{getattr(owners[0], '__name__', owners[0])}.{attr}")
            return
        wrapped = _wrap(tracer, name, fn, work, track_peak)
        for owner in owners:
            if getattr(owner, attr, None) is fn:
                points.append((owner, attr, wrapped))

    add([lowdisc, experiments], "sobol_points", SOBOL, sobol_work, True)
    add([randomize], "owen_scramble", OWEN, ps_work, True)
    add([randomize], "digital_shift", SHIFT, ps_work)
    add([models.SanModel], "evaluate", EVALUATE, rows_work, True)
    for attr in ("SampleBatch", "quantile_estimate", "shortfall_estimate"):
        add([qmcrisk, experiments], attr, ESTIMATORS)
    for attr in ("run_convergence", "mc_truth", "sample_points"):
        add([qmcrisk, experiments], attr, f"experiments.{attr}")
    pool = getattr(experiments, "ThreadPoolExecutor", None)
    if pool is None:
        tracer.missing.add("experiments.ThreadPoolExecutor")
    else:
        points.append((experiments, "ThreadPoolExecutor", _traced_pool_class(tracer, pool)))
    return points


@contextmanager
def patched(tracer: Tracer, qmcrisk) -> Iterator[None]:
    """Route the workloads' calls into qmcrisk through ``tracer``."""
    points = _patch_points(tracer, qmcrisk)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
    try:
        for owner, attr, replacement in points:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ())) for s in spans}


def layer_metrics(spans: Sequence[Span], ops: int, useful_points: int) -> Dict[str, float]:
    """Per-layer metrics over ``ops`` traced operations.

    Seconds and counts are per operation.  Seconds sum busy time over
    threads, so a layer running in two threads at once can exceed the
    operation's wall time.  ``useful_points`` is per operation.
    """
    if ops < 1:
        raise ValueError("need at least one traced operation")

    def of(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def seconds(name: str) -> float:
        return sum(s.duration for s in of(name))

    def work(name: str) -> int:
        return sum(s.work for s in of(name))

    def per_unit_ns(name: str) -> float:
        w = work(name)
        return seconds(name) / w * 1e9 if w else 0.0

    def peak_mib(name: str) -> float:
        return max((s.peak_bytes for s in of(name)), default=0) / MIB

    out: Dict[str, float] = {}
    for name in (OWEN, SHIFT, SOBOL):
        out[f"{name}.s"] = seconds(name) / ops
        out[f"{name}.ns_per_coord"] = per_unit_ns(name)
        out[f"{name}.coords"] = work(name) / ops
    out[f"{OWEN}.peak_mib"] = peak_mib(OWEN)
    out[f"{SOBOL}.peak_mib"] = peak_mib(SOBOL)

    rows = work(EVALUATE)
    out[f"{EVALUATE}.s"] = seconds(EVALUATE) / ops
    out[f"{EVALUATE}.ns_per_row"] = per_unit_ns(EVALUATE)
    out[f"{EVALUATE}.rows"] = rows / ops
    out[f"{EVALUATE}.peak_mib"] = peak_mib(EVALUATE)
    out[f"{EVALUATE}.useful_ratio"] = useful_points * ops / rows if rows else 0.0

    out[f"{ESTIMATORS}.s"] = seconds(ESTIMATORS) / ops
    out[f"{ESTIMATORS}.calls"] = len(of(ESTIMATORS)) / ops

    own = self_times(spans)
    out["experiments.self_s"] = (
        sum(own[s.id] for s in spans if s.name.startswith(EXPERIMENTS_PREFIX)) / ops
    )

    # pool utilisation: task busy time over the capacity of the pool for
    # the whole span that created it
    by_id = {s.id: s for s in spans}
    tasks = [t for t in of(POOL_TASK) if t.parent in by_id]
    capacity = 0.0
    for parent_id in {t.parent for t in tasks}:
        workers = max(t.workers for t in tasks if t.parent == parent_id)
        capacity += workers * by_id[parent_id].duration
    busy = sum(t.duration for t in tasks)
    out["experiments.pool.busy_frac"] = busy / capacity if capacity else 0.0
    return out
