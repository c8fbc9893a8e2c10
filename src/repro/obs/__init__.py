"""Structured observability: event tracing, metrics, profiling hooks.

The runtime's instrumented layers (the round executor, the incremental
exploration engine, the reliable overlay, the experiment harness) report
into whatever tracer and metrics registry are *current*.  Both default to
shared disabled instances, so observability is off — and near-free — until
a caller installs live ones:

    from repro import obs

    tracer = obs.Tracer()
    metrics = obs.Metrics()
    with obs.tracing(tracer), obs.collecting(metrics):
        explore("kset", n=3)
    tracer.save("events.jsonl")          # rrfd-events-v1
    print(obs.format_metrics(metrics))

Hot call sites follow one pattern — fetch, guard, emit::

    t = obs.current_tracer()
    if t.enabled:
        t.event("engine.fork", depth=len(history))

so a disabled tracer costs one function call and one attribute test per
site.  The overhead contract (<3% on bench E22 with tracing disabled) is
asserted in ``tests/obs/test_overhead.py`` and the CI obs-smoke job.

Worker processes never share the parent's tracer: the harness and the
check scheduler install a fresh buffered tracer/registry per chunk or
task, ship the records and snapshots back, and the parent splices them in
deterministic payload order — which is why a trace's deterministic
payload is bit-identical across ``--workers 1/2/4``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NULL_METRICS,
    TIMING_BUCKETS_S,
    field_snapshot,
    format_metrics,
    merge_field_snapshots,
    publish_fields,
)
from repro.obs.trace import (
    EVENTS_SCHEMA,
    NULL_TRACER,
    TraceRecord,
    Tracer,
    canonical_events,
    events_header,
    load_events,
    validate_events,
)

__all__ = [
    "Counter",
    "EVENTS_SCHEMA",
    "Gauge",
    "Histogram",
    "Metrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "TIMING_BUCKETS_S",
    "TraceRecord",
    "Tracer",
    "canonical_events",
    "collecting",
    "current_metrics",
    "current_tracer",
    "events_header",
    "field_snapshot",
    "format_metrics",
    "load_events",
    "merge_field_snapshots",
    "publish_fields",
    "set_metrics",
    "set_tracer",
    "tracing",
    "validate_events",
]

_tracer: Tracer = NULL_TRACER
_metrics: Metrics = NULL_METRICS


def current_tracer() -> Tracer:
    """The tracer instrumented code reports to (disabled by default)."""
    return _tracer


def current_metrics() -> Metrics:
    """The metrics registry instrumented code reports to (disabled by default)."""
    return _metrics


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as current (``None`` restores the null tracer);
    returns the previous one so callers can restore it."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def set_metrics(metrics: Metrics | None) -> Metrics:
    """Install ``metrics`` as current (``None`` restores the null registry);
    returns the previous one so callers can restore it."""
    global _metrics
    previous = _metrics
    _metrics = metrics if metrics is not None else NULL_METRICS
    return previous


@contextmanager
def tracing(tracer: Tracer | None) -> Iterator[Tracer]:
    """Scope ``tracer`` as current; always restores the previous one."""
    previous = set_tracer(tracer)
    try:
        yield _tracer
    finally:
        set_tracer(previous)


@contextmanager
def collecting(metrics: Metrics | None) -> Iterator[Metrics]:
    """Scope ``metrics`` as current; always restores the previous one."""
    previous = set_metrics(metrics)
    try:
        yield _metrics
    finally:
        set_metrics(previous)
