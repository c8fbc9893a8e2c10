"""Certification workloads, run inside one fresh child process.

Modes:

- ``setup`` — imports plus spec/predicate build, then stop: one
  ``setup_s`` sample (the process's CPU time at that point), followed by
  the host-speed reference (``calibrate.py``).
- ``measure`` — setup, then one untraced ``explore`` call with its verdict
  checked against the expected counts, between two host-speed
  references.
- ``trace`` — one pass of the per-layer run (``part``): an untraced and a
  traced certification (for the tracing overhead), the latter with
  wrappers on the predicate, executor and invariant layers.  A pool's
  workers cannot report wrapper times, so ``certify-pool`` takes those
  from the same certification in-process (``scheduler="steal",
  workers=1``, the same task decomposition) and its ``check.scale.*``
  figures from a third pass, the real pool run, via ``getrusage``.
"""

from __future__ import annotations

import resource
import time
from time import perf_counter, process_time
from typing import Any

import calibrate
from layers import LayerClock, subclasses_defining


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * pool) / 1024.0


def _verdict_problems(result: Any, workload: dict) -> list[str]:
    problems = []
    if not result.ok:
        problems.append(f"{len(result.violations)} violation(s)")
    if result.partial:
        problems.append("partial run")
    for field, expected in workload["expected"].items():
        got = getattr(result, field)
        if got != expected:
            problems.append(f"{field}={got}, expected {expected}")
    return problems


def _explore(spec: Any, workload: dict, **overrides: Any) -> tuple[Any, float]:
    from repro.check import explore

    kwargs = {
        "n": workload["n"],
        "prune_decided": workload["prune_decided"],
        "symmetry": workload["symmetry"],
        "workers": workload["workers"],
    }
    kwargs.update(overrides)
    started = perf_counter()
    result = explore(spec, **kwargs)
    return result, perf_counter() - started


def run(job: dict, workload: dict) -> dict:
    from repro.check import get_spec

    spec = get_spec(workload["spec"])
    spec.predicate(workload["n"])
    spec.protocol(workload["n"])
    setup = {"setup_cpu_s": process_time(), "setup_wall_s": time.monotonic() - job["spawned"]}
    if job["mode"] == "setup":
        return dict(setup, unit_ms=calibrate.unit_ms())
    if job["mode"] == "measure":
        # The host's speed changes over a certification's seconds: the
        # reference brackets it.
        before = calibrate.unit_ms()
        result, wall = _explore(spec, workload)
        return {
            **setup,
            "certify_s": wall,
            "unit_ms": (before + calibrate.unit_ms()) / 2,
            "histories": result.histories,
            "problems": _verdict_problems(result, workload),
            "summary": result.summary(),
            "peak_rss_mb": _peak_rss_mb(result.workers),
        }
    return _trace(spec, workload, job["part"])


def _trace(spec: Any, workload: dict, part: str) -> dict:
    """One pass of the traced run, each in its own fresh process so that
    every pass starts from the same cold caches.

    ``pool`` is the real pool run (parent and worker CPU from getrusage);
    ``untraced`` and ``traced`` are the certification the wrappers can see
    (in-process steal with one worker when the workload uses a pool).
    """
    overrides: dict[str, Any] = {}
    if workload["workers"] > 1 and part != "pool":
        overrides = {"workers": 1, "scheduler": "steal"}
    out: dict[str, Any] = {}
    if part == "pool":
        parent0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        result, wall = _explore(spec, workload)
        worker = _cpu(resource.RUSAGE_CHILDREN) - children0
        out["pool"] = {
            "wall_s": wall,
            "workers": result.workers,
            "tasks": result.scale.get("tasks", 0),
            "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - parent0,
            "worker_cpu_s": worker,
            "worker_busy_frac": worker / (result.workers * wall),
        }
    elif part == "untraced":
        result, out["wall_s"] = _explore(spec, workload, **overrides)
    else:
        clock, explorer_stats = _install()
        try:
            result, out["wall_s"] = _explore(spec, workload, **overrides)
        finally:
            clock.restore()
        engine: dict[str, int] = {}
        for stats in explorer_stats:
            for key, value in stats.snapshot().items():
                engine[key] = engine.get(key, 0) + value
        out.update({
            "layer_run": "in-process steal, workers=1" if overrides else "in-process",
            "self_s": dict(clock.self_s),
            "calls": dict(clock.calls),
            "engine": engine,
            "result": {
                "histories": result.histories,
                "visited": result.visited,
                "skipped_symmetric": result.skipped_symmetric,
                "rounds_executed": result.rounds_executed,
            },
        })
    out["problems"] = _verdict_problems(result, workload)
    out["summary"] = result.summary()
    return out


def _install() -> tuple[LayerClock, list]:
    """Wrap the certification layers; returns the clock and a list that
    collects every explorer's EngineStats as explorers are built."""
    from repro.check import engine as engine_module
    from repro.check.spec import ConformanceSpec
    from repro.core.executor import RoundExecutor
    from repro.core.predicate import PackedPredicate

    clock = LayerClock()
    for cls in subclasses_defining(PackedPredicate, "admissible_round_ints"):
        clock.patch(
            cls, "admissible_round_ints",
            clock.timed("check.predicate", cls.__dict__["admissible_round_ints"]),
        )
    clock.patch(RoundExecutor, "step",
                clock.timed("check.executor.step", RoundExecutor.step))
    clock.patch(RoundExecutor, "fork",
                clock.timed("check.executor.fork", RoundExecutor.fork))
    clock.patch(ConformanceSpec, "failures",
                clock.timed("check.invariants", ConformanceSpec.failures))

    collected: list = []
    explorer_cls = engine_module.IncrementalExplorer
    original_init = explorer_cls.__init__

    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        collected.append(self.stats)

    clock.patch(explorer_cls, "__init__", init)
    return clock, collected
