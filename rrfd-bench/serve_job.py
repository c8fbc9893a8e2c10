"""Service workloads, run inside one fresh child process.

Modes:

- ``setup`` — imports and ``runtime.start()``, then stop: one ``setup_s``
  sample (the process's CPU time at that point), followed, once the event
  loop has closed, by the host-speed reference (``calibrate.py``).
- ``measure`` — setup, then the measured window with tracing off, and
  the host-speed reference once the event loop has closed.
- ``trace`` — the same window with layer wrappers and the
  ``rrfd-events-v1`` tracer on.

The benchmark generates every input from ``--seed``: the Poisson arrival
schedule, the instance inputs (``repro.service.loadgen.make_specs``) and
``ServiceConfig.seed``.  Warm-up instances are excluded from every figure.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from time import perf_counter, process_time
from typing import Any

import calibrate
from layers import LayerClock

WARMUP = 8
#: Spec pool per measured second for the closed loop: well above the
#: throughput of the event loop, and checked — running dry is an error.
CLOSED_SPECS_PER_S = 2500
#: An open-loop run is invalid when the generator ran this late (p99) ...
MAX_LATENESS_S = 0.1
#: ... or when more than this many seconds of arrivals were still
#: undecided at the end of the window.
MAX_BACKLOG_S = 1.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(job: dict, workload: dict) -> dict:
    out = asyncio.run(_run(job, workload))
    if job["mode"] != "trace":
        out["unit_ms"] = calibrate.unit_ms()
    return out


async def _run(job: dict, workload: dict) -> dict:
    from repro.service.loadgen import make_specs, named_plan
    from repro.service.runtime import ServiceConfig, ServiceRuntime
    from repro.util.rng import derive_seed

    seed = job["seed"]
    n, protocol = workload["n"], workload["protocol"]
    runtime = ServiceRuntime(ServiceConfig(
        n=n, f=workload["f"], plan=named_plan(workload["plan"], n), seed=seed,
        round_deadline=workload["round_deadline"],
    ))
    await runtime.start()
    try:
        setup = {
            "setup_cpu_s": process_time(),
            "setup_wall_s": time.monotonic() - job["spawned"],
        }
        if job["mode"] == "setup":
            return setup
        # Links connect lazily on first send; the warm-up brings them up.
        # Under a lossy plan its length is set by retransmission, so it is
        # kept out of setup_s as well as out of the window.
        await runtime.run_instances(make_specs(WARMUP, n, protocol, 1, seed))
        seconds = job["seconds"]
        if workload["loop"] == "closed":
            count = int(seconds * CLOSED_SPECS_PER_S)
            arrivals = None
        else:
            rng = random.Random(derive_seed("rrfd-bench-arrivals", seed))
            arrivals = []
            due = rng.expovariate(workload["rate"])
            while due < seconds:
                arrivals.append(due)
                due += rng.expovariate(workload["rate"])
            count = len(arrivals)
        specs = make_specs(WARMUP + count, n, protocol, 1, seed)[WARMUP:]
        probe = _Probe() if job["mode"] == "trace" else None
        window = _Window(runtime, seconds)
        try:
            if arrivals is None:
                await window.closed(specs, workload["slots"])
            else:
                await window.open(specs, arrivals, workload)
        finally:
            if probe is not None:
                probe.finish()
    finally:
        await runtime.stop()
    out = window.report(workload)
    out.update(setup)
    if probe is not None:
        out["layers"] = probe.report()
    return out


class _Window:
    """One measured window: drives instances and judges each one as it
    finishes, keeping only its times and verdict (so the benchmark's own
    bookkeeping does not grow the process's memory with the run)."""

    def __init__(self, runtime: Any, seconds: float) -> None:
        from repro.service.runtime import InstanceOutcome, audit_instance

        self._decided = InstanceOutcome.DECIDED
        self._audit = audit_instance
        self.runtime = runtime
        self.seconds = seconds
        #: (issued or due time, finished time, failed) per instance
        self.samples: list[tuple[float, float, bool]] = []
        self.failures: list[str] = []
        self.audit_violations = 0
        self.audit_s = 0.0
        self.lateness: list[float] = []
        self.backlog = 0
        self.kill_time: float | None = None
        self.stats0 = runtime.stats.snapshot()
        self.t0 = 0.0
        self.cpu_s = self.wall_s = 0.0

    def _begin(self) -> None:
        self.t0 = self.runtime.clock()
        self._cpu0 = process_time()
        self._wall0 = perf_counter()

    def _end(self) -> None:
        """Window plus drain: until every issued instance terminated."""
        self.cpu_s = process_time() - self._cpu0
        self.wall_s = perf_counter() - self._wall0

    def _record(self, start: float, result: Any) -> None:
        """An instance fails unless its outcome is ``decided`` and its
        audit reports no violation."""
        started = perf_counter()
        violations = self._audit(result).violations
        self.audit_s += perf_counter() - started
        self.audit_violations += len(violations)
        failed = bool(violations) or result.outcome is not self._decided
        if failed and len(self.failures) < 5:
            events = "; ".join(
                f"pid {e.pid} round {e.round} {e.action} at {e.time:.3f} s,"
                f" missing {sorted(e.missing)}"
                for e in result.degradations
            )
            self.failures.append(
                f"{result.spec.name}: {result.outcome.value}, "
                f"{len(violations)} audit violation(s); {events}"
            )
        self.samples.append((start, result.finished, failed))

    async def closed(self, specs: list, slots: int) -> None:
        """``slots`` callers, each submitting its next instance only after
        the previous one decided; latency is timed from submission."""
        runtime = self.runtime
        self._begin()
        end = self.t0 + self.seconds
        pool = iter(specs)

        async def caller() -> None:
            while runtime.clock() < end:
                spec = next(pool, None)
                if spec is None:
                    raise RuntimeError("closed-loop spec pool ran dry")
                issued = runtime.clock()
                self._record(issued, await runtime.run_instance(spec))

        await asyncio.gather(*(caller() for _ in range(slots)))
        self._end()

    async def open(self, specs: list, arrivals: list[float], workload: dict) -> None:
        """Poisson arrivals launched at their due times whatever the state
        of earlier instances; latency is timed from the due time."""
        runtime = self.runtime
        loop = asyncio.get_running_loop()
        self._begin()
        t0 = self.t0

        async def instance(spec: Any, due: float) -> None:
            self._record(due, await runtime.run_instance(spec))

        async def killer() -> None:
            await asyncio.sleep(workload["kill_at"] * self.seconds)
            self.kill_time = runtime.clock()
            await runtime.kill(workload["kill_pid"])

        kill_task = loop.create_task(killer())
        tasks = []
        for spec, offset in zip(specs, arrivals):
            due = t0 + offset
            wait = due - runtime.clock()
            if wait > 0:
                await asyncio.sleep(wait)
            self.lateness.append(runtime.clock() - due)
            tasks.append(loop.create_task(instance(spec, due)))
        wait = t0 + self.seconds - runtime.clock()
        if wait > 0:
            await asyncio.sleep(wait)
        self.backlog = sum(1 for task in tasks if not task.done())
        await asyncio.gather(kill_task, *tasks)
        self._end()

    def report(self, workload: dict) -> dict:
        end = self.t0 + self.seconds
        latencies = [finished - start for start, finished, _ in self.samples]
        failed = sum(1 for _, _, bad in self.samples if bad)
        decided = sum(1 for _, finished, bad in self.samples if not bad and finished <= end)
        count = len(latencies)
        beyond = count - math.ceil(0.99 * count)
        problems = []
        if beyond < 10:
            problems.append(f"only {count} samples: fewer than ten beyond p99")
        out: dict[str, Any] = {
            "attempted": count,
            "failed": failed,
            "failures": self.failures,
            "audit_violations": self.audit_violations,
            "audit_s": self.audit_s,
            "latency_p50_ms": 1000 * nearest_rank(latencies, 0.50),
            "latency_p99_ms": 1000 * nearest_rank(latencies, 0.99),
            "beyond_p99": beyond,
            "decided_per_s": decided / self.seconds,
            "cpu_s": self.cpu_s,
            "wall_s": self.wall_s,
            "stats": self._stats_delta(),
        }
        if self.lateness:
            out["lateness_p99_ms"] = 1000 * nearest_rank(self.lateness, 0.99)
            out["backlog"] = self.backlog
            if out["lateness_p99_ms"] > 1000 * MAX_LATENESS_S:
                problems.append(
                    f"generator fell behind: lateness p99 {out['lateness_p99_ms']:.1f} ms"
                )
            if self.backlog > MAX_BACKLOG_S * workload["rate"]:
                problems.append(f"backlog of {self.backlog} instances at window end")
        if self.kill_time is not None:
            first = min(
                (sample for sample in self.samples if sample[0] >= self.kill_time),
                key=lambda sample: sample[0],
            )
            out["failover_s"] = first[1] - self.kill_time
            out["detect_s"] = self._detect_s(workload["kill_pid"])
        out["problems"] = problems
        out["peak_rss_mb"] = _peak_rss_mb()
        return out

    def _stats_delta(self) -> dict[str, int]:
        now = self.runtime.stats.snapshot()
        delta = {key: now[key] - self.stats0.get(key, 0) for key in now}
        delta["queue_high_water"] = now["queue_high_water"]
        return delta

    def _detect_s(self, pid: int) -> float:
        """Kill until every survivor suspects ``pid`` (suspicion logs)."""
        latest = self.kill_time
        for endpoint in self.runtime.endpoints:
            if endpoint.pid == pid:
                continue
            raised = [
                when for when, suspected in endpoint.suspicion.suspicion_log
                if when >= self.kill_time and pid in suspected
            ]
            if not raised:
                return math.inf
            latest = max(latest, raised[0])
        return latest - self.kill_time


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Probe:
    """Layer wrappers plus the event tracer, installed for one window."""

    def __init__(self) -> None:
        from repro import obs
        from repro.service import runtime as runtime_module
        from repro.service import transport
        from repro.service.suspicion import SuspicionMonitor

        self._obs = obs
        self.tracer = obs.Tracer(capacity=1 << 20)
        self._previous = obs.set_tracer(self.tracer)
        clock = self.clock = LayerClock()
        clock.patch(transport, "encode_frame",
                    clock.timed("service.codec", transport.encode_frame, count_bytes=True))
        for name in ("encode_payload", "decode_payload"):
            clock.patch(runtime_module, name,
                        clock.timed("service.codec", getattr(runtime_module, name)))
        clock.patch(runtime_module, "read_frame",
                    clock.timed_steps("service.codec", runtime_module.read_frame))
        clock.patch(transport.PeerLink, "send",
                    clock.timed_await("service.link.send", transport.PeerLink.send))
        for name in ("check", "heard"):
            clock.patch(SuspicionMonitor, name,
                        clock.timed("service.suspicion", getattr(SuspicionMonitor, name)))

    def finish(self) -> None:
        self.clock.restore()
        self._obs.set_tracer(self._previous)

    def report(self) -> dict:
        gaps = []
        last: dict[tuple[str, int], float] = {}
        for record in self.tracer.records:
            if record.name != "service.advance":
                continue
            key = (record.attrs["instance"], record.attrs["pid"])
            ts = record.env["ts"]
            if key in last:
                gaps.append(ts - last[key])
            last[key] = ts
        clock = self.clock
        return {
            "self_s": dict(clock.self_s),
            "calls": dict(clock.calls),
            "codec_bytes": clock.bytes["service.codec"],
            "advance_ms_p50": 1000 * nearest_rank(gaps, 0.5) if gaps else 0.0,
            "dropped_records": self.tracer.dropped,
        }
