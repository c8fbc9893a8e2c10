"""Load generation for the live service: many instances, one runtime.

:func:`run_load` drives hundreds of concurrent protocol instances over a
single :class:`~repro.service.runtime.ServiceRuntime` under a named chaos
plan, audits every completed instance through the live-trace path, and
reduces the run to throughput/latency/robustness numbers.  It backs

- the ``python -m repro load`` CLI subcommand,
- the E23 benchmark (``benchmarks/bench_e23_service.py``) via
  :func:`load_cell`, the pure harness cell function, and
- the CI ``service-smoke`` job, which asserts zero safety violations on a
  drop+partition plan.

The named plans interpret the :class:`FaultPlan` time axis in *live
seconds* on the runtime clock — windows are placed in the first couple of
seconds, where a short load run actually lives.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.core.audit import AuditReport
from repro.service.runtime import (
    InstanceOutcome,
    InstanceResult,
    InstanceSpec,
    ServiceConfig,
    ServiceRuntime,
    audit_instance,
    resolve_protocol,
)
from repro.service.degrade import DegradationReport
from repro.service.transport import ServiceStats
from repro.substrates.messaging.chaos import (
    CrashWindow,
    FaultPlan,
    LinkFaults,
    Partition,
)
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "PLAN_NAMES",
    "named_plan",
    "service_protocol",
    "make_specs",
    "LoadResult",
    "run_load",
    "load_cell",
]

#: Protocols the generator cycles through under ``protocol="mix"``.
MIX = ("consensus", "kset", "adopt-commit")

PLAN_NAMES = ("none", "drop", "partition", "ci", "chaos")


def service_protocol(name: str, *, f: int, k: int = 1):
    """Public alias of the runtime's catalog mapping (protocol, max_rounds)."""
    return resolve_protocol(name, f=f, k=k)


def named_plan(name: str, n: int) -> FaultPlan:
    """A preset :class:`FaultPlan` scaled to ``n`` live processes.

    - ``"none"`` — clean network.
    - ``"drop"`` — 10% loss + 5% duplication on every link.
    - ``"partition"`` — one timed split (low pids vs high pids) during
      ``[0.5, 1.5)`` seconds.
    - ``"ci"`` — drop + the timed partition (the service-smoke plan).
    - ``"chaos"`` — drop + dup + jitter + the timed partition + one crash
      window on process 0 (down at 0.3 s, back at 1.2 s): the acceptance
      plan — every fault class at once.
    """
    lossy = LinkFaults(drop_prob=0.1, dup_prob=0.05)
    low = frozenset(range(n // 2))
    high = frozenset(range(n // 2, n))
    split = Partition(start=0.5, end=1.5, groups=(low, high))
    if name == "none":
        return FaultPlan()
    if name == "drop":
        return FaultPlan(default=lossy)
    if name == "partition":
        return FaultPlan(partitions=[split])
    if name == "ci":
        return FaultPlan(default=lossy, partitions=[split])
    if name == "chaos":
        return FaultPlan(
            default=LinkFaults(
                drop_prob=0.1, dup_prob=0.05, jitter=0.02,
                spike_prob=0.02, spike=0.05,
            ),
            partitions=[split],
            crashes={0: [CrashWindow(down=0.3, up=1.2)]},
        )
    raise ValueError(f"unknown plan {name!r} (expected one of {PLAN_NAMES})")


def make_specs(
    count: int, n: int, protocol: str, k: int, seed: int
) -> list[InstanceSpec]:
    """``count`` seeded instance specs; ``protocol="mix"`` cycles the catalog."""
    specs = []
    for index in range(count):
        name = protocol if protocol != "mix" else MIX[index % len(MIX)]
        rng = make_rng(derive_seed("service-load-inputs", seed, index))
        inputs = tuple(rng.randrange(10) for _ in range(n))
        specs.append(
            InstanceSpec(f"i{index:04d}-{name}", name, inputs, k=k)
        )
    return specs


@dataclass
class LoadResult:
    """One load-generation run, fully audited."""

    n: int
    f: int
    plan: str
    protocol: str
    results: list[InstanceResult]
    audits: list[AuditReport]
    stats: ServiceStats
    degradations: DegradationReport
    duration: float

    def count(self, outcome: InstanceOutcome) -> int:
        return sum(1 for r in self.results if r.outcome is outcome)

    @property
    def violations(self) -> int:
        """Safety violations found by the live-trace audit — must be 0."""
        return sum(len(a.violations) for a in self.audits)

    @property
    def throughput(self) -> float:
        """Instances terminated per second of wall time."""
        return len(self.results) / self.duration if self.duration > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        latencies = sorted(r.latency for r in self.results)
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(q * len(latencies)))
        return latencies[index]

    def summary(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "f": self.f,
            "plan": self.plan,
            "protocol": self.protocol,
            "instances": len(self.results),
            "decided": self.count(InstanceOutcome.DECIDED),
            "degraded": self.count(InstanceOutcome.DEGRADED),
            "parked": self.count(InstanceOutcome.PARKED),
            "violations": self.violations,
            "throughput": self.throughput,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p95": self.latency_quantile(0.95),
            "duration": self.duration,
            "degradation_events": len(self.degradations),
            "retries": self.stats.retries,
            "retransmissions": self.stats.retransmissions,
            "fast_retransmissions": self.stats.fast_retransmissions,
            "reconnects": self.stats.reconnects,
            "degraded_rounds": self.stats.degraded_rounds,
            "queue_high_water": self.stats.queue_high_water,
        }


async def run_load_async(
    *,
    n: int = 4,
    f: int = 1,
    instances: int = 100,
    protocol: str = "mix",
    plan: str = "none",
    k: int = 1,
    seed: int = 0,
    round_deadline: float = 2.0,
    initial_timeout: float = 0.5,
    heartbeat_interval: float = 0.05,
) -> LoadResult:
    """Run ``instances`` concurrent instances under ``plan`` and audit all."""
    config = ServiceConfig(
        n=n,
        f=f,
        plan=named_plan(plan, n),
        seed=seed,
        round_deadline=round_deadline,
        initial_timeout=initial_timeout,
        heartbeat_interval=heartbeat_interval,
    )
    specs = make_specs(instances, n, protocol, k, seed)
    runtime = ServiceRuntime(config)
    await runtime.start()
    try:
        started = runtime.clock()
        results = await runtime.run_instances(specs)
        duration = runtime.clock() - started
    finally:
        await runtime.stop()
    return LoadResult(
        n=n,
        f=f,
        plan=plan,
        protocol=protocol,
        results=results,
        audits=[audit_instance(r) for r in results],
        stats=runtime.stats,
        degradations=runtime.degradations,
        duration=duration,
    )


def run_load(**kwargs: Any) -> LoadResult:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(**kwargs))


def load_cell(ctx) -> dict:
    """Harness cell for E23: one seeded load run reduced to its metrics.

    Pure and top-level (picklable), per the harness's parallel-safety
    contract; the sample's seed comes from ``ctx.seed`` so results are
    independent of worker scheduling.  Latency and throughput are
    wall-clock observations and land in the artifact's environmental half.
    """
    result = run_load(
        n=ctx["n"],
        f=ctx["f"],
        instances=ctx["instances"],
        protocol=ctx["protocol"],
        plan=ctx["plan"],
        seed=ctx.seed,
    )
    summary = result.summary()
    return {
        "terminated": summary["decided"] + summary["degraded"] + summary["parked"],
        "decided": summary["decided"],
        "degraded": summary["degraded"],
        "parked": summary["parked"],
        "violations": summary["violations"],
        "throughput": summary["throughput"],
        "latency_p50": summary["latency_p50"],
        "latency_p95": summary["latency_p95"],
        "degraded_rounds": summary["degraded_rounds"],
        "retransmissions": summary["retransmissions"],
    }
