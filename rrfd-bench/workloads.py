"""The benchmark's workload parameters and layer map.

Metric names, units, bounds and each workload's one-line rationale live in
``BENCHMARK.json`` at the repository root; the definitions are in this
directory's README.

Four workloads cover the two user-facing paths, which share no layers
(``serve-clean`` is not gated by ``BENCHMARK.json``; see the README):
``repro.check.explore`` (certification) and
``repro.service.runtime.ServiceRuntime`` (the live service).  Each layer a
performance change may target is heavy in one workload and light in
another, so every change has a workload that exercises it and one where
the prediction is "no change".
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "certify-symmetric": {
        "path": "certify",
        "spec": "kset",
        "n": 4,
        "prune_decided": False,
        "symmetry": True,
        "workers": 1,
        "expected": {"histories": 752142, "executions": 752142, "inputs_checked": 1},
        "loads": ["check.engine (DFS, memo, symmetry)"],
    },
    "certify-pool": {
        "path": "certify",
        "spec": "adopt-commit",
        "n": 4,
        "prune_decided": True,
        "symmetry": True,
        "workers": 2,
        "expected": {"histories": 127730, "executions": 127730, "inputs_checked": 16},
        "loads": ["check.executor", "check.spec", "check.scale"],
    },
    "serve-clean": {
        "path": "serve",
        "loop": "closed",
        "slots": 8,
        "n": 4,
        "f": 1,
        "protocol": "mix",
        "plan": "none",
        "round_deadline": 2.0,  # the ServiceConfig default
        "loads": ["service.transport (codec, link queue)", "service.runtime (round advance)"],
    },
    "serve-faults": {
        "path": "serve",
        "loop": "open",
        "rate": 150.0,
        "n": 4,
        "f": 1,
        "protocol": "mix",
        "plan": "drop",
        "kill_pid": 3,
        "kill_at": 0.4,  # share of the measured window
        # Long enough for a message's whole retransmission budget (10
        # retries, ~4.2 s of backoff).  With the 2 s default, a message and
        # every retransmission inside the deadline are sometimes all lost
        # (about one instance in several thousand): the round then degrades
        # or, once the killed peer is also silent, parks.
        "round_deadline": 5.0,
        "loads": ["service.runtime (ack/retransmit)", "service.suspicion"],
    },
}

#: Layer -> metrics, the end-to-end metrics it should move, and where its
#: work sits.  Printed by the traced run; the README carries the same table.
LAYER_MAP = [
    ("check.predicate", "check.predicate.enumerate_s, check.engine.memo_hit_ratio",
     "latency_p50_ms", "small on both certify-*; recorded so a regression shows"),
    ("check.executor", "check.executor.step_s, check.executor.fork_s, "
     "check.engine.forks, check.engine.rounds_executed",
     "latency_p50_ms", "certify-pool (~1/3 serial); ~0 on certify-symmetric: must not move it"),
    ("check.spec", "check.invariants_s, check.invariants.calls_per_history",
     "latency_p50_ms", "certify-pool (~1/7 serial); ~0 on certify-symmetric: must not move it"),
    ("check.engine", "check.engine.self_s, check.engine.visited, "
     "check.engine.skipped_symmetric",
     "latency_p50_ms, peak_rss_mb", "certify-symmetric (>99%); ~1/2 of certify-pool serial"),
    ("check.scale", "check.scale.tasks, check.scale.parent_cpu_s, "
     "check.scale.worker_cpu_s, check.scale.worker_busy_frac",
     "latency_p50_ms", "certify-pool only; nothing pooled on certify-symmetric"),
    ("service.transport (codec)", "service.codec_s, service.codec.bytes_per_instance",
     "decided_per_s, latency_p50_ms", "serve-clean"),
    ("service.transport (link queue)", "service.link.frames_per_instance, "
     "service.link.messages_per_frame, service.link.queue_high_water, "
     "service.link.send_wait_s", "decided_per_s", "serve-clean"),
    ("service.runtime (ack/retransmit)", "service.retransmit.per_instance, service.retries",
     "latency_p50_ms, latency_p99_ms", "serve-faults; predicted 0 on serve-clean"),
    ("service.suspicion", "service.suspicion.detect_s, service.suspicion.raised, "
     "service.suspicion.false, service.suspicion.check_s",
     "failover_s, latency_p99_ms", "serve-faults; none raised on serve-clean"),
    ("service.runtime (round advance)", "service.round.advance_ms, service.round.degraded",
     "latency_p50_ms", "both serve-*"),
    ("core.audit", "service.audit_s_per_instance",
     "none: auditing runs after the instance, off the latency path", "both serve-*"),
]
