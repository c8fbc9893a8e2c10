"""rrfd-bench: end-to-end and per-layer benchmark for the repository's two
user-facing paths, certification (``repro.check.explore``) and the live
service (``repro.service.runtime.ServiceRuntime``).

Usage, from the repository root::

    python3 rrfd-bench/run.py --workload serve-faults --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer metrics with
a reconciliation line (layer self times plus the named residual against
wall time, and the tracing overhead).  Human-readable lines go first; the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every measurement runs in a fresh child process (``child.py``) with the
repository's ``src`` on ``PYTHONPATH``.  Exit codes: 0 with a correct
result, 1 when an output was wrong, 2 when the program to measure is
missing or a child crashed, 3 when the run is invalid (the open-loop
generator fell behind, or too few samples for the reported percentile).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import calibrate
from serve_job import nearest_rank
from workloads import LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
#: setup_s is the median of this many fresh processes.
SETUP_SAMPLES = 11
#: A certification run makes at least this many certifications.
MIN_CERTIFICATIONS = 2


class BenchError(Exception):
    """The run could not produce a result (exit code 2)."""


class InvalidRun(Exception):
    """The run produced figures that must not be reported (exit code 3)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    # Children import the bytecode compile_program wrote, whatever the
    # environment says about writing it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_program(deadline: float) -> None:
    """Compile the program's and the benchmark's modules (into their
    ``__pycache__`` directories) before anything is measured: a fresh
    checkout has no bytecode, and every measured child should import
    compiled modules, as a user's installation does."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"compileall exited {proc.returncode}")


def spawn(job: dict, deadline: float) -> dict:
    """Run one child to completion and return its JSON report.

    The child leads its own process group, so a timeout kills its pool
    workers too.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    env = child_env()
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"{job['workload']} {job['mode']} child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(values: list[float]) -> float:
    """p99 when at least ten samples lie beyond it, else the median: with
    too few samples no percentile above the median is measured."""
    if len(values) - math.ceil(0.99 * len(values)) >= 10:
        return nearest_rank(values, 0.99)
    return statistics.median(values)


def setup_probes(job: dict, have: list[dict], deadline: float) -> list[dict]:
    """``have`` plus fresh set-up processes, ``SETUP_SAMPLES`` in all."""
    return have + [
        spawn(dict(job, mode="setup"), deadline)
        for _ in range(max(0, SETUP_SAMPLES - len(have)))
    ]


def on_nominal_host(out: dict, name: str, processes: list[dict],
                    value: Callable[[dict], float],
                    reduce: Callable[[list[float]], float] = statistics.median) -> None:
    """Record ``name``, reduced over ``processes``, with each process's
    value scaled to the nominal host by its own reference (calibrate.py),
    and as measured under ``<name>_raw``."""
    out[name] = reduce([value(p) * calibrate.to_nominal(p["unit_ms"]) for p in processes])
    out[f"{name}_raw"] = reduce([value(p) for p in processes])


def setup_figures(probes: list[dict]) -> dict:
    """``setup_s`` and the set-up wall time over the set-up processes,
    with the median reference unit for the printout."""
    out = {
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in probes),
        "setup_n": len(probes),
        "unit_ms": statistics.median(p["unit_ms"] for p in probes),
    }
    on_nominal_host(out, "setup_s", probes, lambda p: p["setup_cpu_s"])
    return out


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)


def certify_run(job: dict, seconds: float, deadline: float) -> dict:
    started = time.monotonic()
    reps: list[dict] = []
    while len(reps) < MIN_CERTIFICATIONS or time.monotonic() - started < seconds:
        reps.append(spawn(dict(job, mode="measure"), deadline))
    failed = [r for r in reps if r["problems"]]
    for rep in reps:
        print(f"  {rep['summary']}")
    for rep in failed:
        print(f"  WRONG: {'; '.join(rep['problems'])}")
    out = {
        "attempted": len(reps),
        "failed": len(failed),
        **setup_figures(setup_probes(job, reps, deadline)),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "certify_s": statistics.median(r["certify_s"] for r in reps),
        "samples": len(reps),
    }
    on_nominal_host(out, "latency_p50_ms", reps, lambda r: 1000 * r["certify_s"])
    on_nominal_host(out, "latency_p99_ms", reps, lambda r: 1000 * r["certify_s"], tail)
    return out


def serve_run(job: dict, deadline: float) -> dict:
    rep = spawn(dict(job, mode="measure"), deadline)
    if rep["problems"]:
        raise InvalidRun("; ".join(rep["problems"]))
    rep.update(setup_figures(setup_probes(job, [rep], deadline)), samples=rep["attempted"])
    return rep


def print_end_to_end(name: str, rep: dict) -> None:
    """Every end-to-end metric by name and unit (n/a where the workload
    has no such quantity)."""
    serve = WORKLOADS[name]["path"] == "serve"
    attempted, failed = rep["attempted"], rep["failed"]
    rows = [
        ("setup_s", rep["setup_s"], "s",
         f"CPU, median of {rep['setup_n']} processes (wall {rep['setup_wall_s']:.4f} s)"),
        ("certify_s", rep.get("certify_s"), "s",
         "" if serve else f"median of {rep['samples']} certifications"),
        ("peak_rss_mb", rep["peak_rss_mb"], "MB", ""),
        ("decided_per_s", rep.get("decided_per_s"), "1/s", ""),
        ("latency_p50_ms", rep["latency_p50_ms"], "ms",
         f"n={rep['samples']}" if serve else "certify_s, scaled"),
        ("latency_p99_ms", rep["latency_p99_ms"], "ms",
         f"{rep['beyond_p99']} samples beyond" if serve
         else "too few certifications for a tail: the median"),
        ("failover_s", rep.get("failover_s"), "s", ""),
        ("failed_frac", failed / attempted, "", f"{failed}/{attempted}"),
    ]
    for metric, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g} {unit}".rstrip()
        if f"{metric}_raw" in rep:
            note = f"{note}; {rep[f'{metric}_raw']:.6g} {unit} as measured"
        print(f"  {metric:<16} {shown:<22} {note}")
    print(
        f"  {'setup_s is' if serve else 'setup_s and the latencies are'} scaled to"
        f" the nominal host: reference unit {rep['unit_ms']:.3f} ms here (median"
        f" over the set-up processes), {calibrate.NOMINAL_UNIT_MS} ms nominal"
    )
    if serve:
        for failure in rep["failures"]:
            print(f"  FAILED: {failure}")
        extra = f"  audit violations {rep['audit_violations']}"
        if "lateness_p99_ms" in rep:
            extra += (
                f", generator lateness p99 {rep['lateness_p99_ms']:.2f} ms, "
                f"backlog at window end {rep['backlog']}"
            )
        if "detect_s" in rep:
            extra += f", all survivors suspected the killed pid after {rep['detect_s']:.3f} s"
        print(extra)


# ---------------------------------------------------------------------------
# traced runs


def certify_layers(job: dict, deadline: float) -> tuple[dict, dict]:
    parts = (["pool"] if WORKLOADS[job["workload"]]["workers"] > 1 else []) + [
        "untraced", "traced"]
    passes = {
        part: spawn(dict(job, mode="trace", part=part), deadline) for part in parts
    }
    rep = passes["traced"]
    self_s, calls, engine, result = rep["self_s"], rep["calls"], rep["engine"], rep["result"]
    for done in passes.values():
        print(f"  {done['summary']}")
    timed = {
        "check.predicate.enumerate_s": self_s.get("check.predicate", 0.0),
        "check.executor.step_s": self_s.get("check.executor.step", 0.0),
        "check.executor.fork_s": self_s.get("check.executor.fork", 0.0),
        "check.invariants_s": self_s.get("check.invariants", 0.0),
    }
    wall, untraced = rep["wall_s"], passes["untraced"]["wall_s"]
    hits = engine.get("memo_hits_packed", 0) + engine.get("memo_hits", 0)
    misses = engine.get("memo_misses_packed", 0) + engine.get("memo_misses", 0)
    metrics = dict(timed)
    metrics.update({
        "check.engine.self_s": wall - sum(timed.values()),
        "check.engine.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "check.engine.forks": engine.get("forks", 0),
        "check.engine.rounds_executed": result["rounds_executed"],
        "check.engine.visited": result["visited"],
        "check.engine.skipped_symmetric": result["skipped_symmetric"],
        "check.invariants.calls_per_history":
            calls.get("check.invariants", 0) / result["histories"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    })
    pool = passes["pool"]["pool"] if "pool" in passes else None
    if pool:
        metrics.update({
            "check.scale.tasks": pool["tasks"],
            "check.scale.parent_cpu_s": pool["parent_cpu_s"],
            "check.scale.worker_cpu_s": pool["worker_cpu_s"],
            "check.scale.worker_busy_frac": pool["worker_busy_frac"],
        })
    print(f"  layer times from the {rep['layer_run']} certification")
    rows = list(timed.items()) + [("check.engine.self_s", metrics["check.engine.self_s"])]
    for metric, value in rows:
        print(f"  {metric:<34} {value:10.4f} s {100 * value / wall:6.1f}%")
    print(
        f"  reconciliation: wall {wall:.4f} s = layers {sum(timed.values()):.4f} s"
        f" + check.engine.self (residual: DFS, memo lookup, symmetry) "
        f"{metrics['check.engine.self_s']:.4f} s; untraced {untraced:.4f} s,"
        f" tracing overhead {metrics['trace.overhead_s']:+.4f} s"
    )
    print(f"  EngineStats: {json.dumps(engine, sort_keys=True)}")
    print(f"  wrapped calls: {json.dumps(calls, sort_keys=True)}")
    if pool:
        print(
            f"  pool run: wall {pool['wall_s']:.4f} s, {pool['workers']} workers,"
            f" {pool['tasks']} tasks, parent CPU {pool['parent_cpu_s']:.3f} s"
            f" (build, pickle, merge), worker CPU {pool['worker_cpu_s']:.3f} s,"
            f" busy {pool['worker_busy_frac']:.3f}"
        )
    failed = [done for done in passes.values() if done["problems"]]
    for done in failed:
        print(f"  WRONG: {'; '.join(done['problems'])}")
    return metrics, {"attempted": len(passes), "failed": len(failed)}


def serve_layers(job: dict, deadline: float) -> tuple[dict, dict]:
    base = spawn(dict(job, mode="measure"), deadline)
    rep = spawn(dict(job, mode="trace"), deadline)
    for run in (base, rep):
        if run["problems"]:
            raise InvalidRun("; ".join(run["problems"]))
    layers, stats = rep["layers"], rep["stats"]
    instances = rep["attempted"]
    self_s = layers["self_s"]
    codec = self_s.get("service.codec", 0.0)
    suspicion = self_s.get("service.suspicion", 0.0)
    audit = rep["audit_s"]
    wall, cpu = rep["wall_s"], rep["cpu_s"]
    frames = stats["frames_sent"]
    metrics = {
        "service.codec_s": codec,
        "service.codec.bytes_per_instance": layers["codec_bytes"] / instances,
        "service.link.frames_per_instance": frames / instances,
        "service.link.messages_per_frame": stats["messages_sent"] / frames if frames else 0.0,
        "service.link.queue_high_water": stats["queue_high_water"],
        "service.link.send_wait_s": self_s.get("service.link.send", 0.0),
        "service.retransmit.per_instance": stats["retransmissions"] / instances,
        "service.retries": stats["retries"],
        "service.suspicion.detect_s": base.get("detect_s", 0.0),
        "service.failover_s": base.get("failover_s", 0.0),
        "service.suspicion.raised": stats["suspicions_raised"],
        "service.suspicion.false": stats["suspicions_cleared"],
        "service.suspicion.check_s": suspicion,
        "service.round.advance_ms": layers["advance_ms_p50"],
        "service.round.degraded": stats["degraded_rounds"],
        "service.audit_s_per_instance": audit / instances,
        "service.runtime.self_s": cpu - codec - suspicion - audit,
        "service.loop.idle_s": wall - cpu,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": base["wall_s"],
        "trace.overhead_s": cpu - base["cpu_s"] * instances / base["attempted"],
    }
    print(
        f"  traced window: {instances} instances, wall {wall:.4f} s, loop CPU {cpu:.4f} s;"
        f" untraced: {base['attempted']} instances, loop CPU {base['cpu_s']:.4f} s"
    )
    rows = [
        ("service.codec_s", codec),
        ("service.suspicion.check_s", suspicion),
        ("core.audit (audit_instance)", audit),
        ("service.runtime.self_s", metrics["service.runtime.self_s"]),
        ("service.loop.idle_s", metrics["service.loop.idle_s"]),
    ]
    for metric, value in rows:
        print(f"  {metric:<34} {value:10.4f} s {100 * value / wall:6.1f}%")
    print(
        f"  reconciliation: wall {wall:.4f} s = codec {codec:.4f} s + suspicion"
        f" {suspicion:.4f} s + audit {audit:.4f} s + service.runtime.self (residual:"
        f" asyncio loop, runtime, protocol steps, load generator)"
        f" {metrics['service.runtime.self_s']:.4f} s + loop idle"
        f" {metrics['service.loop.idle_s']:.4f} s; tracing overhead"
        f" {metrics['trace.overhead_s']:+.4f} s of loop CPU"
    )
    print(
        f"  waiting (overlaps the above): PeerLink.send"
        f" {metrics['service.link.send_wait_s']:.4f} s"
    )
    print(f"  ServiceStats (window): {json.dumps(stats, sort_keys=True)}")
    print(f"  wrapped calls: {json.dumps(layers['calls'], sort_keys=True)}")
    if layers["dropped_records"]:
        print(f"  tracer ring buffer dropped {layers['dropped_records']} records")
    attempted = base["attempted"] + instances
    return metrics, {"attempted": attempted, "failed": base["failed"] + rep["failed"]}


def print_layer_map() -> None:
    print("  layer map (layer | metrics | should move | where the work sits):")
    for layer, metrics, moves, where in LAYER_MAP:
        print(f"    {layer} | {metrics} | {moves} | {where}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"rrfd-bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    why = gated.get(args.workload, "not a BENCHMARK.json workload (see README)")
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    print(
        f"rrfd-bench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"  why: {why}")
    print(f"  loads: {'; '.join(workload['loads'])}")
    try:
        compile_program(deadline)
        if args.trace:
            layered = certify_layers if workload["path"] == "certify" else serve_layers
            values, counts = layered(job, deadline)
            metrics = {
                m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                for m in spec["per_layer"]
            }
            print_layer_map()
        else:
            if workload["path"] == "certify":
                rep = certify_run(job, args.seconds, deadline)
            else:
                rep = serve_run(job, deadline)
            print_end_to_end(args.workload, rep)
            counts = {"attempted": rep["attempted"], "failed": rep["failed"]}
            metrics = {
                m["name"]: {"value": rep[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
    except InvalidRun as exc:
        print(f"INVALID RUN: {exc}")
        return 3
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"rrfd-bench: {exc}", file=sys.stderr)
        return 2
    correct = counts["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
