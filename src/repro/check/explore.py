"""Bounded model checking and fuzzing over a conformance spec.

:func:`explore` discharges the paper's universal quantifier *exactly* for
small systems: it streams every admissible suspicion history of the given
depth (depth-first with prefix pruning) for every input assignment in the
spec's exhaustive input space, runs the protocol on each, and checks every
invariant.  Zero violations over the whole product is a proof of the spec's
claims for that ``(n, rounds)`` — not a sample.

Two execution engines produce identical verdicts:

- ``engine="incremental"`` (default) — the stateful DFS of
  :mod:`repro.check.engine`: executors are *forked* at branch points, so
  each tree edge costs one protocol round instead of replaying every
  history from round 1, candidate generation runs on the predicate's
  packed kernel and is memoized per folded kernel state, and (opt-in)
  permutation-equivalent subtrees are cut by a transposition table.
- ``engine="replay"`` — the original enumerate-and-re-run path (via
  :func:`repro.analysis.adversary_search.admissible_rounds`); kept as the
  differential oracle the incremental engine is tested against, and used
  automatically when the engine cannot apply (``rounds == 0``).

Throughput levers for ``n = 4`` (where e.g. ``KSetDetector`` admits
4 235 first-round families):

- ``prune_decided=True`` stops extending a history once every process has
  decided — sound for invariants that are insensitive to post-decision
  rounds (all registered task invariants; termination bounds are checked at
  decision time), and it collapses the depth-``r`` tree to near the
  depth-of-decision tree.
- ``workers > 1`` shards the search across processes with the
  work-stealing scheduler of :mod:`repro.check.scale` (a fixed,
  worker-count-independent task decomposition pulled dynamically by a
  process pool whose workers start from the task builder's candidate
  memo).  A multi-task run requires a registered spec (workers re-resolve
  it by name — specs close over lambdas and do not pickle), and results
  are identical for every worker count.
- ``symmetry=True`` checks one representative per process-permutation
  orbit, for specs that declare a symmetry grade (see
  :class:`~repro.check.spec.ConformanceSpec`).  Off by default in the
  library API because it changes the *counts* (``histories``/``executions``
  cover orbit representatives only); the CLI enables it by default.

:func:`fuzz` covers what exhaustion cannot: larger ``n`` via the
predicate's constructive sampler, and scheduler-driven specs
(``supports_exhaustive=False``) via their custom ``sample_run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    admissible_rounds,
)
from repro.check.engine import MAX_SYMMETRY_N, EngineStats, IncrementalExplorer
from repro.check.spec import ConformanceSpec, InvariantFailure, get_spec
from repro.core.types import DHistory, ExecutionTrace
from repro.harness.runner import resolve_workers
from repro.util.rng import derive_seed, make_rng

__all__ = ["Violation", "ExploreResult", "explore", "fuzz"]


@dataclass(frozen=True)
class Violation:
    """One execution that broke one or more invariants — fully replayable."""

    spec: str
    inputs: tuple[Any, ...]
    history: DHistory
    failures: tuple[InvariantFailure, ...]

    def __str__(self) -> str:
        probs = "; ".join(str(f) for f in self.failures)
        return (
            f"[{self.spec}] inputs={self.inputs!r} "
            f"rounds={len(self.history)}: {probs}"
        )


@dataclass
class ExploreResult:
    """Outcome of one :func:`explore` or :func:`fuzz` run."""

    spec: str
    n: int
    rounds: int
    mode: str  # "exhaustive" | "fuzz"
    executions: int = 0
    histories: int = 0
    pruned: int = 0
    inputs_checked: int = 0
    workers: int = 1
    elapsed: float = 0.0
    engine: str = "replay"  # "incremental" | "replay" (fuzz is replay-like)
    symmetry: bool = False  # was symmetry reduction in effect?
    visited: int = 0  # DFS nodes expanded (incremental engine only)
    skipped_symmetric: int = 0  # subtree roots cut by the transposition table
    rounds_executed: int = 0  # protocol rounds stepped (incremental only)
    scheduler: str = "serial"  # "serial" | "steal" | "bfs"
    partial: bool = False  # a budget/cap stopped the search before exhaustion
    scale: dict[str, Any] = field(default_factory=dict)  # scheduler bookkeeping
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = (
            "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        )
        pruned = f", {self.pruned} pruned early" if self.pruned else ""
        skipped = (
            f", {self.skipped_symmetric} orbits skipped"
            if self.symmetry
            else ""
        )
        engine = self.engine + ("+symmetry" if self.symmetry else "")
        return (
            f"{self.spec}: {verdict} — {self.mode} [{engine}] n={self.n} "
            f"rounds={self.rounds}, {self.executions} executions over "
            f"{self.histories} histories × {self.inputs_checked} input "
            f"assignment(s){pruned}{skipped} in {self.elapsed:.2f}s"
            + (f" ({self.workers} workers)" if self.workers > 1 else "")
            + (" [PARTIAL — resume to finish]" if self.partial else "")
        )


# ---------------------------------------------------------------------------
# exhaustive exploration


def _check_history(
    spec: ConformanceSpec,
    inputs: tuple[Any, ...],
    history: DHistory,
    result: ExploreResult,
    trace: ExecutionTrace | None = None,
) -> ExecutionTrace:
    """Judge one history; ``trace`` skips the re-run when already executed."""
    if trace is None:
        trace = spec.run(inputs, history)
    result.executions += 1
    failures = spec.failures(trace, len(inputs))
    if failures:
        result.violations.append(
            Violation(spec.name, inputs, history, tuple(failures))
        )
    return trace


def _explore_serial(
    spec: ConformanceSpec,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    result: ExploreResult,
    prefix: DHistory = (),
    max_violations: int | None = None,
) -> None:
    """Replay-engine DFS: re-run the protocol from round 1 on every node.

    With ``prune_decided`` the protocol is run on interior prefixes and a
    branch is cut as soon as every process has decided: the executions are
    deterministic, so the shallower trace *is* every deeper one up to
    post-decision rounds, and it is checked in the leaves' stead (reusing
    the prune-probe trace — the probe is not executed twice).  Interior
    prefixes where some process is still undecided are *not* checked —
    termination invariants legitimately fail mid-run.
    """
    predicate = spec.predicate(n)
    stack: list[DHistory] = [prefix]
    while stack:
        node = stack.pop()
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        if len(node) == rounds:
            result.histories += 1
            _check_history(spec, inputs, node, result)
            continue
        if prune_decided and len(node) > 0:
            trace = spec.run(inputs, node)
            if trace.all_decided:
                result.histories += 1
                result.pruned += 1
                _check_history(spec, inputs, node, result, trace=trace)
                continue
        children = list(
            admissible_rounds(predicate, node, max_d_size=max_d_size)
        )
        if not children:
            raise NoAdmissibleExtension(predicate, node)
        # Reverse-pushed so pops visit siblings in candidate order, matching
        # iter_admissible_histories and the incremental engine exactly.
        for d_round in reversed(children):
            stack.append(node + (d_round,))


def _explore_incremental(
    spec: ConformanceSpec,
    explorer: IncrementalExplorer,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    *,
    result: ExploreResult,
    prefix: DHistory = (),
    restrict: tuple[int, int] | None = None,
    max_violations: int | None = None,
) -> None:
    """Consume the incremental engine's runs, mirroring the replay loop.

    Decided subtrees share one trace *object*, so invariant checks are
    memoized by trace identity — safe because shared-trace runs are yielded
    contiguously by the DFS (no ``id()`` reuse hazard: the previous trace is
    still referenced while compared).

    With symmetry off a whole decided subtree may arrive as one aggregated
    run (``count`` leaves, ``expand`` for their histories): counts roll
    straight into the totals, and only a failing shared trace pays for the
    leaf enumeration — one violation per leaf, byte-identical to the
    replay engine's list.
    """
    last_trace: ExecutionTrace | None = None
    last_failures: list[InvariantFailure] = []
    for run in explorer.runs(rounds, prefix=prefix, restrict=restrict):
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        result.histories += run.count
        if run.pruned:
            result.pruned += 1
        result.executions += run.count
        if run.trace is last_trace:
            failures = last_failures
        else:
            failures = spec.failures(run.trace, n)
            last_trace, last_failures = run.trace, failures
        if failures:
            problems = tuple(failures)
            if run.expand is None:
                result.violations.append(
                    Violation(spec.name, inputs, run.history, problems)
                )
            else:
                for history in run.expand():
                    result.violations.append(
                        Violation(spec.name, inputs, history, problems)
                    )
                    if (
                        max_violations is not None
                        and len(result.violations) >= max_violations
                    ):
                        return


def _merge_stats(result: ExploreResult, stats: EngineStats) -> None:
    result.visited += stats.visited
    result.skipped_symmetric += stats.skipped_symmetric
    result.rounds_executed += stats.rounds_executed


def _effective_symmetry(
    spec: ConformanceSpec, n: int, rounds: int, requested: bool
) -> str | None:
    """The symmetry mode actually applied, or ``None``.

    Requires every gate: the caller asked, the spec declares a grade, the
    model predicate is permutation-invariant, and ``n`` is small enough
    that canonicalizing over ``n!`` permutations pays for itself.
    """
    if not requested or rounds < 1 or n > MAX_SYMMETRY_N:
        return None
    if spec.symmetry == "none":
        return None
    if not spec.predicate(n).is_symmetric:
        return None
    return spec.symmetry


def explore(
    spec: ConformanceSpec | str,
    *,
    n: int | None = None,
    rounds: int | None = None,
    prune_decided: bool = False,
    max_d_size: int | None = None,
    workers: int = 1,
    max_violations: int | None = None,
    engine: str = "incremental",
    symmetry: bool = False,
    scheduler: str | None = None,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> ExploreResult:
    """Exhaustively check ``spec`` over every admissible history and input.

    Args:
        spec: a :class:`ConformanceSpec` or its registry name.
        n: system size (default ``spec.exhaustive_n``).
        rounds: history depth (default ``spec.rounds(n)``).
        prune_decided: stop extending once all processes decided (interior
            prefixes are still checked, so no violation is lost for the
            registered invariants).
        max_d_size: cap per-process suspicion-set size (passed through to
            the enumerator; dead ends raise rather than vanish).
        workers: >1 drains the work-stealing task list with a process
            pool, each worker seeded with the candidate lists the task
            builder enumerated; the spec must then be registered by name.
        max_violations: stop early after this many violations.  Parallel
            runs submit no further task once the cap is reached, finish
            the submitted ones and truncate the merged list to the cap.
        engine: ``"incremental"`` (fork executors — see
            :mod:`repro.check.engine`) or ``"replay"`` (re-run each history
            from round 1).  Verdicts are identical; ``rounds == 0`` always
            uses replay.
        symmetry: check one representative per process-permutation orbit.
            Applied only when every gate passes (incremental engine, spec
            declares a symmetry grade, predicate ``is_symmetric``,
            ``n ≤ MAX_SYMMETRY_N``); ``result.symmetry`` records whether it
            was in effect.  When on, ``histories``/``executions`` count
            orbit representatives, not raw histories.
        scheduler: ``None`` (default) runs the work-stealing scheduler of
            :mod:`repro.check.scale` whenever it applies (``workers > 1``,
            or ``progress`` for an observable in-process run) and the plain
            in-process DFS otherwise; ``"steal"`` forces the scheduler even
            at ``workers=1`` — the task decomposition is
            worker-count-independent, so the in-process run is
            bit-identical to any pool run.  ``result.scheduler`` records
            what actually ran.
        progress: emit periodic ``check.progress`` heartbeat events (obs
            tracer + stderr) during long certifications.  Heartbeats are
            environmental — timing-dependent — so they only appear when
            explicitly requested; default streams stay bit-identical.
        progress_interval: seconds between heartbeats.

    Returns:
        An :class:`ExploreResult`; ``result.ok`` is the verdict.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if engine not in ("incremental", "replay"):
        raise ValueError(
            f"engine must be 'incremental' or 'replay', got {engine!r}"
        )
    if scheduler not in (None, "steal"):
        raise ValueError(f"scheduler must be None or 'steal', got {scheduler!r}")
    if not spec.supports_exhaustive:
        raise ValueError(
            f"spec {spec.name!r} is not a pure function of (inputs, "
            "D-history); use fuzz() instead"
        )
    n = spec.exhaustive_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    workers = resolve_workers(workers)
    engine_used = engine if rounds > 0 else "replay"
    symmetry_mode = (
        _effective_symmetry(spec, n, rounds, symmetry)
        if engine_used == "incremental"
        else None
    )
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive",
        workers=1, engine=engine_used,
        symmetry=symmetry_mode is not None,
    )
    started = time.perf_counter()
    engine_totals = EngineStats()
    tracer = obs.current_tracer()
    if tracer.enabled:
        tracer.begin(
            "check.explore",
            spec=spec.name, n=n, rounds=rounds, engine=engine_used,
            symmetry=result.symmetry,
        )
    try:
        input_space = [tuple(i) for i in spec.exhaustive_inputs(n)]
        result.inputs_checked = len(input_space)

        # The work-stealing scheduler applies whenever there is parallel (or
        # heartbeat-observable) work; rounds == 0 always stays on the
        # in-process replay path.
        if rounds > 0 and (workers > 1 or progress or scheduler == "steal"):
            from repro.check.scale import run_steal

            result.scheduler = "steal"
            run_steal(
                spec, input_space, n, rounds,
                prune_decided=prune_decided, max_d_size=max_d_size,
                workers=workers, result=result, engine=engine_used,
                symmetry_mode=symmetry_mode, max_violations=max_violations,
                engine_totals=engine_totals,
                progress=progress, progress_interval=progress_interval,
            )
        else:
            for inputs in input_space:
                if engine_used == "incremental":
                    explorer = IncrementalExplorer(
                        spec.protocol(n),
                        spec.predicate(n),
                        inputs,
                        crashed_stop_emitting=spec.crashed_stop_emitting,
                        prune_decided=prune_decided,
                        max_d_size=max_d_size,
                        symmetry=symmetry_mode,
                    )
                    _explore_incremental(
                        spec, explorer, inputs, n, rounds,
                        result=result, max_violations=max_violations,
                    )
                    _merge_stats(result, explorer.stats)
                    engine_totals.merge(explorer.stats)
                else:
                    _explore_serial(
                        spec, inputs, n, rounds,
                        prune_decided=prune_decided, max_d_size=max_d_size,
                        result=result, max_violations=max_violations,
                    )
                if (
                    max_violations is not None
                    and len(result.violations) >= max_violations
                ):
                    break
    finally:
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.end(
                "check.explore",
                executions=result.executions,
                histories=result.histories,
                violations=len(result.violations),
            )
    result.elapsed = time.perf_counter() - started
    metrics = obs.current_metrics()
    if metrics.enabled:
        obs.publish_fields(
            metrics, "check", result,
            fields=("executions", "histories", "pruned", "inputs_checked"),
        )
        if engine_used == "incremental":
            engine_totals.publish(metrics)
        metrics.gauge("check.workers", env=True).set(result.workers)
        metrics.histogram("check.elapsed_s", env=True).observe(result.elapsed)
    return result


def _merge_parts(
    spec: ConformanceSpec,
    result: ExploreResult,
    parts: dict[int, dict[str, Any]],
    engine_totals: EngineStats,
    max_violations: int | None,
) -> None:
    """Fold worker part dicts into ``result`` in payload-index order.

    Used by the work-stealing scheduler: merging in index order — never
    completion order — is what keeps counters, violation lists and absorbed
    event streams reproducible for any worker count.
    """
    tracer = obs.current_tracer()
    metrics = obs.current_metrics()
    for index in sorted(parts):
        part = parts[index]
        result.executions += part["executions"]
        result.histories += part["histories"]
        result.pruned += part["pruned"]
        result.visited += part["visited"]
        result.skipped_symmetric += part["skipped_symmetric"]
        result.rounds_executed += part["rounds_executed"]
        engine_totals.merge(part.get("engine_stats") or {})
        if tracer.enabled and part.get("records"):
            tracer.absorb(part["records"])
            tracer.dropped += part.get("dropped", 0)
        if metrics.enabled and part.get("metrics"):
            metrics.merge(part["metrics"])
        for inputs, history, failures in part["violations"]:
            result.violations.append(Violation(
                spec.name, tuple(inputs), history,
                tuple(InvariantFailure(i, m) for i, m in failures),
            ))
    if max_violations is not None:
        del result.violations[max_violations:]


# ---------------------------------------------------------------------------
# fuzzing


def fuzz(
    spec: ConformanceSpec | str,
    samples: int = 200,
    *,
    n: int | None = None,
    rounds: int | None = None,
    seed: int = 0,
) -> ExploreResult:
    """Randomized conformance runs: sampled inputs × sampled histories.

    Histories come from the predicate's constructive sampler
    (``predicate.sample_round``), so every sample is admissible by
    construction; specs with a custom ``sample_run`` (scheduler-driven
    protocols) draw whole traces instead.  Deterministic in ``seed``.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    n = spec.fuzz_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    result = ExploreResult(spec=spec.name, n=n, rounds=rounds, mode="fuzz")
    started = time.perf_counter()
    predicate = spec.predicate(n) if spec.sample_run is None else None
    seen_inputs: set[tuple[Any, ...]] = set()
    for i in range(samples):
        rng = make_rng(derive_seed("rrfd-check", spec.name, n, seed, i))
        if spec.sample_run is not None:
            trace = spec.sample_run(n, rng)
            inputs = trace.inputs
            history = trace.d_history
        else:
            inputs = spec.sample_inputs(n, rng)
            history = ()
            for _ in range(rounds):
                history = history + (predicate.sample_round(rng, history),)
            trace = spec.run(inputs, history)
        seen_inputs.add(tuple(inputs))
        result.executions += 1
        result.histories += 1
        failures = spec.failures(trace, n)
        if failures:
            result.violations.append(
                Violation(spec.name, tuple(inputs), history, tuple(failures))
            )
    result.inputs_checked = len(seen_inputs)
    result.elapsed = time.perf_counter() - started
    return result
