"""Seed-deterministic experiment execution with process-parallel sampling.

The contract between an experiment and the runner:

* ``run_cell(ctx)`` is a **pure, top-level** function (picklable, so worker
  processes can import it) executing ONE seeded sample of one grid cell and
  returning a small dict of observations.
* ``ctx`` is a :class:`SampleCtx`: the cell's parameters (mapping access),
  plus randomness derived *only* from ``(experiment, cell, sample index)``
  — never from process state — via :func:`repro.util.rng.sample_seed`.
* the experiment's ``reduce`` spec folds per-sample dicts into the cell's
  value with exact, mergeable reducers (:mod:`repro.harness.results`).

Determinism across worker counts is structural, not accidental: samples are
split into chunks at boundaries that depend only on the sample count, each
chunk folds its samples in index order, and chunk states are merged back in
index order.  ``--workers 1`` and ``--workers N`` therefore traverse the
same fold tree and produce bit-identical values; only wall-times differ.

Worker selection: an explicit ``workers=`` wins, else the
``RRFD_BENCH_WORKERS`` environment variable, else in-process serial
execution.  Small runs (a single chunk) always stay in-process — no pool
startup cost for tiny grids.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro import obs
from repro.harness.grid import Cell, Grid
from repro.harness.results import (
    CellResult,
    Column,
    ExperimentResult,
    Reducer,
    resolve_reducer,
)
from repro.util.rng import derive_seed, make_rng, sample_seed

__all__ = [
    "SampleCtx",
    "Experiment",
    "CellExecutionError",
    "init_worker",
    "resolve_workers",
    "run_experiment",
    "run_one_cell",
    "run_with_speedup",
    "experiment_tables",
    "WORKERS_ENV",
]

WORKERS_ENV = "RRFD_BENCH_WORKERS"


class SampleCtx(Mapping):
    """What ``run_cell`` sees: cell parameters plus derived randomness.

    Mapping access (``ctx["n"]``) reads the cell's parameters.  ``ctx.rng``
    is the sample's own generator; components that need independent streams
    use ``ctx.sub_rng("label")`` (or ``ctx.sub_seed`` where an int seed is
    required), all derived from the same ``(experiment, cell, index)``
    identity.
    """

    __slots__ = ("experiment", "cell", "index", "seed", "_rng")

    def __init__(self, experiment: str, cell: Cell, index: int):
        self.experiment = experiment
        self.cell = cell
        self.index = index
        self.seed = sample_seed(experiment, cell.id, index)
        self._rng = None

    @property
    def rng(self):
        if self._rng is None:
            self._rng = make_rng(self.seed)
        return self._rng

    def sub_seed(self, label: str) -> int:
        return derive_seed("rrfd-sub", self.experiment, self.cell.id, self.index, label)

    def sub_rng(self, label: str):
        return make_rng(self.sub_seed(label))

    # Mapping over the cell's parameters
    def __getitem__(self, key: str) -> Any:
        return self.cell[key]

    def __iter__(self):
        return iter(self.cell)

    def __len__(self) -> int:
        return len(self.cell)

    def __repr__(self) -> str:
        return f"SampleCtx({self.experiment}, {self.cell.id}, sample {self.index})"


@dataclass(frozen=True)
class Experiment:
    """A declarative experiment: grid × seeded sample function × reduction.

    Args:
        id: short experiment id (``"E1"``); names the JSON artifact.
        title: the paper-style table title.
        grid: the parameter sweep.
        run_cell: pure top-level ``(SampleCtx) -> dict`` sample function.
        samples: default sample count per cell.
        reduce: ``key -> reducer`` for the sample dict's keys; keys not
            listed default to ``"last"``.
        finalize: optional ``(params, value) -> dict`` computing derived
            columns per cell (runs once, in the parent, after reduction;
            must be deterministic).
        chunk: samples per worker task; default splits each cell into at
            most 8 chunks.  Must not depend on the worker count.
        table: column spec for the paper-style report table.
        render: optional custom renderer ``(ExperimentResult) ->
            [(title, header, rows), ...]`` for experiments whose report is
            not one-row-per-cell (pivot tables, matrices).  Parent-side
            only; never shipped to workers.
        notes: free-form provenance (theorem number, ablation description).
    """

    id: str
    title: str
    grid: Grid
    run_cell: Callable[[SampleCtx], Mapping[str, Any]]
    samples: int = 1
    reduce: Mapping[str, str | Reducer] = field(default_factory=dict)
    finalize: Callable[[Mapping[str, Any], dict[str, Any]], Mapping[str, Any]] | None = None
    chunk: int | None = None
    table: tuple[Column, ...] | None = None
    render: Callable[[ExperimentResult], Sequence[tuple]] | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("experiment id must be non-empty")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.chunk is not None and self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        for key, spec in self.reduce.items():
            resolve_reducer(spec)  # fail fast on typos

    def chunk_size(self, samples: int) -> int:
        """Fixed chunk boundaries: a function of the sample count only."""
        if self.chunk is not None:
            return self.chunk
        return max(1, -(-samples // 8))


class CellExecutionError(RuntimeError):
    """A sample raised inside a worker; carries full experiment context."""


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else ``RRFD_BENCH_WORKERS``, else 1 (in-process).

    Explicit arguments are clamped to ≥ 1 (callers may pass computed
    values); the environment variable, being user input, is validated —
    a non-integer or non-positive setting raises a ``ValueError`` naming
    the variable and the offending value instead of a bare parse error.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer; set it to a "
                "positive worker count (e.g. 4) or unset it"
            ) from None
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} must be a positive worker count "
                "(≥ 1); unset it for in-process serial execution"
            )
        return value
    return 1


# --------------------------------------------------------------------------
# worker side


def init_worker(parent_path: list[str]) -> None:
    """Process-pool initializer: replay the parent's ``sys.path`` mutations.

    Under the spawn start method the child does not inherit ``sys.path``
    changes (pytest rootdir, PYTHONPATH tweaks); every pool in the repo —
    the harness runner, the check schedulers, the BFS driver — initializes
    workers through this (or composes it into a richer initializer).
    """
    for entry in parent_path:
        if entry not in sys.path:
            sys.path.append(entry)


@dataclass
class ChunkOutcome:
    """One chunk's reduced states plus its cost and observability payload.

    ``cpu_time`` is the chunk's own compute duration (``perf_counter``
    delta); ``t_begin`` / ``t_end`` are epoch timestamps (``time.time()``),
    comparable across processes, from which the parent derives each cell's
    *true* wall time as ``max(t_end) − min(t_begin)`` over its chunks.
    """

    cell_index: int
    start: int
    states: dict[str, Any]
    cpu_time: float
    t_begin: float
    t_end: float
    records: tuple = ()
    metrics: dict[str, Any] = field(default_factory=dict)
    dropped: int = 0


def _run_chunk(payload: tuple) -> ChunkOutcome:
    """Execute one chunk of samples (the worker entry point).

    When the parent is observing, the chunk traces and meters into *fresh
    chunk-local* instruments — never the parent's — and ships the records
    and the metrics snapshot back in the outcome.  The parent splices them
    in deterministic payload order, so the merged stream is identical
    whether this ran in-process or in a pool worker.
    """
    (experiment_id, run_cell, reduce_spec, cell, cell_index, start, count,
     observe) = payload
    reducers = {key: resolve_reducer(spec) for key, spec in reduce_spec.items()}
    states: dict[str, Any] = {}

    def work() -> None:
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.begin(
                "harness.chunk",
                experiment=experiment_id, cell=cell.id, start=start,
                count=count,
            )
        try:
            for index in range(start, start + count):
                ctx = SampleCtx(experiment_id, cell, index)
                try:
                    observed = run_cell(ctx)
                except Exception as exc:
                    raise CellExecutionError(
                        f"{experiment_id} cell {cell.id} sample {index} "
                        f"(seed {ctx.seed}) "
                        f"raised {type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"
                    ) from None
                for key, value in observed.items():
                    reducer = reducers.get(key)
                    if reducer is None:
                        reducer = reducers[key] = resolve_reducer("last")
                    if key not in states:
                        states[key] = reducer.init()
                    states[key] = reducer.step(states[key], value)
        finally:
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.end("harness.chunk", samples=count)

    t_begin = time.time()
    t0 = time.perf_counter()
    if observe:
        local_tracer = obs.Tracer()
        local_metrics = obs.Metrics()
        with obs.tracing(local_tracer), obs.collecting(local_metrics):
            work()
            cpu = time.perf_counter() - t0
            local_metrics.counter("harness.samples").inc(count)
            local_metrics.histogram("harness.chunk_s", env=True).observe(cpu)
        return ChunkOutcome(
            cell_index, start, states, cpu, t_begin, time.time(),
            records=local_tracer.records,
            metrics=local_metrics.snapshot(),
            dropped=local_tracer.dropped,
        )
    work()
    return ChunkOutcome(
        cell_index, start, states, time.perf_counter() - t0,
        t_begin, time.time(),
    )


# --------------------------------------------------------------------------
# parent side


def _plan(exp: Experiment, samples: int, *, observe: bool = False) -> list[tuple]:
    chunk = exp.chunk_size(samples)
    payloads = []
    for cell_index, cell in enumerate(exp.grid.cells):
        start = 0
        while start < samples:
            count = min(chunk, samples - start)
            payloads.append(
                (exp.id, exp.run_cell, dict(exp.reduce), cell, cell_index,
                 start, count, observe)
            )
            start += count
    return payloads


def _merge_cells(
    exp: Experiment,
    samples: int,
    outcomes: Sequence[ChunkOutcome],
) -> list[CellResult]:
    reducers = {key: resolve_reducer(spec) for key, spec in exp.reduce.items()}
    by_cell: dict[int, list[ChunkOutcome]] = {}
    for outcome in outcomes:
        by_cell.setdefault(outcome.cell_index, []).append(outcome)
    cells = []
    for cell_index, cell in enumerate(exp.grid.cells):
        chunks = sorted(by_cell.get(cell_index, ()), key=lambda o: o.start)
        merged: dict[str, Any] = {}
        # cpu_time: the summed compute cost of the cell's chunks.
        # wall_time: the true elapsed span — concurrent chunks overlap, so
        # this is max(end) − min(begin), not the sum (which previously
        # reported aggregate CPU as "wall" and could exceed the
        # experiment's own total).
        cpu = 0.0
        for outcome in chunks:
            cpu += outcome.cpu_time
            for key, state in outcome.states.items():
                reducer = reducers.get(key) or resolve_reducer("last")
                reducers.setdefault(key, reducer)
                if key in merged:
                    merged[key] = reducer.merge(merged[key], state)
                else:
                    merged[key] = state
        wall = (
            max(o.t_end for o in chunks) - min(o.t_begin for o in chunks)
            if chunks else 0.0
        )
        value = {
            key: (reducers.get(key) or resolve_reducer("last")).final(state)
            for key, state in merged.items()
        }
        if exp.finalize is not None:
            value = {**value, **exp.finalize(cell.params, value)}
        cells.append(
            CellResult(
                experiment=exp.id,
                cell=cell,
                samples=samples,
                value=value,
                wall_time=max(0.0, wall),
                cpu_time=cpu,
            )
        )
    return cells


def run_experiment(
    exp: Experiment,
    *,
    samples: int | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Run every cell of ``exp`` and reduce to an :class:`ExperimentResult`.

    ``samples`` overrides the experiment's default per-cell sample count;
    ``workers`` overrides :func:`resolve_workers`.  Results are identical
    for every worker count by construction.
    """
    effective_samples = exp.samples if samples is None else max(1, int(samples))
    effective_workers = resolve_workers(workers)
    tracer = obs.current_tracer()
    metrics = obs.current_metrics()
    observe = tracer.enabled or metrics.enabled
    payloads = _plan(exp, effective_samples, observe=observe)
    if tracer.enabled:
        # Worker count is environmental: it must not show up in the
        # deterministic attrs, or traces would differ across --workers.
        tracer.begin(
            "harness.experiment",
            experiment=exp.id, cells=len(exp.grid.cells),
            samples=effective_samples,
        )
    t0 = time.perf_counter()
    try:
        if effective_workers <= 1 or len(payloads) <= 1:
            outcomes = [_run_chunk(payload) for payload in payloads]
            used_workers = 1
        else:
            used_workers = min(effective_workers, len(payloads))
            with ProcessPoolExecutor(
                max_workers=used_workers,
                initializer=init_worker,
                initargs=(list(sys.path),),
            ) as pool:
                # pool.map preserves payload order: chunk observability is
                # spliced back exactly as a serial run would have emitted it.
                outcomes = list(pool.map(_run_chunk, payloads))
        wall = time.perf_counter() - t0
        for outcome in outcomes:
            if tracer.enabled and outcome.records:
                tracer.absorb(outcome.records)
                tracer.dropped += outcome.dropped
            if metrics.enabled and outcome.metrics:
                metrics.merge(outcome.metrics)
        cells = _merge_cells(exp, effective_samples, outcomes)
    finally:
        if tracer.enabled:
            tracer.end("harness.experiment", cells=len(exp.grid.cells))
    meta: dict[str, Any] = {"notes": exp.notes} if exp.notes else {}
    if metrics.enabled:
        metrics.gauge("harness.workers", env=True).set(used_workers)
        meta["metrics"] = metrics.to_doc()
    return ExperimentResult(
        experiment=exp.id,
        title=exp.title,
        cells=tuple(cells),
        samples=effective_samples,
        workers=used_workers,
        wall_time=wall,
        meta=meta,
    )


def run_one_cell(
    exp: Experiment,
    params: Mapping[str, Any] | None = None,
    *,
    samples: int | None = None,
    **axis_values: Any,
) -> CellResult:
    """Run a single cell in-process (the pytest-benchmark entry point).

    The cell may be ad hoc — any parameter assignment ``run_cell`` accepts —
    not just a member of the experiment's grid, so parametrized benchmark
    tests can probe points the report table does not sweep.
    """
    merged = {**(dict(params) if params else {}), **axis_values}
    cell = Cell(merged)
    effective_samples = exp.samples if samples is None else max(1, int(samples))
    probe = Experiment(
        id=exp.id,
        title=exp.title,
        grid=Grid(tuple(cell), [cell]),
        run_cell=exp.run_cell,
        samples=effective_samples,
        reduce=exp.reduce,
        finalize=exp.finalize,
        chunk=exp.chunk,
        notes=exp.notes,
    )
    result = run_experiment(probe, workers=1)
    return result.cells[0]


def experiment_tables(
    exp: Experiment, result: ExperimentResult
) -> list[tuple[str, list[str], list[list[Any]]]]:
    """The experiment's report tables as ``(title, header, rows)`` triples.

    Shared by the pytest terminal report and the ``repro bench`` CLI so
    both surfaces print the same paper-style tables.
    """
    if exp.render is not None:
        return [tuple(t) for t in exp.render(result)]
    if exp.table is not None:
        header, rows = result.table(exp.table)
        return [(result.title, header, rows)]
    import json as _json

    return [(
        result.title,
        ["cell", "value"],
        [[c.cell.id, _json.dumps(c.value, sort_keys=True)] for c in result.cells],
    )]


def run_with_speedup(
    exp: Experiment,
    *,
    samples: int | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Run serially, then with ``workers`` processes; verify the values are
    identical and attach the measured speedup to the parallel result."""
    serial = run_experiment(exp, samples=samples, workers=1)
    parallel = run_experiment(exp, samples=samples, workers=workers)
    mismatched = [
        s.cell.id
        for s, p in zip(serial.cells, parallel.cells)
        if s.value != p.value
    ]
    if mismatched:
        raise AssertionError(
            f"{exp.id}: parallel run diverged from serial on cells {mismatched} "
            "— a run_cell is drawing randomness outside its SampleCtx"
        )
    speedup = {
        "serial_wall_time_s": serial.wall_time,
        "parallel_wall_time_s": parallel.wall_time,
        "workers": parallel.workers,
        "speedup": (serial.wall_time / parallel.wall_time)
        if parallel.wall_time > 0 else None,
    }
    return ExperimentResult(
        experiment=parallel.experiment,
        title=parallel.title,
        cells=parallel.cells,
        samples=parallel.samples,
        workers=parallel.workers,
        wall_time=parallel.wall_time,
        meta={**parallel.meta, "speedup": speedup},
    )
