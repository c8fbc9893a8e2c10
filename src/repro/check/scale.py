"""Scale-out certification: work stealing, a shared memo table, disk BFS.

This module is the one parallel task runtime behind
:func:`repro.check.explore.explore` and :func:`explore_bfs`.  It keeps the
repo's determinism contract — byte-identical violation lists and history
counts for every worker count — with three mechanisms:

- **Work stealing over a fixed task decomposition** (:func:`run_steal`).
  The frontier is cut into a worker-count-*independent* list of tasks
  (about :data:`TARGET_TASKS` per input assignment), and a process pool
  pulls them dynamically.  When the round-1 frontier is smaller than the
  wanted task count, the builder expands *deeper* levels until there is
  enough parallelism (:func:`_expand_tasks`), so small-``n``
  high-worker runs reach full utilization.  Tasks are merged in
  task-index order, never completion order, so counters, violations and
  absorbed event streams are identical at ``--workers 1/2/4``.

- **A shared cross-worker transposition table**
  (:class:`SharedMemoTable`): an open-addressing fingerprint index over
  ``multiprocessing.shared_memory``, broadcasting the engine's packed
  candidate-memo entries across process boundaries instead of letting
  each worker re-enumerate them (1.3 s *per worker* at kset ``n=5``).
  Entries are pure functions of their key and every hit re-verifies the
  full pickled key, so fingerprint collisions, torn writes and lost
  racing publishes can cost time but never soundness — exactly the
  TLC fingerprint-set discipline.  Orbit (symmetry) claims deliberately
  stay task-local: a racy cross-worker *skip* could change which orbit
  representative is counted and break count determinism.

- **A disk-backed BFS mode** (:func:`explore_bfs`) with spill-to-disk
  frontier segments and checkpoint/resume (``repro check --bfs
  --checkpoint DIR`` / ``--resume``), for certifications whose frontier
  outgrows memory or whose wall-clock outgrows a single sitting.  The
  checkpoint format is ``rrfd-checkpoint-v1``: a JSON manifest (rewritten
  atomically and durably after every completed task) plus pickle
  segment/result files; interrupted runs return ``result.partial`` and
  resume exactly where they stopped, converging to the same counts and
  violation set as an uninterrupted run.

The per-leaf hot path is :class:`_LeafStepper`: at a fixed parent
executor, a child's post-round view and decision depend only on
``(pid, D(i) mask)`` — payloads are emitted before suspicion and views
absorb after all are built — so sibling leaves share per-mask view and
decision memos instead of paying a fork + full executor step each.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import struct
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import Lock, resource_tracker, shared_memory
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    admissible_rounds,
)
from repro.check.engine import IncrementalExplorer, _PackedSymmetryTable
from repro.check.explore import (
    ExploreResult,
    Violation,
    _explore_incremental,
    _explore_serial,
    _merge_parts,
)
from repro.check.spec import ConformanceSpec, InvariantFailure, get_spec
from repro.core.types import (
    DHistory,
    ExecutionRound,
    ExecutionTrace,
    RoundView,
)
from repro.harness.runner import init_worker, resolve_workers
from repro.util.bitset import domain as bitset_domain

__all__ = [
    "TARGET_TASKS",
    "CHECKPOINT_VERSION",
    "SharedMemoTable",
    "run_steal",
    "explore_bfs",
]

#: Tasks built per input assignment.  Fixed — never a function of the worker
#: count — so the task list, and therefore every merged counter and event
#: stream, is identical whether 1, 2 or 16 workers drain it.
TARGET_TASKS = 64

CHECKPOINT_VERSION = "rrfd-checkpoint-v1"


# ---------------------------------------------------------------------------
# shared cross-worker transposition table

_SLOT = struct.Struct("<QQ")  # [fingerprint][blob offset + 1]
_LEN = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class SharedMemoTable:
    """Open-addressing key/value set in ``multiprocessing.shared_memory``.

    Two segments: a slot *index* of ``(u64 fingerprint, u64 offset+1)``
    pairs and an append-only *blob* whose first 8 bytes are the bump
    pointer.  ``put`` reserves blob space under a lock, writes
    ``[u32 len][pickle((key, value))]``, then claims a slot by writing the
    offset first and the fingerprint *last* — a reader that sees a
    non-zero fingerprint sees a complete entry.  There is no CAS on the
    slot word, so two racing publishers of different keys can overwrite
    one another's claim; the loser's blob bytes are orphaned and its key
    is simply recomputed by the next prober.  ``get`` verifies the full
    unpickled key on every fingerprint match, so collisions and torn
    entries degrade to misses — the table can only ever *save* work, never
    change a result (entries are pure functions of their key).
    """

    PROBE_LIMIT = 64

    def __init__(
        self,
        index: shared_memory.SharedMemory,
        blob: shared_memory.SharedMemory,
        slots: int,
        lock: Any,
        *,
        owner: bool,
    ) -> None:
        self._index = index
        self._blob = blob
        self.slots = slots
        self.lock = lock
        self._owner = owner

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls, slots: int = 1 << 14, blob_bytes: int = 64 << 20
    ) -> "SharedMemoTable":
        """Allocate fresh (zero-filled) segments; call :meth:`destroy` after."""
        lock = Lock()
        index = shared_memory.SharedMemory(create=True, size=slots * _SLOT.size)
        try:
            blob = shared_memory.SharedMemory(create=True, size=blob_bytes)
        except Exception:
            index.close()
            index.unlink()
            raise
        _U64.pack_into(blob.buf, 0, 8)  # bump pointer starts past itself
        return cls(index, blob, slots, lock, owner=True)

    def handles(self) -> tuple[str, str, int]:
        """Picklable attach handles (the lock travels via pool initargs)."""
        return (self._index.name, self._blob.name, self.slots)

    @classmethod
    def attach(
        cls, handles: tuple[str, str, int], lock: Any
    ) -> "SharedMemoTable":
        index_name, blob_name, slots = handles
        # Only the creating process owns the segments' lifetime.  Attaching
        # normally registers them with the resource tracker, which would
        # unlink them when any worker exits (and, with several workers
        # sharing one forked tracker, double-unregister noisily) — suppress
        # registration for the attach, single-threaded in the initializer.
        original_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            index = shared_memory.SharedMemory(name=index_name)
            blob = shared_memory.SharedMemory(name=blob_name)
        finally:
            resource_tracker.register = original_register
        return cls(index, blob, slots, lock, owner=False)

    def close(self) -> None:
        for shm in (self._index, self._blob):
            try:
                shm.close()
            except Exception:
                pass

    def destroy(self) -> None:
        """Close, and (in the owner) unlink the segments."""
        owner = self._owner
        index, blob = self._index, self._blob
        self.close()
        if owner:
            for shm in (index, blob):
                try:
                    shm.unlink()
                except Exception:
                    pass

    # -- operations ---------------------------------------------------------

    @staticmethod
    def _fingerprint(key_bytes: bytes) -> int:
        fp = int.from_bytes(
            hashlib.blake2b(key_bytes, digest_size=8).digest(), "little"
        )
        return fp or 1  # 0 marks an empty slot

    def get(self, key: Any) -> Any | None:
        try:
            key_bytes = pickle.dumps(key, protocol=4)
        except Exception:
            return None
        fp = self._fingerprint(key_bytes)
        index = self._index.buf
        blob = self._blob.buf
        slots = self.slots
        base = fp % slots
        for i in range(self.PROBE_LIMIT):
            slot = (base + i) % slots
            slot_fp, slot_off = _SLOT.unpack_from(index, slot * _SLOT.size)
            if slot_fp == 0:
                return None
            if slot_fp != fp or slot_off == 0:
                continue
            off = slot_off - 1
            try:
                (paylen,) = _LEN.unpack_from(blob, off)
                loaded_key, value = pickle.loads(
                    bytes(blob[off + 4 : off + 4 + paylen])
                )
            except Exception:
                continue  # torn or garbled entry: collision-safe miss
            if loaded_key == key:
                return value
        return None

    def put(self, key: Any, value: Any) -> bool:
        """Publish ``key -> value``; ``False`` when full/raced (harmless)."""
        try:
            key_bytes = pickle.dumps(key, protocol=4)
            payload = pickle.dumps((key, value), protocol=4)
        except Exception:
            return False
        fp = self._fingerprint(key_bytes)
        blob = self._blob.buf
        need = 4 + len(payload)
        with self.lock:
            (bump,) = _U64.unpack_from(blob, 0)
            if bump + need > len(blob):
                return False
            off = bump
            _U64.pack_into(blob, 0, bump + need)
        _LEN.pack_into(blob, off, len(payload))
        blob[off + 4 : off + 4 + len(payload)] = payload
        index = self._index.buf
        slots = self.slots
        base = fp % slots
        for i in range(self.PROBE_LIMIT):
            slot = (base + i) % slots
            slot_fp, _ = _SLOT.unpack_from(index, slot * _SLOT.size)
            if slot_fp == 0:
                _U64.pack_into(index, slot * _SLOT.size + 8, off + 1)
                _U64.pack_into(index, slot * _SLOT.size, fp)
                return True
            if slot_fp == fp:
                return False  # already published (possibly by a racer)
        return False  # neighbourhood crowded: skip, stay sound


class _WorkerMemo:
    """Per-process front for the shared table (or for no table at all).

    Loads are unpickled from shared memory once per worker, not once per
    task: explorers are rebuilt per task for determinism, so without this
    front every task would re-load (and re-copy) e.g. the million-entry
    kset ``n=5`` root candidate list.  With no backing table it still
    deduplicates candidate enumeration across one process's tasks.  Only
    the environmental ``shared_*`` counters can observe the difference.
    """

    def __init__(self, table: SharedMemoTable | None) -> None:
        self._table = table
        self._front: dict[Any, Any] = {}

    def get(self, key: Any) -> Any | None:
        value = self._front.get(key)
        if value is not None:
            return value
        if self._table is None:
            return None
        value = self._table.get(key)
        if value is not None:
            self._front[key] = value
        return value

    def put(self, key: Any, value: Any) -> bool:
        self._front[key] = value
        if self._table is None:
            return False
        return self._table.put(key, value)


# ---------------------------------------------------------------------------
# factorized leaf stepping

class _LeafStepper:
    """Shared-parent leaf evaluation: one executor, per-mask memos.

    At a fixed parent executor the emitted payloads are the same for every
    child round, and views absorb only after all views are built — so a
    child's round-``r`` view depends only on its delivery mask and a
    process's post-round decision only on ``(pid, D(pid) mask)``.  Sibling
    leaves therefore share per-mask view/decision memos instead of paying
    an executor fork + step each (~3x on decided-leaf-heavy frontiers).
    Traces are assembled field-by-field exactly as ``RoundExecutor.step``
    builds them, so ``spec.failures`` sees byte-equivalent records.
    """

    __slots__ = (
        "root", "root_decided", "prefix", "n", "r", "dom", "payloads",
        "_crashed", "_root_decisions", "_messages", "_full",
        "_viewmaps", "_decmaps", "_undecided",
        "_prefix_rounds", "_base_decisions", "_base_decided_at",
    )

    def __init__(self, explorer: IncrementalExplorer, prefix: DHistory) -> None:
        root = explorer._root_executor(prefix)
        self.root = root
        self.root_decided = root.trace.all_decided
        self.prefix = tuple(prefix)
        self.n = explorer.n
        self.r = root.trace.num_rounds + 1
        self.dom = explorer._packed.domain
        if self.root_decided:
            return  # caller must fall back to the engine walk
        if explorer.crashed_stop_emitting:
            self._crashed = frozenset(root._ever_suspected)
        else:
            self._crashed = frozenset()
        self.payloads = tuple(
            None
            if pid in self._crashed
            else root.processes[pid].copy().emit(self.r)
            for pid in range(self.n)
        )
        self._root_decisions = tuple(p.decision for p in root.processes)
        self._full = self.dom.full
        self._messages: dict[int, dict[int, Any]] = {}
        # Per-pid memos keyed by the raw D(pid) mask: the hot loops below
        # probe these once per (pid, leaf), so flat int keys beat tuple keys.
        self._viewmaps: list[dict[int, RoundView]] = [
            {} for _ in range(self.n)
        ]
        self._decmaps: list[dict[int, Any]] = [{} for _ in range(self.n)]
        self._undecided = tuple(
            pid
            for pid, decision in enumerate(self._root_decisions)
            if decision is None
        )
        root_trace = root.trace
        self._prefix_rounds = list(root_trace.rounds)
        self._base_decisions = tuple(root_trace.decisions)
        self._base_decided_at = tuple(root_trace.decided_at)

    def _view(self, pid: int, dmask: int) -> RoundView:
        viewmap = self._viewmaps[pid]
        view = viewmap.get(dmask)
        if view is None:
            dom = self.dom
            delivered = self._full & ~dmask
            messages = self._messages.get(delivered)
            if messages is None:
                payloads = self.payloads
                messages = self._messages[delivered] = {
                    sender: payloads[sender]
                    for sender in dom.set_bits(delivered)
                }
            view = RoundView.trusted(
                pid, self.r, messages, dom.to_set(dmask), self.n
            )
            viewmap[dmask] = view
        return view

    def _decision(self, pid: int, dmask: int) -> Any:
        proc = self.root.processes[pid].copy()
        if pid not in self._crashed:
            proc.emit(self.r)  # mutation parity with the live executor step
        proc.absorb(self._view(pid, dmask))
        decision = proc.decision
        self._decmaps[pid][dmask] = decision
        return decision

    def decided(self, rint: int) -> bool:
        """Would all processes be decided after child round ``rint``?"""
        n = self.n
        full = self._full
        decmaps = self._decmaps
        for pid in self._undecided:
            dmask = (rint >> (pid * n)) & full
            decmap = decmaps[pid]
            if dmask in decmap:
                decision = decmap[dmask]
            else:
                decision = self._decision(pid, dmask)
            if decision is None:
                return False
        return True

    def run(self, rint: int) -> tuple[ExecutionTrace, DHistory]:
        """Trace + history for leaf child ``prefix + (round,)``."""
        n = self.n
        full = self._full
        to_set = self.dom.to_set
        masks = [(rint >> (pid * n)) & full for pid in range(n)]
        # to_set interns, so suspicions[pid] is the *same* object the view
        # was built with — identity checks downstream stay on the fast path.
        d_round = tuple(map(to_set, masks))
        viewmaps = self._viewmaps
        views = []
        for pid in range(n):
            dmask = masks[pid]
            view = viewmaps[pid].get(dmask)
            if view is None:
                view = self._view(pid, dmask)
            views.append(view)
        record = object.__new__(ExecutionRound)
        fields = record.__dict__
        fields["round"] = self.r
        fields["payloads"] = self.payloads
        fields["views"] = tuple(views)
        fields["suspicions"] = d_round
        decisions = list(self._base_decisions)
        decided_at = list(self._base_decided_at)
        decmaps = self._decmaps
        r = self.r
        for pid in self._undecided:
            dmask = masks[pid]
            decmap = decmaps[pid]
            if dmask in decmap:
                value = decmap[dmask]
            else:
                value = self._decision(pid, dmask)
            if value is not None:
                decisions[pid] = value
                decided_at[pid] = r
        trace = object.__new__(ExecutionTrace)
        fields = trace.__dict__
        fields["n"] = n
        fields["inputs"] = self.root.inputs
        fields["rounds"] = self._prefix_rounds + [record]
        fields["decisions"] = decisions
        fields["decided_at"] = decided_at
        return trace, self.prefix + (d_round,)


# ---------------------------------------------------------------------------
# task decomposition (parent side)

def _even_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous near-even ``[lo, hi)`` split of ``range(total)``."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds

def _contiguous_chunks(items: list[Any], parts: int) -> list[list[Any]]:
    if not items:
        return []
    return [items[lo:hi] for lo, hi in _even_ranges(len(items), parts)]

def _expand_tasks(
    explorer: IncrementalExplorer,
    rounds: int,
    prefix: DHistory,
    budget: int,
    emit: Callable[[DHistory, int, int], None],
    depth_seen: list[int],
) -> int:
    """Recursively shard a small subtree into about ``budget`` tasks.

    Used when a frontier level has fewer candidates than wanted tasks (a
    round-1-only split would leave workers idle): undecided interior
    children are stepped once to identify them and recursed into with a
    split budget, while leaf/decided children are bundled into contiguous
    ranges, all emitted in DFS child order.  Deterministic — it never looks at the
    worker count — and the explorer is a builder scratchpad whose stats
    are discarded (scheduling overhead, not search work).
    """
    tracer = obs.current_tracer()
    packed = explorer._packed
    dom = packed.domain
    depth = len(prefix)
    depth_seen[0] = max(depth_seen[0], depth + 1)
    state = packed.extension_state(dom.pack_history(prefix))
    children = explorer._admissible_packed(state, depth, tracer)
    count = len(children)
    if count == 0:
        raise NoAdmissibleExtension(explorer.predicate, prefix)
    if count >= budget or budget <= 1 or depth + 1 == rounds:
        emitted = 0
        for lo, hi in _even_ranges(count, min(count, max(1, budget))):
            emit(prefix, lo, hi)
            emitted += 1
        return emitted
    # Fewer children than wanted tasks, with room below: step each child
    # once to find the undecided interiors worth splitting further.
    root = explorer._root_executor(prefix)
    interior: list[bool] = []
    child_rounds: list[DHistory] = []
    for child in children:
        d_round = dom.unpack_round(child)
        child_rounds.append(d_round)
        fork = root.fork()
        fork.adversary.stage(d_round)
        fork.step()
        interior.append(not fork.trace.all_decided)
    n_interior = sum(interior)
    if n_interior == 0:
        emitted = 0
        for lo, hi in _even_ranges(count, min(count, budget)):
            emit(prefix, lo, hi)
            emitted += 1
        return emitted
    sub_budget = max(1, -(-budget // n_interior))
    emitted = 0
    start = 0
    for i, is_interior in enumerate(interior):
        if not is_interior:
            continue
        if start < i:
            emit(prefix, start, i)
            emitted += 1
        emitted += _expand_tasks(
            explorer, rounds, prefix + (child_rounds[i],), sub_budget,
            emit, depth_seen,
        )
        start = i + 1
    if start < count:
        emit(prefix, start, count)
        emitted += 1
    return emitted

def _build_tasks(
    spec: ConformanceSpec,
    input_space: list[tuple[Any, ...]],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    engine: str,
    symmetry_mode: str | None,
    max_violations: int | None,
    observe: bool,
) -> tuple[list[dict[str, Any]], _WorkerMemo, int, int]:
    """The fixed task decomposition: payloads, builder memo, depth, skips.

    Task kinds: ``("list", [prefix, ...])`` — resume the DFS below each
    prefix (symmetry shards and the replay engine); ``("range", parent,
    lo, hi)`` — the slice ``[lo:hi)`` of the packed ``parent``'s
    candidate list.  With symmetry on, the depth-1 frontier is
    orbit-deduped *globally* here, before sharding — workers then only
    need task-local tables for deeper levels; the orbits cut here are
    returned as the fourth element so ``skipped_symmetric`` still matches
    the serial walk.  Candidate lists enumerated while building land in
    ``builder_memo`` and pre-seed the shared table, so every pool
    worker's first probe is a cross-worker hit.
    """
    payloads: list[dict[str, Any]] = []
    builder_memo = _WorkerMemo(None)
    depth_seen = [1]
    builder_skipped = 0
    replay_frontier: list[DHistory] | None = None
    for inputs in input_space:
        base = {
            "spec": spec.name, "inputs": inputs, "n": n, "rounds": rounds,
            "prune_decided": prune_decided, "max_d_size": max_d_size,
            "engine": engine, "symmetry": symmetry_mode,
            "max_violations": max_violations, "observe": observe,
        }

        def add(task: tuple[Any, ...], base: dict[str, Any] = base) -> None:
            payloads.append({**base, "task": task, "index": len(payloads)})

        if engine != "incremental":
            if replay_frontier is None:
                predicate = spec.predicate(n)
                replay_frontier = [
                    (d_round,)
                    for d_round in admissible_rounds(
                        predicate, (), max_d_size=max_d_size
                    )
                ]
                if not replay_frontier:
                    raise NoAdmissibleExtension(predicate, ())
            for chunk in _contiguous_chunks(replay_frontier, TARGET_TASKS):
                add(("list", chunk))
            continue
        explorer = IncrementalExplorer(
            spec.protocol(n),
            spec.predicate(n),
            inputs,
            crashed_stop_emitting=spec.crashed_stop_emitting,
            prune_decided=prune_decided,
            max_d_size=max_d_size,
            symmetry=None,
        )
        explorer.shared_memo = builder_memo
        dom = explorer._packed.domain
        candidates = explorer._admissible_packed(
            explorer._packed.extension_state(()), 0, obs.current_tracer()
        )
        if not candidates:
            raise NoAdmissibleExtension(explorer.predicate, ())
        if symmetry_mode is not None:
            try:
                table = _PackedSymmetryTable(inputs, symmetry_mode, dom)
                frontier = [
                    (rint,) for rint in candidates if table.claim((rint,))
                ]
            except TypeError:  # uncomparable inputs: no dedupe, sound
                frontier = [(rint,) for rint in candidates]
            builder_skipped += len(candidates) - len(frontier)
            for chunk in _contiguous_chunks(frontier, TARGET_TASKS):
                add(("list", chunk))
            continue
        count = len(candidates)
        if count >= TARGET_TASKS:
            for lo, hi in _even_ranges(count, TARGET_TASKS):
                add(("range", (), lo, hi))
            continue

        def emit(
            prefix: DHistory, lo: int, hi: int,
            add: Callable[..., None] = add,
            pack: Callable[[DHistory], tuple[int, ...]] = dom.pack_history,
        ) -> None:
            add(("range", pack(prefix), lo, hi))

        _expand_tasks(explorer, rounds, (), TARGET_TASKS, emit, depth_seen)
    return payloads, builder_memo, depth_seen[0], builder_skipped


# ---------------------------------------------------------------------------
# worker side

_WORKER: dict[str, Any] = {"memo": None}

def _init_scale_worker(
    parent_path: list[str],
    table_handles: tuple[str, str, int] | None,
    lock: Any,
) -> None:
    init_worker(parent_path)
    table = None
    if table_handles is not None:
        try:
            table = SharedMemoTable.attach(table_handles, lock)
        except Exception:
            table = None  # degrade: local-front memo only
    _WORKER["memo"] = _WorkerMemo(table)

def _scale_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool entry: resolve the spec by name, run one task."""
    shared = _WORKER.get("memo")
    if shared is None:
        shared = _WORKER["memo"] = _WorkerMemo(None)
    return _scale_task_impl(get_spec(payload["spec"]), payload, shared)

def _run_range(
    spec: ConformanceSpec,
    explorer: IncrementalExplorer,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    parent: tuple[Any, ...],
    lo: int,
    hi: int,
    result: ExploreResult,
    max_violations: int | None,
) -> None:
    """Check slice ``[lo:hi)`` of the packed ``parent``'s candidate list.

    Leaf children — depth-``rounds`` or decided-under-prune — go through
    the :class:`_LeafStepper`; maximal runs of interior children are
    batched into single engine ``restrict`` walks.  Violations appear in
    exactly the DFS order, and histories / executions / pruned match the
    engine walk one for one.
    """
    packed = explorer._packed
    dom = packed.domain
    phist = tuple(parent)
    prefix = dom.unpack_history(phist)
    if explorer._packed_table is not None:
        _explore_incremental(
            spec, explorer, inputs, n, rounds, result=result,
            prefix=prefix, restrict=(lo, hi), max_violations=max_violations,
        )
        return
    depth = len(prefix)
    depth_leaf = depth + 1 == rounds
    if not depth_leaf and not explorer.prune_decided:
        # Every in-range child is interior (or an aggregated decided
        # subtree) — the engine's restricted walk is already the right tool.
        _explore_incremental(
            spec, explorer, inputs, n, rounds, result=result,
            prefix=prefix, restrict=(lo, hi), max_violations=max_violations,
        )
        return
    tracer = obs.current_tracer()
    state = packed.extension_state(phist)
    all_children = explorer._admissible_packed(state, depth, tracer)
    if not all_children:
        raise NoAdmissibleExtension(explorer.predicate, prefix)
    children = all_children[lo:hi]
    if not children:
        return
    stepper = _LeafStepper(explorer, prefix)
    if stepper.root_decided:
        # Builder invariant says range parents are undecided; stay sound if
        # a protocol breaks it (e.g. truncated replay) via the engine walk.
        _explore_incremental(
            spec, explorer, inputs, n, rounds, result=result,
            prefix=prefix, restrict=(lo, hi), max_violations=max_violations,
        )
        return
    stats = explorer.stats
    spec_failures = spec.failures
    i = 0
    total = len(children)
    while i < total:
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        rint = children[i]
        if depth_leaf or stepper.decided(rint):
            trace, history = stepper.run(rint)
            stats.visited += 1
            stats.rounds_executed += 1
            result.histories += 1
            result.executions += 1
            if not depth_leaf:
                result.pruned += 1
            failures = spec_failures(trace, n)
            if failures:
                result.violations.append(
                    Violation(spec.name, inputs, history, tuple(failures))
                )
            i += 1
        else:
            j = i + 1
            while j < total and not stepper.decided(children[j]):
                j += 1
            _explore_incremental(
                spec, explorer, inputs, n, rounds, result=result,
                prefix=prefix, restrict=(lo + i, lo + j),
                max_violations=max_violations,
            )
            i = j

def _scale_task_impl(
    spec: ConformanceSpec, payload: dict[str, Any], shared: _WorkerMemo
) -> dict[str, Any]:
    """Run one task and return its mergeable part dict.

    A fresh explorer per task keeps every deterministic counter and event
    a function of the task alone (a warm memo carried across tasks would
    make them depend on which tasks shared a worker); the shared memo
    front is what makes the rebuild cheap.
    """
    inputs = tuple(payload["inputs"])
    n = payload["n"]
    rounds = payload["rounds"]
    max_violations = payload.get("max_violations")
    task = payload["task"]
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive"
    )
    engine_delta: dict[str, int] = {}

    def work() -> None:
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.begin(
                "check.task", index=payload.get("index", 0), kind=task[0],
            )
        try:
            if payload["engine"] == "incremental":
                explorer = IncrementalExplorer(
                    spec.protocol(n),
                    spec.predicate(n),
                    inputs,
                    crashed_stop_emitting=spec.crashed_stop_emitting,
                    prune_decided=payload["prune_decided"],
                    max_d_size=payload["max_d_size"],
                    symmetry=payload["symmetry"],
                )
                explorer.shared_memo = shared
                before = explorer.stats.snapshot()
                if task[0] == "list":
                    for prefix in task[1]:
                        _explore_incremental(
                            spec, explorer, inputs, n, rounds,
                            result=result, prefix=prefix,
                            max_violations=max_violations,
                        )
                        if (
                            max_violations is not None
                            and len(result.violations) >= max_violations
                        ):
                            break
                else:
                    _, parent, lo, hi = task
                    _run_range(
                        spec, explorer, inputs, n, rounds, parent, lo, hi,
                        result, max_violations,
                    )
                after = explorer.stats.snapshot()
                engine_delta.update(
                    {k: v - before.get(k, 0) for k, v in after.items()}
                )
                result.visited = engine_delta.get("visited", 0)
                result.skipped_symmetric = engine_delta.get(
                    "skipped_symmetric", 0
                )
                result.rounds_executed = engine_delta.get("rounds_executed", 0)
            else:
                for prefix in task[1]:
                    _explore_serial(
                        spec, inputs, n, rounds,
                        prune_decided=payload["prune_decided"],
                        max_d_size=payload["max_d_size"],
                        result=result, prefix=prefix,
                        max_violations=max_violations,
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
                    "check.task",
                    histories=result.histories,
                    violations=len(result.violations),
                )

    part: dict[str, Any]
    if payload.get("observe"):
        local_tracer = obs.Tracer()
        local_metrics = obs.Metrics()
        with obs.tracing(local_tracer), obs.collecting(local_metrics):
            work()
        part = {
            "records": list(local_tracer.records),
            "dropped": local_tracer.dropped,
            "metrics": local_metrics.snapshot(),
        }
    else:
        work()
        part = {}
    part.update({
        "executions": result.executions,
        "histories": result.histories,
        "pruned": result.pruned,
        "visited": result.visited,
        "skipped_symmetric": result.skipped_symmetric,
        "rounds_executed": result.rounds_executed,
        "engine_stats": engine_delta,
        "violations": [
            (v.inputs, v.history, [(f.invariant, f.message) for f in v.failures])
            for v in result.violations
        ],
    })
    return part


# ---------------------------------------------------------------------------
# work-stealing driver

def run_steal(
    spec: ConformanceSpec,
    input_space: list[tuple[Any, ...]],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    workers: int,
    result: ExploreResult,
    engine: str,
    symmetry_mode: str | None,
    max_violations: int | None,
    engine_totals: Any,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> None:
    """Drain the fixed task list with a dynamically-fed process pool.

    Called from :func:`repro.check.explore.explore`; fills ``result`` in
    place.  Submission is bounded (about two tasks in flight per worker)
    so early violations can cancel cheaply, and parts are merged in task
    index order for worker-count-invariant output.
    """
    observe = obs.current_tracer().enabled or obs.current_metrics().enabled
    payloads, builder_memo, frontier_depth, builder_skipped = _build_tasks(
        spec, input_space, n, rounds,
        prune_decided=prune_decided, max_d_size=max_d_size, engine=engine,
        symmetry_mode=symmetry_mode,
        max_violations=max_violations, observe=observe,
    )
    result.skipped_symmetric += builder_skipped
    used = max(1, min(workers, len(payloads)))
    result.workers = used
    result.scale = {
        "tasks": len(payloads),
        "tasks_done": 0,
        "frontier_depth": frontier_depth,
        "shared_table": False,
    }
    parts: dict[int, dict[str, Any]] = {}
    started = time.monotonic()
    last_beat = started

    def heartbeat(force: bool = False) -> None:
        nonlocal last_beat
        if not progress:
            return
        now = time.monotonic()
        if not force and now - last_beat < progress_interval:
            return
        last_beat = now
        done = len(parts)
        histories = sum(p["histories"] for p in parts.values())
        violations = sum(len(p["violations"]) for p in parts.values())
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event(
                "check.progress",
                {"ts": time.time(), "elapsed_s": round(now - started, 3)},
                spec=spec.name, tasks_done=done,
                tasks_total=len(payloads), histories=histories,
                violations=violations, workers=used,
                frontier_depth=frontier_depth,
            )
        print(
            f"[check] {spec.name}: {done}/{len(payloads)} tasks, "
            f"{histories} histories, {violations} violation(s), "
            f"{now - started:.0f}s elapsed ({used} workers)",
            file=sys.stderr, flush=True,
        )

    if used == 1:
        # In-process: no pool, no registry requirement, no shared segments —
        # the builder memo plays the table's role across tasks.
        violations_so_far = 0
        for index, payload in enumerate(payloads):
            parts[index] = _scale_task_impl(spec, payload, builder_memo)
            violations_so_far += len(parts[index]["violations"])
            heartbeat()
            if (
                max_violations is not None
                and violations_so_far >= max_violations
            ):
                break
        heartbeat(force=True)
    else:
        try:
            registered = get_spec(spec.name)
        except KeyError:
            registered = None
        if registered is not spec:
            raise ValueError(
                f"workers>1 needs a registered spec; {spec.name!r} is not "
                "the registered instance (register it, or run with "
                "workers=1)"
            )
        table: SharedMemoTable | None = None
        try:
            try:
                table = SharedMemoTable.create()
                for key, value in builder_memo._front.items():
                    table.put(key, value)
            except Exception:
                if table is not None:
                    table.destroy()
                table = None  # no /dev/shm: workers fall back to local memos
            result.scale["shared_table"] = table is not None
            initargs = (
                list(sys.path),
                table.handles() if table is not None else None,
                table.lock if table is not None else None,
            )
            with ProcessPoolExecutor(
                max_workers=used, initializer=_init_scale_worker,
                initargs=initargs,
            ) as pool:
                pending: dict[Any, int] = {}
                next_index = 0
                in_flight = used * 2
                violations_so_far = 0
                stop = False
                while pending or (next_index < len(payloads) and not stop):
                    while (
                        not stop
                        and next_index < len(payloads)
                        and len(pending) < in_flight
                    ):
                        future = pool.submit(
                            _scale_task, payloads[next_index]
                        )
                        pending[future] = next_index
                        next_index += 1
                    if not pending:
                        break
                    done, _ = wait(
                        set(pending),
                        timeout=(progress_interval if progress else None),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        index = pending.pop(future)
                        part = future.result()
                        parts[index] = part
                        violations_so_far += len(part["violations"])
                    if (
                        max_violations is not None
                        and violations_so_far >= max_violations
                    ):
                        stop = True
                        for future in pending:
                            future.cancel()
                        pending = {}
                    heartbeat()
                heartbeat(force=True)
        finally:
            if table is not None:
                table.destroy()
    _merge_parts(spec, result, parts, engine_totals, max_violations)
    result.scale["tasks_done"] = len(parts)
    result.scale.update({
        "shared_hits": engine_totals.shared_hits,
        "shared_misses": engine_totals.shared_misses,
        "shared_publishes": engine_totals.shared_publishes,
    })


# ---------------------------------------------------------------------------
# disk-backed BFS with checkpoint/resume

def _durable_write(path: Path, dump: Callable[[Any], None]) -> None:
    """Write ``path`` atomically and durably via a fsynced temp file.

    The temp file is flushed and fsynced before ``os.replace``, and the
    directory after it, so a crash leaves either the old file or the
    complete new one — never a renamed-but-empty file.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        dump(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

def _atomic_json(path: Path, doc: dict[str, Any]) -> None:
    data = json.dumps(doc, indent=1, sort_keys=True).encode()
    _durable_write(path, lambda handle: handle.write(data))

def _atomic_pickle(path: Path, doc: Any) -> None:
    _durable_write(path, lambda handle: pickle.dump(doc, handle, protocol=4))

def _bfs_fingerprint(
    spec: ConformanceSpec,
    n: int,
    rounds: int,
    prune_decided: bool,
    max_d_size: int | None,
    segment_size: int,
    input_space: list[tuple[Any, ...]],
) -> str:
    doc = {
        "version": CHECKPOINT_VERSION, "spec": spec.name, "n": n,
        "rounds": rounds, "prune_decided": prune_decided,
        "max_d_size": max_d_size, "segment_size": segment_size,
        "inputs": repr(input_space),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()

def _bfs_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool entry for one BFS frontier segment."""
    shared = _WORKER.get("memo")
    if shared is None:
        shared = _WORKER["memo"] = _WorkerMemo(None)
    return _bfs_task_impl(get_spec(payload["spec"]), payload, shared)

def _bfs_task_impl(
    spec: ConformanceSpec, payload: dict[str, Any], shared: _WorkerMemo
) -> dict[str, Any]:
    """Expand/judge one frontier segment; spill children, write results.

    Prefixes arrive grouped by parent (segments are built parent-major),
    so one parent executor — and one :class:`_LeafStepper` when the parent
    is undecided — serves a whole run of siblings.  Leaves (full depth, or
    decided under prune) are judged in place; interior children are packed
    and spilled as next-level segments.  All files are written atomically
    with deterministic names, so re-running a task after a crash or a
    budget stop simply overwrites identical content.
    """
    inputs = tuple(payload["inputs"])
    n = payload["n"]
    rounds = payload["rounds"]
    level = payload["level"]
    segment_size = payload["segment_size"]
    directory = Path(payload["dir"])
    task_id = payload["task_id"]
    with open(directory / payload["seg"], "rb") as handle:
        prefixes: list[tuple[int, ...]] = pickle.load(handle)
    explorer = IncrementalExplorer(
        spec.protocol(n),
        spec.predicate(n),
        inputs,
        crashed_stop_emitting=spec.crashed_stop_emitting,
        prune_decided=payload["prune_decided"],
        max_d_size=payload["max_d_size"],
        symmetry=None,
    )
    explorer.shared_memo = shared
    packed = explorer._packed
    dom = packed.domain
    tracer = obs.current_tracer()
    prune = explorer.prune_decided
    res: dict[str, Any] = {
        "task_id": task_id, "input": payload["input_index"], "level": level,
        "histories": 0, "executions": 0, "pruned": 0, "visited": 0,
        "violations": [],  # (packed history, [(invariant, message), ...])
        "children": [],  # ({"seg": name, "count": int}) next-level segments
    }
    before = explorer.stats.snapshot()
    out: list[tuple[int, ...]] = []
    spilled = 0

    def spill() -> None:
        nonlocal spilled
        name = f"seg_{task_id:06d}_{spilled:04d}.pkl"
        _atomic_pickle(directory / name, out[:segment_size])
        res["children"].append({"seg": name, "count": len(out[:segment_size])})
        del out[:segment_size]
        spilled += 1

    index = 0
    total = len(prefixes)
    while index < total:
        parent = prefixes[index][:-1]
        j = index
        while j < total and prefixes[j][:-1] == parent:
            j += 1
        group = prefixes[index:j]
        parent_hist = dom.unpack_history(parent)
        parent_state = packed.extension_state(tuple(parent))
        root = explorer._root_executor(parent_hist)
        if root.trace.all_decided:
            # Decided parent (reachable only without prune): every leaf in
            # the subtree shares the truncated trace — judge it once.
            shared_failures: tuple[Any, ...] | None = None
            for prefix in group:
                res["visited"] += 1
                rint = prefix[-1]
                if level == rounds:
                    res["histories"] += 1
                    res["executions"] += 1
                    if shared_failures is None:
                        shared_failures = tuple(
                            (f.invariant, f.message)
                            for f in spec.failures(root.trace, n)
                        )
                    if shared_failures:
                        res["violations"].append(
                            (prefix, list(shared_failures))
                        )
                else:
                    state = packed.advance(parent_state, rint)
                    kids = explorer._admissible_packed(state, level, tracer)
                    if not kids:
                        raise NoAdmissibleExtension(
                            explorer.predicate, dom.unpack_history(prefix)
                        )
                    out.extend(prefix + (kid,) for kid in kids)
                    while len(out) >= segment_size:
                        spill()
        else:
            stepper = _LeafStepper(explorer, parent_hist)
            for prefix in group:
                res["visited"] += 1
                rint = prefix[-1]
                if level == rounds or (prune and stepper.decided(rint)):
                    trace, _history = stepper.run(rint)
                    res["histories"] += 1
                    res["executions"] += 1
                    if level < rounds:
                        res["pruned"] += 1
                    failures = spec.failures(trace, n)
                    if failures:
                        res["violations"].append((
                            prefix,
                            [(f.invariant, f.message) for f in failures],
                        ))
                else:
                    state = packed.advance(parent_state, rint)
                    kids = explorer._admissible_packed(state, level, tracer)
                    if not kids:
                        raise NoAdmissibleExtension(
                            explorer.predicate, dom.unpack_history(prefix)
                        )
                    out.extend(prefix + (kid,) for kid in kids)
                    while len(out) >= segment_size:
                        spill()
        index = j
    while out:
        spill()
    after = explorer.stats.snapshot()
    res["engine_stats"] = {
        k: v - before.get(k, 0) for k, v in after.items()
    }
    res_name = f"res_{task_id:06d}.pkl"
    _atomic_pickle(directory / res_name, res)
    return {
        "res": res_name,
        "children": res["children"],
        "histories": res["histories"],
        "violations": len(res["violations"]),
    }

def explore_bfs(
    spec: ConformanceSpec | str,
    *,
    n: int | None = None,
    rounds: int | None = None,
    prune_decided: bool = False,
    max_d_size: int | None = None,
    workers: int = 1,
    max_violations: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    segment_size: int = 4096,
    max_tasks: int | None = None,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> ExploreResult:
    """Breadth-first exhaustive certification with a disk-backed frontier.

    The frontier lives on disk as pickle segments; a JSON manifest (format
    ``rrfd-checkpoint-v1``) tracks pending and completed tasks and is
    rewritten atomically after every completion, so the search survives a
    kill at any point.  Pass ``checkpoint=DIR`` to persist — then
    ``resume=True`` (CLI: ``repro check --bfs --checkpoint DIR --resume``)
    re-runs only the pending tasks and produces the same counts and
    violation set as an uninterrupted run.  ``max_tasks`` bounds one
    sitting: the result comes back with ``partial=True`` and merged
    counters for the completed portion.

    Requires the packed bitset kernel and ``rounds >= 1``; symmetry
    reduction is not applied (counts match the default ``explore()``).
    Counters and the violation *set* are deterministic for every worker
    count; violations are ordered canonically (by input index, then packed
    history) rather than in DFS order.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if not spec.supports_exhaustive:
        raise ValueError(
            f"spec {spec.name!r} is not a pure function of (inputs, "
            "D-history); use fuzz() instead"
        )
    n = spec.exhaustive_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    if rounds < 1:
        raise ValueError("explore_bfs needs rounds >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    predicate = spec.predicate(n)
    packed = predicate.packed()
    if not packed.fast:
        raise ValueError(
            "disk-backed BFS needs the predicate's packed (bitset) kernel; "
            f"{spec.name!r} at n={n} has none"
        )
    workers = resolve_workers(workers)
    dom = bitset_domain(n)
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive",
        engine="incremental", scheduler="bfs",
    )
    started = time.perf_counter()
    input_space = [tuple(i) for i in spec.exhaustive_inputs(n)]
    result.inputs_checked = len(input_space)
    fingerprint = _bfs_fingerprint(
        spec, n, rounds, prune_decided, max_d_size, segment_size, input_space
    )
    cleanup = checkpoint is None
    if checkpoint is None:
        if resume:
            raise ValueError("resume=True needs an explicit checkpoint dir")
        directory = Path(tempfile.mkdtemp(prefix="rrfd-bfs-"))
    else:
        directory = Path(checkpoint)
        directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    try:
        if resume:
            if not manifest_path.exists():
                raise ValueError(
                    f"no checkpoint manifest at {manifest_path}"
                )
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"checkpoint version {manifest.get('version')!r} != "
                    f"{CHECKPOINT_VERSION!r}"
                )
            if manifest.get("fingerprint") != fingerprint:
                raise ValueError(
                    "checkpoint was written for different parameters "
                    "(spec/n/rounds/prune/max_d_size/segment_size/inputs "
                    "must all match to resume)"
                )
        else:
            if manifest_path.exists():
                raise ValueError(
                    f"{manifest_path} already exists; pass resume=True to "
                    "continue it, or point --checkpoint at a fresh directory"
                )
            pending: list[dict[str, Any]] = []
            next_id = 0
            for input_index, _inputs in enumerate(input_space):
                roots = packed.admissible_round_ints(
                    (), max_d_size=max_d_size
                )
                if not roots:
                    raise NoAdmissibleExtension(predicate, ())
                for chunk in _contiguous_chunks(
                    [(rint,) for rint in roots], -(-len(roots) // segment_size)
                ):
                    name = f"seg_root_{input_index:03d}_{next_id:06d}.pkl"
                    _atomic_pickle(directory / name, chunk)
                    pending.append({
                        "id": next_id, "input": input_index, "level": 1,
                        "seg": name, "count": len(chunk),
                    })
                    next_id += 1
            manifest = {
                "version": CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "next_task_id": next_id,
                "pending": pending,
                "done": [],
            }
            _atomic_json(manifest_path, manifest)

        pending = list(manifest["pending"])
        done: list[dict[str, Any]] = list(manifest["done"])
        next_id = manifest["next_task_id"]
        # Tasks stay in ``pending`` until their result is durably recorded —
        # dispatch marks them, completion removes them — so a kill while a
        # task is in flight leaves it pending in the manifest for resume.
        dispatched: set[int] = set()

        def next_task() -> dict[str, Any] | None:
            for task in pending:
                if task["id"] not in dispatched:
                    return task
            return None

        completed_this_run = 0
        violations_seen = sum(e.get("violations", 0) for e in done)
        stop = False
        last_beat = time.monotonic()

        def make_payload(task: dict[str, Any]) -> dict[str, Any]:
            return {
                "spec": spec.name,
                "inputs": input_space[task["input"]],
                "input_index": task["input"],
                "n": n, "rounds": rounds,
                "prune_decided": prune_decided, "max_d_size": max_d_size,
                "engine": "incremental", "symmetry": None,
                "dir": str(directory), "task_id": task["id"],
                "level": task["level"], "seg": task["seg"],
                "segment_size": segment_size,
            }

        def on_done(task: dict[str, Any], summary: dict[str, Any]) -> None:
            nonlocal next_id, completed_this_run, violations_seen
            pending.remove(task)
            dispatched.discard(task["id"])
            done.append({
                "id": task["id"], "res": summary["res"],
                "violations": summary["violations"],
            })
            for child in summary["children"]:
                pending.append({
                    "id": next_id, "input": task["input"],
                    "level": task["level"] + 1, "seg": child["seg"],
                    "count": child["count"],
                })
                next_id += 1
            completed_this_run += 1
            violations_seen += summary["violations"]
            manifest.update(
                next_task_id=next_id, pending=pending, done=done
            )
            _atomic_json(manifest_path, manifest)

        def heartbeat(force: bool = False) -> None:
            nonlocal last_beat
            if not progress:
                return
            now = time.monotonic()
            if not force and now - last_beat < progress_interval:
                return
            last_beat = now
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.event(
                    "check.progress", spec=spec.name, scheduler="bfs",
                    tasks_done=len(done), tasks_pending=len(pending),
                    violations=violations_seen, workers=result.workers,
                )
            print(
                f"[check] {spec.name} bfs: {len(done)} tasks done, "
                f"{len(pending)} pending, {violations_seen} violation(s)",
                file=sys.stderr, flush=True,
            )

        def budget_spent() -> bool:
            if max_tasks is not None and completed_this_run >= max_tasks:
                return True
            return (
                max_violations is not None
                and violations_seen >= max_violations
            )

        if workers > 1 and pending:
            try:
                registered = get_spec(spec.name)
            except KeyError:
                registered = None
            if registered is not spec:
                raise ValueError(
                    f"workers>1 needs a registered spec; {spec.name!r} is "
                    "not the registered instance (register it, or run with "
                    "workers=1)"
                )
            result.workers = workers
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_scale_worker,
                initargs=(list(sys.path), None, None),
            ) as pool:
                in_flight: dict[Any, dict[str, Any]] = {}
                while (pending or in_flight) and not stop:
                    while len(in_flight) < workers and not budget_spent():
                        task = next_task()
                        if task is None:
                            break
                        dispatched.add(task["id"])
                        in_flight[pool.submit(_bfs_task, make_payload(task))] = task
                    if not in_flight:
                        break
                    finished, _ = wait(
                        set(in_flight),
                        timeout=(progress_interval if progress else None),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        task = in_flight.pop(future)
                        on_done(task, future.result())
                    heartbeat()
                    if budget_spent() and not in_flight:
                        stop = True
        else:
            result.workers = 1
            memo = _WorkerMemo(None)
            while pending and not budget_spent():
                task = pending[0]
                on_done(
                    task, _bfs_task_impl(spec, make_payload(task), memo)
                )
                heartbeat()
        heartbeat(force=True)
        result.partial = bool(pending)

        # Merge: counters in task-id order; violations canonically ordered
        # (input index, then packed history) — BFS completion order is
        # scheduling noise, the sort makes the output worker-count-proof.
        collected: list[tuple[int, tuple[int, ...], list[Any]]] = []
        levels = 1
        for entry in sorted(done, key=lambda e: e["id"]):
            with open(directory / entry["res"], "rb") as handle:
                res = pickle.load(handle)
            result.histories += res["histories"]
            result.executions += res["executions"]
            result.pruned += res["pruned"]
            result.visited += res["visited"]
            result.rounds_executed += res["engine_stats"].get(
                "rounds_executed", 0
            )
            levels = max(levels, res["level"])
            for phist, failures in res["violations"]:
                collected.append((res["input"], phist, failures))
        collected.sort(key=lambda item: (item[0], item[1]))
        for input_index, phist, failures in collected:
            result.violations.append(Violation(
                spec.name, input_space[input_index],
                dom.unpack_history(phist),
                tuple(InvariantFailure(i, m) for i, m in failures),
            ))
        if max_violations is not None:
            del result.violations[max_violations:]
        result.scale = {
            "tasks_done": len(done),
            "tasks_pending": len(pending),
            "levels": levels,
            "segment_size": segment_size,
            "checkpoint": None if cleanup else str(directory),
            "resumed": resume,
        }
    finally:
        if cleanup:
            shutil.rmtree(directory, ignore_errors=True)
    result.elapsed = time.perf_counter() - started
    return result
