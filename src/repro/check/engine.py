"""Incremental exploration engine: fork executors instead of replaying.

The replay-based checker (:func:`repro.check.explore.explore` with
``engine="replay"``) pays ``O(len(h))`` protocol rounds per history ``h``:
every leaf of the admissible-history tree re-executes the protocol from
round 1.  Over a tree with ``E`` edges that is ``O(E · depth)`` rounds.
This engine instead keeps one live :class:`~repro.core.executor.RoundExecutor`
per DFS path and **forks** it at branch points (:meth:`RoundExecutor.fork` —
process states copied via :meth:`~repro.core.algorithm.RoundProcess.copy`,
per-round trace records shared), so each tree edge costs exactly one
protocol round: ``O(E)`` total, with three further reductions layered on
top:

- **move semantics** — the child explored last consumes its parent's
  executor outright, saving one fork per interior node;
- **decided-subtree sharing** — once every process has decided, the
  executor stops stepping (matching the replay ``stop_when_all_decided``
  truncation), so an entire decided subtree shares one executor and one
  trace *object*, which lets callers memoize invariant checks by trace
  identity; with symmetry off such a subtree is counted by DP and yielded
  as one aggregated run;
- **candidate memoization** — admissible next rounds are enumerated by the
  predicate's packed kernel (:meth:`~repro.core.predicate.Predicate.packed`)
  and cached per folded kernel state, so e.g. a per-round predicate (state
  ``()``) enumerates its candidate families exactly once per run.

Every predicate runs on this one packed path.  Catalog predicates ship a
bit-op :class:`~repro.core.predicate.FastPackedPredicate`; any other
predicate reaches the engine through the
:class:`~repro.core.predicate.PackedPredicate` bridge, whose state is the
packed history itself and whose candidate lists are memoized per set-side
``extension_state``.  Both yield identical histories in identical order.

Symmetry reduction (optional).  A permutation ``π`` of process ids acts on
a node ``(inputs, h)`` by ``(π·inputs)(π(i)) = inputs(i)`` and
``(π·h)(π(i), r) = π(h(i, r))``.  When the predicate is
:attr:`~repro.core.predicate.Predicate.is_symmetric`, the admissible
extensions of ``π·h`` are exactly the ``π``-images of those of ``h``; when
additionally the *spec* declares symmetry (see
:class:`~repro.check.spec.ConformanceSpec`), exploring one representative
per orbit suffices.  The engine canonicalizes each node to
``min over π of serialize(π·(inputs, h))`` and consults a transposition
table: a node whose canonical form was already claimed by a *visited* node
is skipped together with its whole subtree.  Because the table only ever
skips in favour of an explored orbit-equivalent, coverage of one node per
orbit holds by induction on depth — for any input space, serial or
per-worker.  Two soundness grades exist (``"exact"`` vs ``"labels"``);
see ``docs/API.md`` for the argument and the ``kset`` caveat.

Anything the engine cannot handle identically to replay (``rounds == 0``,
specs that are not pure functions of ``(inputs, D-history)``) stays on the
replay path — :func:`repro.check.explore.explore` routes automatically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro import obs
from repro.analysis.adversary_search import NoAdmissibleExtension
from repro.core.adversary import Adversary
from repro.core.algorithm import Protocol
from repro.core.executor import RoundExecutor
from repro.core.predicate import Predicate
from repro.core.types import DHistory, DRound, ExecutionTrace, PackedDHistory
from repro.util.bitset import BitsetDomain

__all__ = [
    "MAX_SYMMETRY_N",
    "EngineStats",
    "EngineRun",
    "IncrementalExplorer",
]

#: Beyond this system size the n! canonicalization outweighs the pruning.
MAX_SYMMETRY_N = 6


@dataclass
class EngineStats:
    """Work counters for one :class:`IncrementalExplorer` (accumulating).

    Fields stay plain ints so the DFS inner loop pays one integer add per
    count; the observability contract (snapshot / merge / publish) is the
    shared one from :mod:`repro.obs.metrics`.
    """

    visited: int = 0  # nodes expanded or checked (skipped nodes excluded)
    skipped_symmetric: int = 0  # subtree roots cut by the transposition table
    rounds_executed: int = 0  # protocol rounds stepped = tree edges paid for
    forks: int = 0  # executor forks (edges minus moves minus shared)
    # Keys are folded packed-kernel states (int tuples, never frozensets).
    memo_hits_packed: int = 0  # candidate lists served from the memo
    memo_misses_packed: int = 0  # candidate lists enumerated (or loaded)
    aggregated_subtrees: int = 0  # decided subtrees counted without expansion
    # Cross-process memo traffic (repro.check.scale's shared table).  These
    # three are *environmental*: which worker computes a candidate list and
    # which loads it from the shared table depends on scheduling races, so
    # they vary run to run and across worker counts.  Every other field
    # stays deterministic — a shared-table load is counted as a packed memo
    # miss too (the list was not in the local memo), keeping the
    # deterministic counters identical whether the table was on or off.
    shared_hits: int = 0  # candidate lists loaded from the cross-worker table
    shared_misses: int = 0  # probes that found no published entry
    shared_publishes: int = 0  # locally computed lists published to the table

    def snapshot(self) -> dict[str, int]:
        """Plain picklable counter snapshot (the shared obs contract)."""
        return obs.field_snapshot(self)

    def merge(self, other: "EngineStats | dict[str, int]") -> None:
        """Add another explorer's counters (or their snapshot) into this one."""
        snapshot = other.snapshot() if isinstance(other, EngineStats) else other
        obs.merge_field_snapshots(self, snapshot)

    def publish(self, metrics: "obs.Metrics", prefix: str = "engine") -> None:
        """Export the counters as ``{prefix}.{field}`` metrics."""
        obs.publish_fields(metrics, prefix, self)


class EngineRun(NamedTuple):
    """One checked node: a full-depth history or a decided interior prefix.

    ``trace`` is byte-identical to what ``spec.run(inputs, history)`` would
    produce (the executor truncates at all-decided exactly like the replay
    runner) but may be *shared* between consecutive runs under a decided
    subtree — callers can memoize invariant checks via ``trace is last``.

    With symmetry off, an entire decided subtree whose leaves all share
    this trace may arrive as a *single* run with ``count`` set to the
    number of full-depth histories it stands for and ``history`` the
    decided prefix; ``expand()`` lazily enumerates the individual leaf
    histories in DFS order (callers only need them when the shared trace
    fails an invariant).  Plain runs have ``count == 1``
    and ``expand is None``.  (A NamedTuple rather than a dataclass: the
    engine creates one per visited node, and tuple construction is ~3×
    cheaper than a frozen dataclass — measurable at E22 node counts.)
    """

    history: DHistory
    trace: ExecutionTrace
    pruned: bool = False
    count: int = 1
    expand: Callable[[], Iterator[DHistory]] | None = None


class _CursorAdversary(Adversary):
    """Feeds the executor exactly one staged suspicion round at a time.

    Unlike :class:`~repro.core.adversary.ScriptedAdversary` it holds no
    global script — the DFS decides the next round at each edge, stages it,
    and steps once.
    """

    needs_history = False  # the staged round is the whole strategy

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._staged: DRound | None = None

    def stage(self, d_round: DRound) -> None:
        self._staged = d_round

    def suspicions(self, round_number: int, history: DHistory, payloads: Any) -> DRound:
        if self._staged is None:
            raise RuntimeError("no suspicion round staged for this step")
        d_round, self._staged = self._staged, None
        return d_round


class _PackedSymmetryTable:
    """Transposition table over permutation orbits of ``(inputs, history)``.

    ``mode="exact"``: the inputs participate literally, so two nodes collide
    iff some permutation *in the stabilizer of the inputs* maps one history
    to the other.  ``mode="labels"``: the permuted inputs are first
    relabelled by first occurrence, treating input values as interchangeable
    labels (the ``kset`` distinct-inputs case, where the literal stabilizer
    is trivial and exact mode would prune nothing).

    Claim decisions depend only on the orbit partition, not on how a
    canonical representative is serialized; the tests cross-check them
    against a brute-force minimum over all ``n!`` images.  Per-round
    permutation images are ints (computed once per distinct round through
    the domain's per-permutation ``2^n`` mask maps), and canonicalization
    narrows the candidate permutations level by level — first to those
    minimizing the input piece (precomputed), then per round — instead of
    building all ``n!`` serializations.
    """

    def __init__(self, inputs: tuple[Any, ...], mode: str, dom: BitsetDomain) -> None:
        if mode not in ("exact", "labels"):
            raise ValueError(f"unknown symmetry mode {mode!r}")
        self.dom = dom
        n = len(inputs)
        self.perms: list[tuple[int, ...]] = list(
            itertools.permutations(range(n))
        )
        self._round_images: dict[int, tuple[int, ...]] = {}
        input_pieces: list[tuple[Any, ...]] = []
        for perm in self.perms:
            image: list[Any] = [None] * n
            for i, value in enumerate(inputs):
                image[perm[i]] = value
            if mode == "labels":
                relabel: dict[Any, int] = {}
                for value in image:
                    if value not in relabel:
                        relabel[value] = len(relabel)
                input_pieces.append(tuple(relabel[v] for v in image))
            else:
                input_pieces.append(tuple(image))
        min_piece = min(input_pieces)
        self._min_piece = min_piece
        self._min_idx: tuple[int, ...] = tuple(
            idx for idx, piece in enumerate(input_pieces) if piece == min_piece
        )
        self._seen: set[tuple[Any, ...]] = set()

    def _images(self, rint: int) -> tuple[int, ...]:
        cached = self._round_images.get(rint)
        if cached is None:
            dom = self.dom
            cached = tuple(dom.permute_round(rint, perm) for perm in self.perms)
            self._round_images[rint] = cached
        return cached

    def canonical(self, history: PackedDHistory) -> tuple[Any, ...]:
        """Orbit-minimal serialization of ``(inputs, packed history)``.

        Only permutations minimizing the input piece can produce the
        lexicographic minimum; each round then narrows the survivors to
        those minimizing its image, so most claims touch a handful of
        permutations instead of all ``n!``.
        """
        survivors = self._min_idx
        key: list[Any] = [self._min_piece]
        depth = len(history)
        for level, rint in enumerate(history):
            images = self._images(rint)
            if len(survivors) == 1:
                idx = survivors[0]
                key.extend(self._images(r)[idx] for r in history[level:])
                break
            best = min(images[idx] for idx in survivors)
            key.append(best)
            if level + 1 < depth:
                survivors = tuple(
                    idx for idx in survivors if images[idx] == best
                )
        return tuple(key)

    def claim(self, history: PackedDHistory) -> bool:
        """True iff this node's orbit is fresh (caller must explore it)."""
        key = self.canonical(history)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


class IncrementalExplorer:
    """Stateful DFS over admissible histories, one protocol round per edge.

    One instance is bound to a single ``(protocol, predicate, inputs)``
    triple; :meth:`runs` may be called repeatedly (e.g. once per task
    slice in the work-stealing scheduler) and shares the candidate memo,
    the symmetry table and the :class:`EngineStats` across calls.

    Args:
        protocol: protocol factory output for this ``n``.
        predicate: the model predicate; the DFS runs on its packed kernel
            (``predicate.packed()`` — a fast bit-op kernel or the bridge).
        inputs: the fixed input assignment explored by this instance.
        crashed_stop_emitting: executor crash semantics (from the spec).
        prune_decided: emit decided interior prefixes as (pruned) leaves
            instead of descending below them.
        max_d_size: per-process suspicion-set size cap for the enumerator.
        symmetry: ``None`` (off), ``"exact"`` or ``"labels"`` — see
            :class:`_PackedSymmetryTable`.  Silently disabled for the rest
            of the run if canonicalization hits uncomparable/unhashable
            inputs.
    """

    def __init__(
        self,
        protocol: Protocol,
        predicate: Predicate,
        inputs: Sequence[Any],
        *,
        crashed_stop_emitting: bool = False,
        prune_decided: bool = False,
        max_d_size: int | None = None,
        symmetry: str | None = None,
    ) -> None:
        self.protocol = protocol
        self.predicate = predicate
        self.inputs = tuple(inputs)
        self.n = len(self.inputs)
        if predicate.n != self.n:
            raise ValueError(
                f"predicate is for n={predicate.n}, inputs give n={self.n}"
            )
        self.crashed_stop_emitting = crashed_stop_emitting
        self.prune_decided = prune_decided
        self.max_d_size = max_d_size
        self.stats = EngineStats()
        # One cursor serves every executor this explorer forks: stage() is
        # always consumed by the very next step() before control returns to
        # the DFS, so the staged slot never holds two rounds at once.
        self._cursor = _CursorAdversary(self.n)
        self._packed = predicate.packed()
        self._packed_candidates: dict[Any, list[int]] = {}
        self._agg_counts: dict[Any, int] = {}
        #: Optional cross-process candidate-memo broadcast (duck-typed:
        #: ``get(key) -> list | None`` and ``put(key, list) -> bool``), set by
        #: :mod:`repro.check.scale` workers.  Entries are pure functions of
        #: their key, so serving one from another process can never change
        #: results — only skip a redundant enumeration.
        self.shared_memo: Any | None = None
        self._packed_table: _PackedSymmetryTable | None = None
        if symmetry:
            try:
                self._packed_table = _PackedSymmetryTable(
                    self.inputs, symmetry, self._packed.domain
                )
            except TypeError:
                # Uncomparable input values: no reduction (sound: everything
                # is explored).
                self._packed_table = None

    # ------------------------------------------------------------- internals

    def _claim_packed(self, phistory: PackedDHistory) -> bool:
        """Transposition-table probe; disables itself on type errors."""
        table = self._packed_table
        if table is None:
            return True
        try:
            return table.claim(phistory)
        except TypeError:  # unhashable input values: fall back, stay sound
            self._packed_table = None
            return True

    def _admissible_packed(
        self, state: object, depth: int, tracer: "obs.Tracer"
    ) -> list[int]:
        """Packed candidate rounds, memoized per folded predicate state.

        The DFS threads ``state`` through ``advance``, so no node recomputes
        a summary, and the memo key is the state itself (ints/int tuples by
        construction, so no unhashable escape hatch is needed).
        """
        cached = self._packed_candidates.get(state)
        if cached is None:
            shared = self.shared_memo
            if shared is not None:
                loaded = shared.get(("cand", state))
                if loaded is not None:
                    # Candidate lists are read-only everywhere, so a list
                    # from the worker-local front is shared as-is — copying
                    # a million-entry frontier per task is real money.
                    cached = loaded if type(loaded) is list else list(loaded)
                    self.stats.shared_hits += 1
                else:
                    self.stats.shared_misses += 1
            if cached is None:
                cached = self._packed.admissible_round_ints(
                    (), max_d_size=self.max_d_size, state=state
                )
                if shared is not None and shared.put(("cand", state), cached):
                    self.stats.shared_publishes += 1
            self._packed_candidates[state] = cached
            # A shared-table load still counts (and traces) as a packed memo
            # miss: the list was absent locally, and keeping the accounting
            # identical either way is what makes the deterministic counters
            # and the event stream invariant across worker counts.
            self.stats.memo_misses_packed += 1
            if tracer.enabled:
                tracer.event(
                    "engine.memo_miss", depth=depth, candidates=len(cached)
                )
        else:
            self.stats.memo_hits_packed += 1
            if tracer.enabled:
                tracer.event("engine.memo_hit", depth=depth)
        return cached

    def _subtree_count(
        self, state: object, depth: int, depth_left: int, tracer: "obs.Tracer"
    ) -> int | None:
        """Leaves below a (decided) node, by DP over ``(state, depth_left)``.

        Returns ``None`` if any completion dead-ends: the caller then walks
        the subtree explicitly so :class:`NoAdmissibleExtension` is raised
        at the DFS-first dead end, exactly like the replay enumerator.
        Cache hits count as memo hits — one aggregated subtree costs the
        same memo traffic as one explicit ``_admissible_packed`` probe.
        """
        if depth_left == 0:
            return 1
        key = (state, depth_left)
        cached = self._agg_counts.get(key)
        if cached is not None:
            self.stats.memo_hits_packed += 1
            if tracer.enabled:
                tracer.event("engine.memo_hit", depth=depth)
            return cached
        children = self._admissible_packed(state, depth, tracer)
        if not children:
            return None
        advance = self._packed.advance
        total = 0
        for rint in children:
            sub = self._subtree_count(
                advance(state, rint), depth + 1, depth_left - 1, tracer
            )
            if sub is None:
                return None
            total += sub
        self._agg_counts[key] = total
        return total

    def _make_expand(
        self, history: DHistory, state: object, depth_left: int
    ) -> Callable[[], Iterator[DHistory]]:
        """Lazy DFS-order leaf enumeration below an aggregated subtree.

        Runs outside the engine loop (only when a shared trace fails an
        invariant), so it must not touch ``stats`` or the tracer; candidate
        lists are read from — or quietly added to — the packed memo.
        """
        packed = self._packed
        dom = packed.domain
        candidates = self._packed_candidates
        max_d_size = self.max_d_size

        def walk(h: DHistory, s: object, left: int) -> Iterator[DHistory]:
            if left == 0:
                yield h
                return
            cached = candidates.get(s)
            if cached is None:
                cached = packed.admissible_round_ints(
                    (), max_d_size=max_d_size, state=s
                )
                candidates[s] = cached
            for rint in cached:
                yield from walk(
                    h + (dom.unpack_round(rint),),
                    packed.advance(s, rint),
                    left - 1,
                )

        return lambda: walk(history, state, depth_left)

    def _root_executor(self, prefix: DHistory) -> RoundExecutor:
        executor = RoundExecutor(
            self.protocol,
            self.inputs,
            self._cursor,
            stop_when_all_decided=True,
            crashed_stop_emitting=self.crashed_stop_emitting,
        )
        for d_round in prefix:
            if executor.trace.all_decided:
                break  # replay truncation: decided runs ignore later rounds
            executor.adversary.stage(d_round)
            executor.step()
            self.stats.rounds_executed += 1
        return executor

    # ------------------------------------------------------------------- API

    def runs(
        self,
        rounds: int,
        *,
        prefix: DHistory = (),
        restrict: tuple[int, int] | None = None,
    ) -> Iterator[EngineRun]:
        """DFS below ``prefix``, yielding every node the checker must judge.

        Yields, in exactly the replay DFS order, an :class:`EngineRun` for
        every full-depth admissible history (and, with ``prune_decided``,
        for every decided interior prefix, flagged ``pruned=True``).
        Raises :class:`NoAdmissibleExtension` when a reachable prefix
        dead-ends, like the replay enumerator.

        ``prefix`` may be given packed (a tuple of round ints) — the
        scheduler ships task prefixes that way to keep payloads small at
        large ``n``.

        ``restrict=(lo, hi)`` limits the walk to the children of ``prefix``
        at candidate indices ``lo:hi`` (in the enumerator's canonical
        order): the yield sequence is exactly the concatenation of
        ``runs(rounds, prefix=prefix + (child,))`` over that slice, but the
        replayed root executor is built once and shared.  This is the
        scale-out scheduler's task shape — a task names a slice of its
        parent's candidate list by index, so task payloads carry no round
        ints at all.  The shared root node itself is *not* yielded, claimed
        or counted (its accounting belongs to whoever owns the full
        frontier); ``prefix`` must therefore sit strictly above ``rounds``
        and must not itself be a prunable (all-decided) interior node.
        """
        if rounds < 1:
            raise ValueError(
                f"the incremental engine needs rounds ≥ 1, got {rounds} "
                "(use the replay path for empty histories)"
            )
        if len(prefix) > rounds:
            raise ValueError(
                f"prefix has {len(prefix)} rounds, beyond rounds={rounds}"
            )
        if restrict is not None:
            lo, hi = restrict
            if lo < 0 or hi < lo:
                raise ValueError(f"restrict must be 0 <= lo <= hi, got {restrict}")
            if len(prefix) >= rounds:
                raise ValueError(
                    "restrict needs room below the prefix: "
                    f"prefix depth {len(prefix)} at rounds={rounds}"
                )
        packed = self._packed
        dom = packed.domain
        if prefix and type(prefix[0]) is int:
            prefix = dom.unpack_history(prefix)
        else:
            prefix = tuple(prefix)
        root = self._root_executor(prefix)
        phistory = dom.pack_history(prefix)
        state = packed.extension_state(phistory)
        tracer = obs.current_tracer()
        if restrict is None:
            # The root is never claimed: task prefixes were claimed (or
            # deduped) by whoever built the task.
            yield from self._packed_visit(
                rounds, prefix, phistory, state, root, tracer
            )
            return
        # Restrict mode: the child loop of _packed_visit over one slice of
        # the root's candidates, without the root's own visit/aggregation —
        # the root is shared by every task slice and accounted for by none.
        if root.trace.all_decided and self.prune_decided and prefix:
            raise ValueError(
                "restrict below an all-decided prefix with prune_decided: "
                "the prefix is a pruned leaf and has no task slices"
            )
        lo, hi = restrict
        children = self._admissible_packed(state, len(prefix), tracer)[lo:hi]
        yield from self._packed_visit(
            rounds, prefix, phistory, state, root, tracer, children
        )

    # ------------------------------------------------------------- DFS core

    def _packed_visit(
        self,
        rounds: int,
        history: DHistory,
        phistory: PackedDHistory,
        state: object,
        executor: RoundExecutor,
        tracer: "obs.Tracer",
        children: list[int] | None = None,
    ) -> Iterator[EngineRun]:
        """Visit one claimed node and its subtree (recursion depth ≤ rounds).

        The frame owns ``executor``: children fork it, except the last,
        which consumes it (move semantics).  Given ``children`` (restrict
        mode), the node's own visit is skipped and only those children are
        walked.  Children are walked in candidate order — the replay
        enumerator's order, which keeps the engines' violation lists
        byte-identical.
        """
        depth = len(history)
        if children is None:
            self.stats.visited += 1
            trace = executor.trace
            if depth == rounds:
                yield EngineRun(history, trace)
                return
            shared = trace.all_decided
            if shared:
                if self.prune_decided:
                    if history:
                        yield EngineRun(history, trace, pruned=True)
                        return
                elif self._packed_table is None:
                    count = self._subtree_count(
                        state, depth, rounds - depth, tracer
                    )
                    if count is not None:
                        self.stats.aggregated_subtrees += 1
                        yield EngineRun(
                            history, trace, False, count,
                            self._make_expand(history, state, rounds - depth),
                        )
                        return
                    # A completion dead-ends somewhere below: walk
                    # explicitly so NoAdmissibleExtension fires at the
                    # DFS-first dead end.
            children = self._admissible_packed(state, depth, tracer)
            if not children:
                raise NoAdmissibleExtension(self.predicate, history)
        else:
            shared = executor.trace.all_decided
        # Below an all-decided node no process will absorb another view, so
        # the whole subtree shares ``executor`` (and thus one trace object)
        # and steps nothing.
        packed = self._packed
        dom = packed.domain
        visit = self._packed_visit
        last = len(children) - 1
        for index, rint in enumerate(children):
            child_ph = phistory + (rint,)
            if self._packed_table is not None and not self._claim_packed(
                child_ph
            ):
                self.stats.skipped_symmetric += 1
                if tracer.enabled:
                    tracer.event("engine.symmetry_skip", depth=depth + 1)
                continue
            d_round = dom.unpack_round(rint)
            if shared or index == last:
                child_exec = executor  # shared, or last sibling: move
            else:
                child_exec = executor.fork()
                self.stats.forks += 1
                if tracer.enabled:
                    tracer.event("engine.fork", depth=depth + 1)
            if not shared:
                child_exec.adversary.stage(d_round)
                child_exec.step()
                self.stats.rounds_executed += 1
            yield from visit(
                rounds, history + (d_round,), child_ph,
                packed.advance(state, rint), child_exec, tracer,
            )
