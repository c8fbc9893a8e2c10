"""The incremental engine against the replay oracle, plus its primitives.

The engine's whole value proposition is "same verdicts, less work": every
test here either proves the *same verdicts* half differentially against the
replay path, or exercises the primitives (executor forking, process
copying, candidate memoization, the transposition table) the *less work*
half rests on.
"""

import pytest

from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    search_worst_case,
)
from repro.check import (
    IncrementalExplorer,
    all_specs,
    explore,
    get_spec,
)
from repro.check.engine import _CursorAdversary, _PackedSymmetryTable
from repro.core.adversary import ScriptedAdversary
from repro.core.executor import RoundExecutor
from repro.core.predicate import Conjunction, Unconstrained
from repro.core.predicates import AsyncMessagePassing, CrashSync, KSetDetector
from repro.protocols.kset import kset_protocol
from repro.util.bitset import domain

EXHAUSTIVE_SPECS = [s.name for s in all_specs() if s.supports_exhaustive]


def _violation_set(result):
    return [
        (v.inputs, v.history, tuple((f.invariant, f.message) for f in v.failures))
        for v in result.violations
    ]


# ---------------------------------------------------------------------------
# differential: incremental == replay


class TestEnginesAgree:
    @pytest.mark.parametrize("name", EXHAUSTIVE_SPECS)
    def test_identical_on_registered_specs(self, name):
        replay = explore(name, n=3, engine="replay")
        incremental = explore(name, n=3, engine="incremental")
        assert incremental.engine == "incremental"
        assert incremental.executions == replay.executions
        assert incremental.histories == replay.histories
        assert incremental.pruned == replay.pruned
        assert _violation_set(incremental) == _violation_set(replay)

    @pytest.mark.parametrize("name", EXHAUSTIVE_SPECS)
    def test_identical_with_pruning(self, name):
        replay = explore(name, n=3, engine="replay", prune_decided=True)
        incremental = explore(
            name, n=3, engine="incremental", prune_decided=True
        )
        assert incremental.executions == replay.executions
        assert incremental.histories == replay.histories
        assert incremental.pruned == replay.pruned
        assert _violation_set(incremental) == _violation_set(replay)

    def test_identical_violations_on_weakened_kset(self):
        """Both engines emit the same counterexamples, in the same order."""
        weak = get_spec("kset").weakened(lambda n: AsyncMessagePassing(n, n - 1))
        replay = explore(weak, engine="replay")
        incremental = explore(weak, engine="incremental")
        assert not replay.ok and not incremental.ok
        assert _violation_set(incremental) == _violation_set(replay)

    def test_rounds_zero_routes_to_replay(self):
        result = explore("kset", rounds=0, engine="incremental")
        assert result.engine == "replay"
        assert result.histories == 1  # the empty history

    def test_search_worst_case_engines_agree(self):
        protocol = kset_protocol()
        predicate = KSetDetector(3, 2)
        a = search_worst_case(protocol, (0, 1, 2), predicate, rounds=2,
                              engine="replay")
        b = search_worst_case(protocol, (0, 1, 2), predicate, rounds=2,
                              engine="incremental")
        assert a.objective_value == b.objective_value
        assert a.history == b.history
        assert a.histories_explored == b.histories_explored

    def test_dead_end_raises_in_both_engines(self):
        """A predicate that demands suspicions under max_d_size=0 dead-ends
        — the engine keeps the enumerator's loud-dead-end contract."""

        class ForcedSuspicion(Unconstrained):
            def _allows(self, history):
                return all(
                    any(suspected for suspected in d_round)
                    for d_round in history
                )

        spec = get_spec("kset").weakened(
            lambda n: ForcedSuspicion(n), suffix="forced"
        )
        for engine in ("replay", "incremental"):
            with pytest.raises(NoAdmissibleExtension):
                explore(spec, n=3, engine=engine, max_d_size=0)


# ---------------------------------------------------------------------------
# symmetry reduction


class TestSymmetry:
    def test_violation_existence_iff_on_weakened_kset(self):
        """The mandated iff: symmetry-on finds a violation exactly when
        symmetry-off does (kset's 'labels' grade is existence-sound)."""
        weak = get_spec("kset").weakened(lambda n: AsyncMessagePassing(n, n - 1))
        full = explore(weak, engine="incremental", symmetry=False)
        reduced = explore(weak, engine="incremental", symmetry=True)
        assert reduced.symmetry
        assert full.ok == reduced.ok
        assert not full.ok  # the weakening genuinely breaks k-agreement

    def test_healthy_specs_stay_ok_under_symmetry(self):
        for name in EXHAUSTIVE_SPECS:
            full = explore(name, n=3, symmetry=False)
            reduced = explore(name, n=3, symmetry=True)
            assert full.ok and reduced.ok
            assert reduced.histories <= full.histories

    def test_symmetry_reduces_kset_orbit_count(self):
        full = explore("kset", symmetry=False)
        reduced = explore("kset", symmetry=True)
        assert reduced.symmetry and full.histories == 3721
        assert reduced.histories < full.histories
        assert reduced.skipped_symmetric > 0

    def test_symmetry_not_applied_when_spec_declares_none(self):
        spec = get_spec("kset")
        neutral = spec.weakened(lambda n: KSetDetector(n, n - 1), suffix="sym")
        assert neutral.symmetry == "labels"  # weakened() inherits the grade
        import dataclasses

        no_grade = dataclasses.replace(neutral, symmetry="none")
        result = explore(no_grade, symmetry=True)
        assert not result.symmetry and result.skipped_symmetric == 0

    def test_symmetry_not_applied_for_asymmetric_predicate(self):
        class Lopsided(Unconstrained):
            is_symmetric = False

        spec = get_spec("kset").weakened(lambda n: Lopsided(n), suffix="lop")
        result = explore(spec, symmetry=True)
        assert not result.symmetry

    def test_parallel_symmetry_matches_serial_verdict(self):
        serial = explore("kset", symmetry=True, workers=1)
        parallel = explore("kset", symmetry=True, workers=2)
        assert serial.ok and parallel.ok
        assert parallel.histories == serial.histories

    def test_table_claims_orbit_once(self):
        dom = domain(3)
        table = _PackedSymmetryTable((0, 0, 1), "exact", dom)
        d = (frozenset({1}), frozenset(), frozenset())
        # Swapping processes 0 and 1 fixes the inputs (0,0,1) and maps d to:
        image = (frozenset(), frozenset({0}), frozenset())
        assert table.claim((dom.pack_round(d),))
        assert not table.claim((dom.pack_round(image),))
        # ... but a permutation moving process 2 changes the inputs: the
        # 0<->2 image of d is NOT orbit-equivalent under the stabilizer.
        other = (frozenset(), frozenset(), frozenset({1}))
        assert table.claim((dom.pack_round(other),))

    def test_labels_mode_collapses_input_renaming(self):
        dom = domain(3)
        exact = _PackedSymmetryTable((0, 1, 2), "exact", dom)
        labels = _PackedSymmetryTable((0, 1, 2), "labels", dom)
        d = (dom.pack_round((frozenset({1}), frozenset(), frozenset())),)
        # the 0->1->2->0 image of d
        rotated = (dom.pack_round((frozenset(), frozenset({2}), frozenset())),)
        assert exact.claim(d) and exact.claim(rotated)  # trivial stabilizer
        assert labels.claim(d) and not labels.claim(rotated)


# ---------------------------------------------------------------------------
# primitives: forking, copying, memoization


class TestPrimitives:
    def _executor(self, history_rounds=0):
        protocol = kset_protocol()
        adversary = ScriptedAdversary(3, [
            (frozenset(), frozenset(), frozenset()),
            (frozenset({1}), frozenset({1}), frozenset({1})),
        ])
        ex = RoundExecutor(protocol, (0, 1, 2), adversary,
                           stop_when_all_decided=False)
        for _ in range(history_rounds):
            ex.step()
        return ex

    def test_fork_is_independent(self):
        ex = self._executor(1)
        fork = ex.fork()
        assert fork.trace.num_rounds == 1
        assert fork.trace.rounds[0] is ex.trace.rounds[0]  # records shared
        ex.step()
        assert ex.trace.num_rounds == 2 and fork.trace.num_rounds == 1
        assert fork._ever_suspected == set()

    def test_fork_copies_process_state(self):
        ex = self._executor(1)
        fork = ex.fork()
        for mine, theirs in zip(ex.processes, fork.processes):
            assert mine is not theirs
            assert mine.decision == theirs.decision

    def test_snapshot_restores_many_times(self):
        ex = self._executor(1)
        snap = ex.snapshot()
        assert snap.rounds_executed == 1
        a, b = snap.restore(), snap.restore()
        assert a is not b and a.trace.num_rounds == b.trace.num_rounds == 1

    def test_cursor_adversary_requires_staged_round(self):
        cursor = _CursorAdversary(3)
        with pytest.raises(RuntimeError, match="no suspicion round staged"):
            cursor.suspicions(1, (), (None, None, None))
        d = (frozenset(), frozenset(), frozenset())
        cursor.stage(d)
        assert cursor.suspicions(1, (), (None, None, None)) == d
        with pytest.raises(RuntimeError):  # staged round is consumed
            cursor.suspicions(2, (), (None, None, None))

    def test_engine_rejects_zero_rounds(self):
        explorer = IncrementalExplorer(
            kset_protocol(), KSetDetector(3, 2), (0, 1, 2)
        )
        with pytest.raises(ValueError, match="rounds ≥ 1"):
            list(explorer.runs(0))

    def test_candidate_memo_collapses_per_round_predicates(self):
        """The bridge memoizes per set-side ``extension_state``."""

        class Bridged(KSetDetector):  # exact-type guard: no fast kernel
            pass

        explorer = IncrementalExplorer(
            kset_protocol(), Bridged(3, 2), (0, 1, 2), symmetry="exact"
        )
        assert not explorer._packed.fast
        runs = list(explorer.runs(2))
        assert len(runs) == 3721
        # The bridge's state is the packed history, so the engine's memo
        # misses once per interior node (root + 61 depth-1 nodes) ...
        assert explorer.stats.memo_misses_packed == 62
        assert explorer.stats.memo_hits_packed == 0
        # ... but KSetDetector.extension_state() == (): one enumeration
        # serves all 62 of them.
        assert len(explorer._packed._candidates) == 1
        # One protocol round per tree edge below the decision round.
        assert explorer.stats.rounds_executed == 61

    def test_packed_memo_and_aggregation_collapse_decided_subtrees(self):
        """The packed twin of the memo test: same shape, fewer runs.

        kset decides in round 1, so each depth-1 subtree arrives as ONE
        aggregated run standing for its 61 leaves; the packed state memo
        shows the same 1-miss/61-hit pattern as the set-based memo.
        """
        explorer = IncrementalExplorer(
            kset_protocol(), KSetDetector(3, 2), (0, 1, 2)
        )
        assert explorer._packed.fast
        runs = list(explorer.runs(2))
        assert len(runs) == 61
        assert all(run.count == 61 for run in runs)
        assert sum(run.count for run in runs) == 3721
        assert explorer.stats.memo_misses_packed == 1
        assert explorer.stats.memo_hits_packed == 61
        assert explorer.stats.aggregated_subtrees == 61
        assert explorer.stats.rounds_executed == 61
        # expand() enumerates the leaves lazily, DFS-first leaf first.
        leaves = list(runs[0].expand())
        assert len(leaves) == 61
        assert all(leaf[:1] == runs[0].history for leaf in leaves)
        assert leaves[0] == runs[0].history + runs[0].history

    def test_decided_subtrees_share_traces(self):
        # Symmetry on disables subtree aggregation, so every leaf arrives
        # as its own run; distinct inputs give a trivial exact-mode
        # stabilizer, so nothing is skipped either.
        explorer = IncrementalExplorer(
            kset_protocol(), KSetDetector(3, 2), (0, 1, 2), symmetry="exact"
        )
        # Count identity *transitions* (shared traces arrive contiguously);
        # holding ids without references would hit GC id reuse.
        distinct = 0
        last = None
        runs = 0
        for run in explorer.runs(2):
            runs += 1
            if run.trace is not last:
                distinct += 1
                last = run.trace
        assert runs == 3721 and explorer.stats.skipped_symmetric == 0
        assert distinct == 61  # one trace per depth-1 branch, shared below

    def test_extension_state_contract_spot_check(self):
        """Histories with equal summaries admit the same extensions."""
        pred = CrashSync(3, 1)
        empty = frozenset()
        h1 = ((empty, empty, empty),)
        h2 = ((empty, empty, empty), (empty, empty, empty))
        assert pred.extension_state(h1) == pred.extension_state(h2)
        from repro.analysis.adversary_search import admissible_rounds

        assert list(admissible_rounds(pred, h1)) == list(admissible_rounds(pred, h2))

    def test_conjunction_extension_state_and_symmetry(self):
        sym = Conjunction(KSetDetector(3, 2), AsyncMessagePassing(3, 2))
        assert sym.is_symmetric
        assert sym.extension_state(()) == ((), ())

        class Odd(Unconstrained):
            is_symmetric = False

        assert not Conjunction(KSetDetector(3, 2), Odd(3)).is_symmetric
